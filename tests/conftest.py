"""Shared constants, comparison helpers and fresh-process helpers for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from monkeytyper import Alphabet, ScaledDecimal

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

# Published per-prefix averages (ten trials each) that drive the projection
# pipeline: the average rows of the bundled published_trials.csv, with the
# 0.0001 s stand-in for the 0.000 s it prints at prefix 1.
ATTEMPTS_BASE = [60, 3101, 159174, 8096722, 345380940]
TIMES_BASE = [0.0001, 0.006, 0.36, 22.355, 1097.5]

PHRASE = "To be, or not to be, that is the Question"


def process_env(**env):
    """The environment plus ``env``, with this checkout's ``src`` first on the path."""
    return dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))


def run_python(cwd, *args, **env):
    """``python args`` as a fresh process in ``cwd``, with ``env`` added; it must exit 0."""
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=cwd,
                          env=process_env(**env), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


def modules_loaded_after(tmp_path, commands, *flags) -> set[str]:
    """Which of numpy, typing, importlib.resources and concurrent.futures a
    fresh ``python *flags`` process in ``tmp_path`` has loaded once
    ``commands`` ran through ``cli.main``."""
    script = "\n".join([
        "import sys",
        "from monkeytyper import cli",
        f"for argv in {[list(map(str, argv)) for argv in commands]!r}:",
        "    assert cli.main(argv) == 0, argv",
        "modules = ('concurrent.futures', 'importlib.resources', 'numpy', 'typing')",
        "print(*(m for m in modules if m in sys.modules))",
    ])
    return set(run_python(tmp_path, *flags, "-c", script).stdout.splitlines()[-1].split())


@pytest.fixture(scope="session")
def serial_simulation_modules(tmp_path_factory) -> set[str]:
    """What ``modules_loaded_after`` reports for one small serial ``simulate``,
    run once per session in a fresh ``python`` (without -S: numpy lives in
    site-packages) and shared by the tests that probe it."""
    command = ["simulate", "--target", "ab", "--alphabet", "ab", "--max-prefix", "2",
               "--iterations", "3", "--no-timing"]
    return modules_loaded_after(tmp_path_factory.mktemp("serial-simulate"), [command])


def decode(alphabet: Alphabet, codes) -> str:
    """The text whose symbol indices are ``codes``: the inverse of ``Alphabet.encode``."""
    return "".join(alphabet.symbols[int(i)] for i in codes)


def rel_err(a: ScaledDecimal, b: ScaledDecimal) -> float:
    """|a/b - 1| for nearby positive scaled decimals."""
    q = a / b
    if abs(q.exponent) > 2:  # wildly different magnitudes: report huge error
        return float("inf")
    return abs(float(q.mantissa.scaleb(q.exponent)) - 1.0)


def rel_err_float(s: ScaledDecimal, expected: float) -> float:
    """|s/expected - 1| against a float reference."""
    return rel_err(s, ScaledDecimal.from_float(expected))
