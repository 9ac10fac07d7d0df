"""The benchmark's workloads: inputs built from a seed, one operation, checks.

Each workload runs as a closed loop from one process: the next operation
starts only after the previous one returned. An operation is what one
``run`` call does; its outputs are checked outside the timed region.

Why these four (sized on 2 CPUs, Python 3.11, numpy 2.4):

* ``trials-long`` -- the fixed workload of the project's roadmap. Cells with
  n=4 hold 98% of its ~92M candidates and waste 0.5% of drawn rows, so the
  draw-and-match kernel does nearly all the work.
* ``trials-short`` -- 4,000 short trials (n=1..2): per-trial costs dominate
  (seed derivation, generator construction, the minimum batch, table
  assembly). A kernel change that adds per-trial cost shows here as a loss.
* ``pipeline`` -- ``report --use-paper-data`` in-process: projection,
  scaled-decimal arithmetic, formatting, bundled-data reads and file writes,
  no trial at all.
* ``odds`` -- exact success probabilities and expected attempts; the exact
  big-integer power dominates. ``--length 10000000`` is left out because it
  does not finish in reasonable time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io
import math
import random
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

MODULES = ("simulate", "model", "scaled", "analysis", "data", "cli")


class ProgramMissing(RuntimeError):
    """The monkeytyper sources are not in the checkout."""


def load_program(root: Path):
    """Import monkeytyper from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    if not (src / "monkeytyper" / "__init__.py").is_file():
        raise ProgramMissing(f"no monkeytyper package under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("monkeytyper")
    for name in MODULES:
        importlib.import_module(f"monkeytyper.{name}")
    if src not in Path(package.__file__).resolve().parents:
        raise ProgramMissing(f"monkeytyper was imported from {package.__file__}")
    return package


@dataclass
class Outcome:
    """What one operation did, as judged by its checks."""

    attempted: int  # trials, report calls or odds calls in the operation
    failed: int
    work: float  # units counted by work_per_s
    extra: dict = field(default_factory=dict)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


# -- trials ---------------------------------------------------------------------

# Per-column false-alarm probability of the statistical band on pooled means.
BAND_TAIL = 1e-9


def mean_band(k: int, tail: float = BAND_TAIL) -> tuple[float, float]:
    """Band for (mean of k waiting times) / (expected waiting time).

    From the Chernoff bound for the mean of k exponential waiting times,
    P(mean/mu <= a) and P(mean/mu >= b) are each at most ``tail`` when
    k * (ln x + 1 - x) = ln(tail) at x = a < 1 and x = b > 1. A geometric
    waiting time's upper tail is bounded by the exponential one.
    """
    target = math.log(tail) / k

    def solve(lo: float, hi: float) -> float:
        # g(x) = ln x + 1 - x rises on (0, 1) and falls on (1, inf).
        for _ in range(200):
            mid = (lo + hi) / 2
            above = math.log(mid) + 1 - mid > target
            if (mid < 1) == above:
                hi = mid
            else:
                lo = mid
        return (lo + hi) / 2

    return solve(1e-12, 1.0), solve(1.0, 1e6)


class TrialsWorkload:
    """``run_experiment`` on ``To be`` over ``letters+space``."""

    def __init__(self, program, seed: int, *, max_prefix: int, iterations: int, work: str):
        self.program = program
        self.work = work  # "candidates" or "trials"
        simulate, model = program.simulate, program.model
        config = simulate.ExperimentConfig(
            target=model.TargetText("To be"),
            alphabet=model.LETTERS_AND_SPACE,
            max_prefix_length=max_prefix,
            iterations=iterations,
            seed=seed,
            worker_count=1,
        )
        self.configs = {1: config, 2: dataclasses.replace(config, worker_count=2)}
        self.budget = config.attempt_budget
        self.reference = None  # attempts matrix of the first operation
        self.out_of_band: list[int] = []
        self.bands: dict[int, tuple[float, float, float]] = {}

    def prepare(self):
        return None

    def run(self, _prepared, worker_count: int = 1):
        return self.program.simulate.run_experiment(self.configs[worker_count])

    def _set_reference(self, matrix) -> None:
        self.reference = matrix
        size = self.configs[1].alphabet.size
        k = len(matrix)
        lo, hi = mean_band(k)
        for column, n in enumerate(range(1, len(matrix[0]) + 1)):
            ratio = sum(row[column] for row in matrix) / k / size**n
            self.bands[n] = (ratio, lo, hi)
            if not lo <= ratio <= hi:
                self.out_of_band.append(n)

    def check(self, _prepared, table) -> Outcome:
        matrix = tuple(tuple(rec.attempts for rec in row) for row in table.trials)
        if self.reference is None:
            self._set_reference(matrix)
        reference = self.reference
        if [len(row) for row in matrix] != [len(row) for row in reference]:
            reference = [[None] * len(row) for row in matrix]  # every cell fails
        failed = sum(
            not (
                rec.completed
                and 1 <= rec.attempts <= self.budget
                and rec.prefix_length == j + 1
                and rec.attempts == reference[i][j]
                and rec.prefix_length not in self.out_of_band
            )
            for i, row in enumerate(table.trials)
            for j, rec in enumerate(row)
        )
        trials = sum(len(row) for row in matrix)
        candidates = sum(map(sum, matrix))
        return Outcome(
            attempted=trials,
            failed=failed,
            work=candidates if self.work == "candidates" else trials,
            extra={"trials": trials, "candidates": candidates},
        )

    def digest(self) -> str:
        return _digest(self.reference)


# -- pipeline ---------------------------------------------------------------------

# Headline values the report must print (projection.csv carries 4 significant
# digits, summary.txt 3).
PIPELINE_HEADLINES = {
    "projection.csv": [',"To be, or not to be, that is the Question",2.680e69,'],
    "summary.txt": [
        "attempts 2.68e69",
        "success probability (52 symbols, 41 chars): 4.40e-71",
        "success probability (52 symbols, 1520 chars): 4.73e-2609",
    ],
}


class PipelineWorkload:
    """``cli.main(["report", "--use-paper-data", "--out", <fresh dir>])``."""

    def __init__(self, program, seed: int, scratch: Path):
        self.program = program
        self.scratch = scratch
        self.argv = ["report", "--use-paper-data", "--out"]
        self.reference = None  # (stdout, {file name: bytes}) of the first call
        self.headlines_ok = None
        # The seed only names the scratch directories: the report has no
        # random input.
        self.prefix = f"report-{seed}-"

    def prepare(self) -> Path:
        self.scratch.mkdir(parents=True, exist_ok=True)
        return Path(tempfile.mkdtemp(prefix=self.prefix, dir=self.scratch))

    def run(self, out_dir: Path, worker_count: int = 1):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = self.program.cli.main([*self.argv, str(out_dir)])
        return code, stdout.getvalue()

    def check(self, out_dir: Path, result) -> Outcome:
        code, stdout = result
        try:
            files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if self.reference is None:
            self.reference = (stdout, files)
            self.headlines_ok = all(
                line in files.get(name, b"").decode("utf-8", "replace")
                for name, lines in PIPELINE_HEADLINES.items()
                for line in lines
            )
        good = code == 0 and self.headlines_ok and (stdout, files) == self.reference
        return Outcome(
            attempted=1,
            failed=int(not good),
            work=1,
            extra={
                "files_written": len(files),
                "bytes_written": sum(map(len, files.values())),
            },
        )

    def digest(self) -> str:
        stdout, files = self.reference
        return _digest(stdout, *(name.encode() + b"\0" + data for name, data in files.items()))


# -- odds -------------------------------------------------------------------------

ODDS_CASES = [(52, 41), (52, 1520), (53, 10000), (52, 30000), (52, 100000)]


def exact_scientific(num: int, den: int, digits: int = 4) -> str:
    """``num/den`` as ``<mantissa>e<exponent>``, rounded half-even, exactly.

    Pure integer arithmetic: the exponent is found by exact comparison
    with powers of ten, the mantissa by one integer division.
    """
    exponent = math.floor(math.log10(num) - math.log10(den))

    def at_least(e: int) -> bool:  # num/den >= 10**e
        return num * 10**-e >= den if e < 0 else num >= den * 10**e

    while not at_least(exponent):
        exponent -= 1
    while at_least(exponent + 1):
        exponent += 1
    shift = digits - 1 - exponent
    n, d = (num * 10**shift, den) if shift >= 0 else (num, den * 10**-shift)
    q, r = divmod(n, d)
    if 2 * r > d or (2 * r == d and q % 2):
        q += 1
    if q == 10**digits:
        q, exponent = 10 ** (digits - 1), exponent + 1
    whole, frac = divmod(q, 10 ** (digits - 1))
    return f"{whole}.{frac:0{digits - 1}d}e{exponent}"


class OddsWorkload:
    """One pass of ``success_probability`` and ``expected_attempts``."""

    def __init__(self, program, seed: int):
        self.program = program
        self.cases = list(ODDS_CASES)
        random.Random(seed).shuffle(self.cases)  # the seed sets the call order
        self.expected = None  # computed on first check, outside set-up

    def prepare(self):
        return None

    def run(self, _prepared, worker_count: int = 1):
        analysis = self.program.analysis
        return [
            (analysis.success_probability(a, n), analysis.expected_attempts(a, n))
            for a, n in self.cases
        ]

    def check(self, _prepared, results) -> Outcome:
        if self.expected is None:
            self.expected = [
                (exact_scientific(1, a**n), exact_scientific(a**n, 1)) for a, n in self.cases
            ]
        got = [(str(p), str(e)) for p, e in results]
        failed = sum(g != x for pair, ref in zip(got, self.expected) for g, x in zip(pair, ref))
        failed += 2 * abs(len(self.expected) - len(got))
        return Outcome(attempted=2 * len(self.cases), failed=failed, work=1)

    def digest(self) -> str:
        return _digest(sorted(zip(self.cases, self.expected)))


# -- registry ---------------------------------------------------------------------


def build(name: str, program, seed: int, root: Path):
    """Build workload ``name``'s inputs from ``seed``."""
    if name == "trials-long":
        return TrialsWorkload(program, seed, max_prefix=4, iterations=10, work="candidates")
    if name == "trials-short":
        return TrialsWorkload(program, seed, max_prefix=2, iterations=2000, work="trials")
    if name == "pipeline":
        return PipelineWorkload(program, seed, root / "bench" / "results" / "tmp")
    if name == "odds":
        return OddsWorkload(program, seed)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("trials-long", "trials-short", "pipeline", "odds")
