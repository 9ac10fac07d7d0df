"""Mutation check: every mutant listed here must make the tier-1 suite fail.

Each mutant names one file under ``src/``, an exact old text that must occur
in it exactly once, the new text that replaces it, and why the mutant
matters. The script copies ``src/``, ``tests/``, ``demos/``, ``pyproject.toml``
and ``README.md`` into a temporary directory, checks that the unmutated suite
passes there, and then, one mutant at a time, writes the mutated file, runs
the tier-1 suite with ``-x`` and restores the file. A mutant under which the
suite still passes has survived: its check, or its line, is one no test can
make fail.

The script exits 1 if a mutant survives or if an old text does not occur
exactly once, so a refactor updates the list instead of silently dropping a
mutant. A mutant's run is cut at five times the unmutated suite's time
plus 30 s and then counts as killed, since a suite that hangs fails too
(a miscounting trial kernel can run for minutes before a test fails).
Mutants whose effect cannot differ from the original are kept in
``EQUIVALENT``, with the reason: their old texts are checked too, but they
are not run.

Usage: ``python tests/mutants.py [NAME ...]``; ``--list`` prints the names.
pytest does not collect this file (its name does not start with
``test_``).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "demos", "pyproject.toml", "README.md")
BASELINE_TIMEOUT_S = 600


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/monkeytyper
    old: str
    new: str
    why: str


MUTANTS = (
    Mutant(
        "exact-context-too-short", "scaled.py",
        "Context(prec=MAX_PREC", "Context(prec=40",
        "expected_attempts(52, 41) has 71 digits: a context of 40 would raise Inexact",
    ),
    Mutant(
        "expected-attempts-guard", "analysis.py",
        '"""Mean geometric waiting time A^n, from the exact power rounded once."""\n'
        "    if alphabet_size < 1 or n < 1:",
        '"""Mean geometric waiting time A^n, from the exact power rounded once."""\n'
        "    if False:",
        "expected_attempts(52, 0) would return 1.000e0",
    ),
    Mutant(
        "int-pow-base-guard", "scaled.py",
        "    if base < 1:\n",
        "    if False:\n",
        "scaled_int_pow(0, -3) would fail on a non-finite Infinity, not on its base",
    ),
    Mutant(
        "empty-measurements-guard", "model.py",
        "    if reader.fieldnames is None:\n",
        "    if False:\n",
        "project --measurements on an empty file would end in a TypeError traceback",
    ),
    Mutant(
        "trial-budget-guard", "simulate.py",
        "    if budget is not None and budget < 1:\n",
        "    if False:\n",
        "run_prefix_trial(..., budget=0) would fail on TrialRecord's attempts check instead",
    ),
    Mutant(
        "prefix-length-zero", "simulate.py",
        "    if not 1 <= prefix_length <= target.length:\n",
        "    if not 0 <= prefix_length <= target.length:\n",
        "a prefix length of 0 would run a trial before TrialRecord rejects it",
    ),
    Mutant(
        "alphabet-guard", "model.py",
        "        if missing:\n            listed = ",
        "        if False:\n            listed = ",
        "Alphabet.encode is the one owner of the alphabet rule for trial prefixes",
    ),
    Mutant(
        "growth-model-lengths", "model.py",
        "if len(self.attempts_base) != len(self.times_base):",
        "if len(self.attempts_base) < len(self.times_base):",
        "GrowthModel is the one owner of the equal-length rule",
    ),
    Mutant("growth-factor-before-lengths", "analysis.py",
           "    GrowthModel(attempts, times, 1.0, None)  # the model's rules come first\n",
           "", "unequal base lists must fail on their lengths, not on a one-value growth factor"),
    Mutant(
        "match-start-adjustment", "simulate.py",
        "        lo += 1\n",
        "        pass\n",
        "a rejected first lane of the key's interval would count as a hit",
    ),
    Mutant(
        "match-rejection-count", "simulate.py",
        "    if not threshold:  # a power of two: no lane is rejected",
        "    if True:  # a power of two: no lane is rejected",
        "rejected lanes would count as candidates, off numpy's bounded draw",
    ),
    Mutant(
        "match-rejection-count-without-hits", "simulate.py",
        "return hits, lanes.size - np.count_nonzero(mask)",
        "return hits, lanes.size",
        "a batch without a hit would count its rejected lanes as candidates",
    ),
    Mutant(
        "match-high-half-first", "simulate.py",
        'raw.astype("<u8", copy=False).view(dtype)',
        'raw.astype(">u8", copy=False).view(dtype.newbyteorder(">"))',
        "numpy's bounded draw takes the low lane of each word first",
    ),
    Mutant(
        "match-without-searchsorted", "simulate.py",
        "return hits - rejected.searchsorted(hits), lanes.size - rejected.size",
        "return hits, lanes.size - rejected.size",
        "a hit's position must drop by the rejected lanes before it",
    ),
    Mutant(
        "lane-always-32", "simulate.py",
        "return 8 * np.min_scalar_type(space - 1).itemsize",
        "return 32 if space <= 2**32 else 64",
        "a candidate is a lane as narrow as numpy's narrowest bounded draw of its space",
    ),
    Mutant(
        "block-candidates-2^16", "simulate.py",
        "_BLOCK_CANDIDATES = 1 << 20", "_BLOCK_CANDIDATES = 1 << 16",
        "K_n = max(1, 2^20 // A^n) is part of stream version 4",
    ),
    Mutant(
        "block-gap-off-by-one", "simulate.py",
        "attempts.append(position - start + 1)",
        "attempts.append(position - start + 2)",
        "a trial's attempts include the matching candidate, and no more",
    ),
    Mutant(
        "thread-pool-per-block-not-cpu", "simulate.py",
        "min(config.worker_count, len(blocks), os.cpu_count() or 1)",
        "min(config.worker_count, len(blocks))",
        "--workers 5000 on 10,000 blocks would ask for 5,000 OS threads",
    ),
    Mutant(
        "batch-rule-overdraw", "simulate.py",
        "left * space,", "(left + 1) * space,",
        "a batch draws the open trials' mean need and no more",
    ),
    Mutant("growth-model-float-bases", "analysis.py",
           "(tuple(float(v) for v in base) for base in", "(tuple(base) for base in",
           "a growth model holds float bases whatever the caller passes, as demo 02 prints"),
    Mutant(
        "growth-factor-mean", "analysis.py",
        "mean = sum(ratios) / len(ratios)",
        "mean = sum(ratios) / (len(ratios) + 1)",
        "criterion 4: the growth factor is the mean of the successive ratios",
    ),
    Mutant(
        "success-probability-power", "analysis.py",
        "scaled_int_pow(alphabet_size, -n)",
        "scaled_int_pow(alphabet_size, -(n - 1))",
        "criterion 1: the odds of one candidate are A^-n",
    ),
    Mutant(
        "expected-attempts-power", "analysis.py",
        "scaled_int_pow(alphabet_size, n)",
        "scaled_int_pow(alphabet_size, n + 1)",
        "criterion 7: a geometric wait has mean A^n",
    ),
    Mutant(
        "census-collapsed-whitespace", "analysis.py",
        '" ".join(text.split())',
        '"".join(text.split())',
        "criterion 9: collapsed whitespace keeps one space per run",
    ),
    Mutant(
        "census-published-total", "analysis.py",
        "if count == PUBLISHED_SOLILOQUY_LENGTH", "if count != PUBLISHED_SOLILOQUY_LENGTH",
        "criterion 9: the census flags the counts that equal the published 1,520",
    ),
    Mutant(
        "csv-text-crlf", "model.py",
        'lineterminator="\\n"', 'lineterminator="\\r\\n"',
        "every CSV the package writes ends its lines with \\n, as the golden bundles do",
    ),
    Mutant(
        "projection-length", "analysis.py",
        "while len(series) < length:",
        "while len(series) < length - 1:",
        "criteria 2-3: the projection reaches the full target length",
    ),
    Mutant(
        "trial-seed-order", "simulate.py",
        "SeedSequence((seed, iteration, prefix_length))",
        "SeedSequence((seed, prefix_length, iteration))",
        "criterion 8: a block's seed is keyed by (seed, iteration, prefix length)",
    ),
    Mutant(
        "julian-year", "analysis.py",
        "years = seconds / JULIAN_YEAR_SECONDS",
        "years = seconds / 3.1536e7",
        "the years figure divides by the Julian year, not 365 days",
    ),
    Mutant(
        "rows-json-indent", "cli.py",
        "json.dumps(rows, indent=2)",
        "json.dumps(rows, indent=3)",
        "projection.json must equal json.dumps(rows, indent=2) byte for byte",
    ),
    Mutant(
        "published-quote-target", "cli.py",
        "if timed and args.use_paper_data and args.target == data.HAMLET_PHRASE:",
        "if timed:",
        "the published years describe the paper's seconds value only",
    ),
    Mutant("typing-import", "model.py", "import string\n", "import string\nimport typing\n",
           "no module under src/ imports typing, and report --use-paper-data loads none"),
    Mutant("resources-import", "data/__init__.py", "import os\n",
           "import importlib.resources\nimport os\n",
           "the bundled data are plain files read with open(), not through importlib.resources"),
    Mutant("numpy-without-trials", "cli.py", "from . import __version__, data\n",
           "from . import __version__, data, simulate\n",
           "only the commands that run trials load numpy"),
    Mutant("seed-per-process", "simulate.py", "SeedSequence((seed, iteration, prefix_length))",
           'SeedSequence((seed, iteration, prefix_length, __import__("os").getpid()))',
           "--no-timing outputs are byte-identical across fresh processes"),
    Mutant("projection-json-raw-unicode", "cli.py",
           "json.dumps(rows, indent=2)",
           "json.dumps(rows, indent=2, ensure_ascii=False)",
           "projection.json escapes a non-ASCII target as json.dumps does"),
    Mutant(
        "report-no-timing", "cli.py",
        "    if args.no_timing:  # both sources: no seconds are projected from a zero time\n",
        "    if False:\n",
        "report --no-timing, simulating or on the published data, must project attempts only",
    ),
    Mutant(
        "write-straight-into-out", "cli.py",
        'staged = {name: out / f".{name}.{os.getpid()}.part" for name in encoded}',
        "staged = {name: out / name for name in encoded}",
        "a write that fails part-way would leave --out other than it was",
    ),
    Mutant(
        "staging-left-on-failure", "cli.py",
        "            part.unlink(missing_ok=True)\n",
        "            pass\n",
        "a write that fails part-way would leave the files staged before it in --out",
    ),
    Mutant(
        "empty-column-runs-on", "simulate.py",
        "            if first + trials > config.iterations and not any(column_completed):\n",
        "            if False:\n",
        "a column with no completed trial would fail the run only after every longer column ran",
    ),
    Mutant(
        "published-trial-row", "data/published_trials.csv",
        "4,4,3679657,10.124\n",
        "4,4,3679657,10.123\n",
        "each average row of the published matrix is the mean of its ten trial rows",
    ),
)

EQUIVALENT = (
    Mutant("bundled-data-locale-encoding", "data/__init__.py", ', encoding="utf-8") as f:',
           ") as f:", "the bundled files are ASCII: any locale's encoding, C's too, reads them"),
)


def check_anchors(mutants) -> list[str]:
    """One line per mutant whose old text does not occur exactly once."""
    problems = []
    for m in mutants:
        count = (ROOT / "src" / "monkeytyper" / m.path).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            problems.append(f"{m.name}: old text occurs {count} times in {m.path}")
    return problems


def run_suite(tree: Path, timeout: float) -> tuple[str, float]:
    """``passed``, ``failed`` or ``timeout`` for tier-1 with ``-x`` in ``tree``,
    and the seconds it took."""
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            p for p in (str(tree / "src"), os.environ.get("PYTHONPATH")) if p
        ),
        PYTHONDONTWRITEBYTECODE="1",  # a restored file must not meet a stale .pyc
    )
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    start = time.perf_counter()
    try:
        result = subprocess.run(argv, cwd=tree, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    return ("passed" if result.returncode == 0 else "failed"), time.perf_counter() - start


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for m in MUTANTS:
            print(f"{m.name}: {m.why}")
        return 0
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    problems = check_anchors(MUTANTS + EQUIVALENT)
    for line in problems:
        print(line)
    if problems:
        return 1
    selected = [m for m in MUTANTS if not argv or m.name in argv]
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
                shutil.copytree(source, tree / name, ignore=ignore)
            else:
                shutil.copy2(source, tree / name)
        outcome, baseline = run_suite(tree, BASELINE_TIMEOUT_S)
        if outcome != "passed":
            print("the unmutated suite does not pass; no mutant can be judged")
            return 1
        timeout = 5 * baseline + 30
        print(f"unmutated suite passed in {baseline:.1f} s; each mutant is cut at {timeout:.0f} s")
        survivors = []
        for m in selected:
            path = tree / "src" / "monkeytyper" / m.path
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(m.old, m.new), encoding="utf-8")
            try:
                outcome, seconds = run_suite(tree, timeout)
            finally:
                path.write_text(original, encoding="utf-8")
            verdict = "SURVIVED" if outcome == "passed" else f"killed ({outcome})"
            print(f"{m.name}: {verdict} in {seconds:.1f} s", flush=True)
            if outcome == "passed":
                survivors.append(m)
    for m in survivors:
        print(f"survivor {m.name} ({m.path}): {m.why}")
    print(f"{len(selected) - len(survivors)} of {len(selected)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
