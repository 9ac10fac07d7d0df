"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the root of the checkout):

    python3 bench/spread.py --workload odds --workload pipeline \
        --seeds 1,2,3,4,5,6,7,8,9,10 --seconds 25 [--trace 1] [--out FILE]

Runs are sequential, one process at a time. For each workload and metric it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread, (Q3 - Q1) / median, next to the metric's bound in
``BENCHMARK.json``. ``--out`` writes the same figures, the raw values and the
environment as JSON. Exits 1 if any run failed or reported ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "bench" / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    result["exit_code"] = proc.returncode
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    ok = True
    report = {"seconds": args.seconds, "trace": args.trace, "seeds": seeds, "workloads": {}}
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            good = result.get("exit_code") == 0 and result.get("correct") is True
            ok &= good
            print(f"{workload} seed {seed}: {'ok' if good else 'FAILED'}", flush=True)
            for name, metric in result.get("metrics", {}).items():
                values.setdefault(name, []).append(metric["value"])
        summary = {name: summarize(v) for name, v in values.items() if len(v) > 1}
        report["workloads"][workload] = summary
        for name, s in summary.items():
            bound = bounds.get(name)
            limit = f"bound {bound:.2f}" if bound is not None else ""
            print(
                f"  {name:<44} median {s['median']:<12.6g} "
                f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f} {limit}"
            )
        env_file = ROOT / "bench" / "results" / f"{workload}_seed{seeds[-1]}_trace{args.trace}.json"
        if env_file.is_file():
            report["environment"] = json.loads(env_file.read_text())["environment"]

    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
