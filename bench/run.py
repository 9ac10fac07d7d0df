"""Run one benchmark workload against the monkeytyper sources in this checkout.

Usage (from the root of the checkout):

    python3 bench/run.py --workload trials-long --seed 42 --seconds 25 --trace 0

Workloads: trials-long, trials-short, pipeline, odds (see workloads.py).
Each runs as a closed loop from one process with ``worker_count=1``: one
checked warm-up operation, then operations back to back for ``--seconds``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` patches the
package's public functions (tracing.py) and prints the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. The run also
writes ``bench/results/<workload>_seed<seed>_trace<t>.json`` with the
environment and output digests, and a traced run writes its spans to
``bench/results/spans_<workload>_seed<seed>.csv.gz``. The exit code is 0
when every output check passed, 1 when one failed and 2 when the program
cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import OP_SPAN, Tracer

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "bench" / "results"

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPEATS = 5

# The work that op_ms_* normalises one operation to, per workload, so that an
# operation's time does not depend on how lucky the seed's trials were.
OP_SIZE = {
    "trials-long": (1e6, "1e6 candidates"),
    "trials-short": (1e3, "1e3 trials"),
    "pipeline": (1, "report call"),
    "odds": (1, "odds pass"),
}

SPAN_METRICS = [
    ("simulate.draw_codes.calls", "calls", "simulate.draw_codes"),
    ("simulate.draw_codes.self_s", "self_s", "simulate.draw_codes"),
    ("simulate.run_prefix_trial.calls", "calls", "simulate.run_prefix_trial"),
    ("simulate.run_prefix_trial.self_s", "self_s", "simulate.run_prefix_trial"),
    ("simulate.derive_trial_seed.calls", "calls", "simulate.derive_trial_seed"),
    ("simulate.derive_trial_seed.self_s", "self_s", "simulate.derive_trial_seed"),
    ("simulate.RngStream.setup_s", "self_s", "simulate.RngStream.setup"),
    ("simulate.run_experiment.self_s", "self_s", "simulate.run_experiment"),
    ("model.MeasurementTable.from_trials.self_s", "self_s", "model.MeasurementTable.from_trials"),
    ("model.ProjectionTable.to_csv.self_s", "self_s", "model.ProjectionTable.to_csv"),
    ("model.ProjectionTable.to_json_rows.self_s", "self_s", "model.ProjectionTable.to_json_rows"),
    ("scaled.scaled_int_pow.calls", "calls", "scaled.scaled_int_pow"),
    ("scaled.scaled_int_pow.self_s", "self_s", "scaled.scaled_int_pow"),
    ("scaled.ScaledDecimal.ops", "calls", "scaled.ScaledDecimal"),
    ("scaled.ScaledDecimal.self_s", "self_s", "scaled.ScaledDecimal"),
    ("analysis.fit_growth_model.self_s", "self_s", "analysis.fit_growth_model"),
    ("analysis.build_projection_table.self_s", "self_s", "analysis.build_projection_table"),
    ("analysis.success_probability.self_s", "self_s", "analysis.success_probability"),
    ("analysis.expected_attempts.self_s", "self_s", "analysis.expected_attempts"),
    ("analysis.corpus_census.self_s", "self_s", "analysis.corpus_census"),
    ("analysis.log10_series.self_s", "self_s", "analysis.log10_series"),
    ("data.published_averages.self_s", "self_s", "data.published_averages"),
    ("data.hamlet_soliloquy.self_s", "self_s", "data.hamlet_soliloquy"),
    ("cli.main.self_s", "self_s", "cli.main"),
]


def closed_loop(workload, seconds: float, worker_count: int = 1, tracer=None):
    """Run checked operations back to back for ``seconds``, at least one.

    Returns ``(elapsed seconds, Outcome)`` per operation; only ``run`` is
    inside the timed region.
    """
    samples = []
    end = time.perf_counter() + seconds
    while True:
        prepared = workload.prepare()
        start = time.perf_counter()
        if tracer is None:
            result = workload.run(prepared, worker_count)
        else:
            result = tracer.op(workload.run, prepared, worker_count)
        elapsed = time.perf_counter() - start
        samples.append((elapsed, workload.check(prepared, result)))
        if time.perf_counter() >= end:
            return samples


def op_ms(name: str, samples) -> list[float]:
    """Milliseconds per OP_SIZE unit of work, one value per operation."""
    size = OP_SIZE[name][0]
    return [elapsed * 1e3 * size / outcome.work for elapsed, outcome in samples]


def p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20)[-1] if len(values) > 1 else values[0]


def measure_setup(name: str, seed: int) -> float:
    """Median wall time of a fresh interpreter that imports and builds inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(ROOT / "bench" / "setup_probe.py"), name, str(seed)],
            cwd=ROOT,
            check=True,
            capture_output=True,  # waiting on pipes, not by polling, keeps the timing exact
            timeout=120,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "seed": seed,
    }


def end_to_end(name: str, seed: int, workload, seconds: float):
    """Untraced run: (gated metrics, named figures, samples)."""
    setup_s = measure_setup(name, seed)
    samples = closed_loop(workload, seconds)
    elapsed = [e for e, _ in samples]
    per_op = op_ms(name, samples)
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "work_per_s": (sum(o.work for _, o in samples) / sum(elapsed), "1/s"),
    }
    named = {
        "op_ms_p50": (statistics.median(per_op), "ms"),
        "op_ms_p95": (p95(per_op), "ms"),
    }
    if isinstance(workload, workloads.TrialsWorkload):
        for key in ("candidates", "trials"):
            total = sum(o.extra[key] for _, o in samples)
            named[f"{key}_per_s"] = (total / sum(elapsed), "1/s")
    elif isinstance(workload, workloads.PipelineWorkload):
        ms = [e * 1e3 for e in elapsed]
        named["report_ms_p50"] = (statistics.median(ms), "ms")
        named["report_ms_p95"] = (p95(ms), "ms")
        named["report_calls_beyond_p95"] = (sum(v > named["report_ms_p95"][0] for v in ms), "count")
    else:
        named["odds_pass_s"] = (statistics.median(elapsed), "s")
    named["setup_s"] = metrics["setup_s"]
    named["peak_rss_mb"] = metrics["peak_rss_mb"]
    return metrics, named, samples


def per_layer(name: str, program, workload, seconds: float, spans_path: Path):
    """Traced run: (per-layer metrics, named figures, samples)."""
    # Rounds of one untraced, one traced and (trial workloads only) one
    # worker_count=2 operation, so that every ratio compares neighbouring
    # operations and slow spells of a shared host cancel out.
    trials = isinstance(workload, workloads.TrialsWorkload)
    tracer = Tracer(program)
    untraced, traced, workers2 = [], [], []
    end = time.perf_counter() + seconds
    while True:
        untraced += closed_loop(workload, 0)
        with tracer:
            traced += closed_loop(workload, 0, tracer=tracer)
        if trials:
            workers2 += closed_loop(workload, 0, worker_count=2)
        if time.perf_counter() >= end:
            break
    tracer.write_spans(spans_path)
    samples = untraced + traced + workers2

    def paired(a, b):  # median over rounds of a's time / b's time
        return statistics.median(x / y for x, y in zip(op_ms(name, a), op_ms(name, b)))

    ops = len(traced)
    calls, self_s = tracer.calls_and_self_seconds()
    metrics = {}
    for metric, kind, span in SPAN_METRICS:
        if kind == "calls":
            metrics[metric] = (calls[span] / ops, "count")
        else:
            metrics[metric] = (self_s.get(span, 0.0) / ops, "s")
    counts = tracer.counts
    metrics["simulate.draw_codes.symbols"] = (counts["symbols"] / ops, "count")
    metrics["simulate.useful_ratio"] = (
        counts["attempts"] / counts["rows_drawn"] if counts["rows_drawn"] else 0.0,
        "ratio",
    )
    # 0 where not measured: only the trial workloads call run_experiment.
    speedup = paired(untraced, workers2) if trials else 0.0
    metrics["simulate.run_experiment.workers2_speedup"] = (speedup, "x")
    for key, unit in (("files_written", "count"), ("bytes_written", "B")):
        metrics[f"cli.{key}"] = (sum(o.extra.get(key, 0) for _, o in traced) / ops, unit)
    metrics["trace.overhead_ratio"] = (paired(traced, untraced), "x")
    named = {
        "traced_operations": (ops, "count"),
        f"{OP_SPAN}.self_s": (self_s.get(OP_SPAN, 0.0) / ops, "s"),
    }
    return metrics, named, samples


def _as_json(figures: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in figures.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64 or args.seconds <= 0:
        parser.error("--seed must be an unsigned 64-bit integer and --seconds positive")

    try:
        program = workloads.load_program(ROOT)
    except (workloads.ProgramMissing, ImportError) as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2

    workload = workloads.build(args.workload, program, args.seed, ROOT)
    warm_up = closed_loop(workload, 0)  # checked; its outputs are the reference
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    if args.trace:
        spans_path = RESULTS / f"spans_{args.workload}_seed{args.seed}.csv.gz"
        metrics, named, samples = per_layer(
            args.workload, program, workload, args.seconds, spans_path
        )
    else:
        metrics, named, samples = end_to_end(args.workload, args.seed, workload, args.seconds)
    samples = warm_up + samples

    attempted = sum(o.attempted for _, o in samples)
    failed = sum(o.failed for _, o in samples)
    named["failed_frac"] = (failed / attempted, "ratio")
    correct = failed == 0
    env = environment(args.seed)
    digest = workload.digest()
    extra_checks = getattr(workload, "bands", None)

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(
        f"{len(samples)} operations ({len(warm_up)} warm-up), "
        f"{attempted} checked, {failed} failed; one op_ms unit = {OP_SIZE[args.workload][1]}"
    )
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"output digest: {digest} (recorded, not gated)")
    if extra_checks:
        for n, (ratio, lo, hi) in extra_checks.items():
            print(f"  n={n}: pooled mean / 53^n = {ratio:.4f}, band [{lo:.4f}, {hi:.4f}]")
    for key, (value, unit) in {**named, **metrics}.items():
        print(f"  {key:<44} {value:>14.6g} {unit}")

    RESULTS.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "digest": digest,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "operations": len(samples),
        "metrics": _as_json(metrics),
        "named": _as_json(named),
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": _as_json(metrics),
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
