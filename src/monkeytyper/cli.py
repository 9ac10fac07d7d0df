"""Command-line front end: simulate | project | prob | census | report.

Every command that emits files writes them under ``--out`` together with a
``manifest.json`` recording the resolved configuration; re-running with that
configuration reproduces all attempt-count outputs byte-identically (timing
columns excluded, or zeroed up front with ``--no-timing``). ``--no-timing``
zeroes only ``measurements.csv``: a simulating ``report`` still projects its
seconds, hours, ``seconds_log10.csv`` and summary time lines from the trial
clocks, so those differ from run to run. Files are written only once the
command's computation has succeeded, so a failing command leaves nothing
under ``--out``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__, data
from .analysis import (
    JULIAN_YEAR_SECONDS,
    UNIVERSE_AGE_YEARS,
    CensusReport,
    TimeBreakdown,
    build_projection_table,
    convert_time,
    corpus_census,
    expected_attempts,
    fit_growth_model,
    log10_series,
    success_probability,
)
from .model import (
    LETTERS,
    LETTERS_AND_SPACE,
    Alphabet,
    GrowthModel,
    MeasurementTable,
    ProjectionTable,
    TargetText,
    read_measurement_csv,
)
from .scaled import ScaledDecimal
from .simulate import (
    DEFAULT_ATTEMPT_BUDGET,
    STREAM_VERSION,
    ExperimentConfig,
    measure_throughput,
    run_experiment,
)

SUMMARY_DIGITS = 3  # headline values match the published 3-significant-figure style


def _parse_alphabet(spec: str) -> Alphabet:
    """A preset name (``letters``, ``letters+space``) or explicit symbols."""
    presets = {"letters": LETTERS, "letters+space": LETTERS_AND_SPACE}
    return presets[spec] if spec in presets else Alphabet(spec)


def _write_outputs(out_dir: str, command: str, config: dict, files: dict[str, str]) -> None:
    """Create ``out_dir`` and write ``files`` plus a ``manifest.json`` naming them all.

    ``config`` may be a command's parsed flags: ``command``, ``func`` and
    ``out`` are dropped from what the manifest records.
    """
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (path / name).write_text(text)
    manifest = {
        "command": command,
        "version": __version__,
        "config": {k: v for k, v in config.items() if k not in ("command", "func", "out")},
        "outputs": sorted([*files, "manifest.json"]),
    }
    (path / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _paper_style(x: ScaledDecimal) -> str:
    """Comma-decimal 3-significant-figure table style, e.g. ``2,68E+69``."""
    mantissa, exponent = x.to_string(3).split("e")
    return f"{mantissa.replace('.', ',')}E{int(exponent):+03d}"


def _series_csv(pairs: list[tuple[int, float]], column: str) -> str:
    lines = [f"prefix_len,{column}"]
    lines += [f"{n},{repr(value)}" for n, value in pairs]
    return "\n".join(lines) + "\n"


def _breakdown_lines(breakdown: TimeBreakdown) -> list[str]:
    fmt = lambda x: x.to_string(SUMMARY_DIGITS)  # noqa: E731
    return [
        f"estimated seconds: {fmt(breakdown.seconds)}",
        f"estimated hours:   {fmt(breakdown.hours)}",
        f"estimated years:   {fmt(breakdown.years)} (year = {JULIAN_YEAR_SECONDS:g} s)",
        f"universe ages:     {fmt(breakdown.universe_age_ratio)} "
        f"(universe age = {UNIVERSE_AGE_YEARS:g} years)",
    ]


def _projection_outputs(
    table: ProjectionTable, model: GrowthModel, paper_style: bool
) -> tuple[dict[str, str], list[str]]:
    """Projection CSV/JSON and the plot series by file name, and printable lines."""
    fmt = _paper_style if paper_style else str
    attempts_pairs, seconds_pairs = log10_series(table)
    files = {
        "projection.csv": table.to_csv(fmt),
        "projection.json": json.dumps(table.to_json_rows(fmt), indent=2) + "\n",
        "attempts_log10.csv": _series_csv(attempts_pairs, "log10_attempts"),
        "seconds_log10.csv": _series_csv(seconds_pairs, "log10_seconds"),
    }
    final = table.final
    lines = [
        f"growth factors: attempts {model.attempts_growth_factor:.3f}, "
        f"time {model.time_growth_factor:.3f}",
        f"final row ({final.prefix_len} characters, {final.region}): "
        f"attempts {final.attempts.to_string(SUMMARY_DIGITS)}",
        *_breakdown_lines(convert_time(final.seconds)),
    ]
    return files, lines


# -- simulate ---------------------------------------------------------------


def _simulate(args, alphabet: Alphabet) -> tuple[MeasurementTable, Alphabet]:
    """Run the trial matrix the flags describe; return it and the alphabet drawn from.

    ``--extend-alphabet`` appends the characters of the trialled prefixes
    that ``alphabet`` lacks.
    """
    if args.extend_alphabet:
        alphabet = alphabet.extended_with(args.target[: args.max_prefix])
    config = ExperimentConfig(
        target=TargetText(args.target),
        alphabet=alphabet,
        max_prefix_length=args.max_prefix,
        iterations=args.iterations,
        seed=args.seed,
        attempt_budget=args.budget,
        worker_count=args.workers,
    )
    return run_experiment(config), alphabet


def cmd_simulate(args) -> int:
    alphabet = _parse_alphabet(args.alphabet)
    table, _ = _simulate(args, alphabet)
    csv_text = table.to_csv(include_timing=not args.no_timing)
    config = {**vars(args), "alphabet": alphabet.symbols, "stream_version": STREAM_VERSION}
    _write_outputs(args.out, "simulate", config, {"measurements.csv": csv_text})

    for line in csv_text.splitlines():
        if line.startswith("test,") or line.startswith("average,"):
            print(line)
    incomplete = table.incomplete_cells()
    if incomplete:
        print(f"budget exhausted in {len(incomplete)} cell(s): {incomplete}", file=sys.stderr)
    return 0


# -- project ----------------------------------------------------------------


def _parse_float_list(text: str) -> list[float]:
    values = [float(part) for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError(f"expected a comma-separated list of numbers, got {text!r}")
    return values


def cmd_project(args) -> int:
    if args.measurements is not None:
        csv_text = Path(args.measurements).read_text()
        lengths, attempts_base, times_base = read_measurement_csv(csv_text)
        if lengths != list(range(1, len(lengths) + 1)):
            raise ValueError(
                f"{args.measurements}: prefix lengths must be exactly 1..k, got {lengths}"
            )
        source = str(args.measurements)
    else:
        attempts_base = _parse_float_list(args.attempts)
        times_base = _parse_float_list(args.times)
        source = "lists"
    model = fit_growth_model(attempts_base, times_base)
    table = build_projection_table(model, TargetText(args.target))
    files, lines = _projection_outputs(table, model, args.paper_style)
    config = {
        "target": args.target,
        "attempts_base": attempts_base,
        "times_base": times_base,
        "source": source,
        "paper_style": args.paper_style,
    }
    _write_outputs(args.out, "project", config, files)
    print("\n".join(lines))
    return 0


# -- prob ---------------------------------------------------------------------


def cmd_prob(args) -> int:
    probability = success_probability(args.alphabet_size, args.length)
    attempts = expected_attempts(args.alphabet_size, args.length)
    lines = [
        f"alphabet size: {args.alphabet_size}",
        f"text length: {args.length}",
        f"success probability: {probability}",
        f"expected attempts: {attempts}",
    ]
    print("\n".join(lines))
    if args.out is not None:
        _write_outputs(args.out, "prob", vars(args), {"prob.txt": "\n".join(lines) + "\n"})
    return 0


# -- census -------------------------------------------------------------------


def _census_lines(report: CensusReport, source: str) -> list[str]:
    return [f"census of {source}:"] + ["  " + line for line in report.lines()]


def cmd_census(args) -> int:
    if args.bundled_hamlet:
        text = data.hamlet_soliloquy()
        source = "bundled soliloquy"
    else:
        text = Path(args.file).read_text()
        source = str(args.file)
    report = corpus_census(text)
    lines = _census_lines(report, source)
    print("\n".join(lines))
    if args.out is not None:
        config = {
            "source": "bundled-hamlet" if args.bundled_hamlet else str(args.file),
            "expected_count": data.PUBLISHED_SOLILOQUY_LENGTH,
        }
        _write_outputs(args.out, "census", config, {"census.txt": "\n".join(lines) + "\n"})
    return 0


# -- report -------------------------------------------------------------------


def cmd_report(args) -> int:
    alphabet = _parse_alphabet(args.alphabet)
    config = {**vars(args), "alphabet": alphabet.symbols}
    files: dict[str, str] = {}
    summary: list[str] = []

    if args.use_paper_data:
        published = data.published_averages()
        attempts_base = [float(v) for v in published["attempts"]]
        times_base = [float(v) for v in published["seconds"]]
        summary.append("base data: published per-prefix averages (ten trials, prefixes 1..5)")
    else:
        # from here on, the alphabet the trials drew from (the manifest
        # keeps the parsed one)
        table, alphabet = _simulate(args, alphabet)
        config["stream_version"] = STREAM_VERSION
        files["measurements.csv"] = table.to_csv(include_timing=not args.no_timing)
        attempts_base = list(table.attempts_averages)
        times_base = list(table.time_averages)
        summary.append(
            f"base data: fresh simulation, seed {args.seed}, "
            f"{args.iterations} iterations, prefixes 1..{args.max_prefix}"
        )
        incomplete = table.incomplete_cells()
        if incomplete:
            summary.append(f"budget exhausted in cells: {incomplete}")

    target = TargetText(args.target)
    model = fit_growth_model(attempts_base, times_base)
    projection = build_projection_table(model, target)
    summary.append(f"projection target: {target.text!r} ({target.length} characters)")
    projection_files, projection_lines = _projection_outputs(projection, model, args.paper_style)
    files.update(projection_files)
    summary += projection_lines

    summary.append(
        "for reference, the published study quotes 9.32e55 years and 6.75e45 "
        "universe ages for this seconds value; neither follows from any "
        "standard year length, so both are reported verbatim, not reproduced."
    )

    for n in (target.length, data.PUBLISHED_SOLILOQUY_LENGTH):
        p = success_probability(args.prob_alphabet_size, n)
        summary.append(
            f"success probability ({args.prob_alphabet_size} symbols, {n} chars): "
            f"{p.to_string(SUMMARY_DIGITS)}"
        )

    if not args.use_paper_data:
        rate = measure_throughput(alphabet, args.max_prefix, duration_seconds=0.2)
        implied = projection.final.attempts / rate
        summary.append(
            f"measured throughput: {rate:.3e} candidates/s at length {args.max_prefix}; "
            f"throughput-implied seconds for the full target: {implied.to_string(SUMMARY_DIGITS)}"
        )

    summary += _census_lines(corpus_census(data.hamlet_soliloquy()), "bundled soliloquy")

    text = "\n".join(summary) + "\n"
    _write_outputs(args.out, "report", config, {**files, "summary.txt": text})
    print(text, end="")
    return 0


# -- parser -------------------------------------------------------------------


def _add_simulation_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--target", default=data.HAMLET_PHRASE, help="target text")
    parser.add_argument(
        "--alphabet",
        default="letters+space",
        help="preset name (letters, letters+space) or explicit symbols",
    )
    parser.add_argument("--max-prefix", type=int, default=5, help="longest prefix to trial")
    parser.add_argument("--iterations", type=int, default=10, help="trials per prefix length")
    parser.add_argument("--seed", type=int, default=42, help="experiment seed")
    parser.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_ATTEMPT_BUDGET,
        help="attempt cap per trial (0 disables the cap)",
    )
    parser.add_argument("--workers", type=int, default=1, help="concurrent trial workers")
    parser.add_argument(
        "--no-timing",
        action="store_true",
        help="zero measurements.csv's elapsed column for byte-stable output "
        "(report still projects seconds from the trial clocks)",
    )
    parser.add_argument(
        "--extend-alphabet",
        action="store_true",
        help="append the characters of the trialled prefixes the alphabet lacks",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monkeytyper",
        description="Random-typing trials, growth-factor projections, and exact odds.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", help="run the prefix-trial experiment matrix")
    _add_simulation_flags(sim)
    sim.add_argument("--out", default="out", help="output directory")
    sim.set_defaults(func=cmd_simulate)

    proj = commands.add_parser("project", help="fit growth factors and extrapolate")
    source = proj.add_mutually_exclusive_group(required=True)
    source.add_argument("--measurements", help="measurements CSV to read base averages from")
    source.add_argument("--attempts", help="comma-separated attempts base list")
    proj.add_argument("--times", help="comma-separated seconds base list")
    proj.add_argument("--target", default=data.HAMLET_PHRASE, help="target text")
    proj.add_argument(
        "--paper-style",
        action="store_true",
        help="format numbers like the published tables (3 digits, comma decimal)",
    )
    proj.add_argument("--out", default="out", help="output directory")
    proj.set_defaults(func=cmd_project)

    prob = commands.add_parser("prob", help="exact success probability and expected attempts")
    prob.add_argument("--alphabet-size", type=int, required=True)
    prob.add_argument("--length", type=int, required=True)
    prob.add_argument("--out", help="optionally write prob.txt and a manifest here")
    prob.set_defaults(func=cmd_prob)

    census = commands.add_parser("census", help="character census under several normalizations")
    group = census.add_mutually_exclusive_group(required=True)
    group.add_argument("--file", help="text file to count")
    group.add_argument(
        "--bundled-hamlet",
        action="store_true",
        help="count the bundled 1,520-character soliloquy",
    )
    census.add_argument("--out", help="optionally write census.txt and a manifest here")
    census.set_defaults(func=cmd_census)

    report = commands.add_parser("report", help="full pipeline: simulate, project, prob, census")
    _add_simulation_flags(report)
    report.add_argument(
        "--use-paper-data",
        action="store_true",
        help="project from the bundled published averages instead of simulating",
    )
    report.add_argument(
        "--paper-style",
        action="store_true",
        help="format numbers like the published tables (3 digits, comma decimal)",
    )
    report.add_argument(
        "--prob-alphabet-size",
        type=int,
        default=52,
        help="alphabet size for the probability lines",
    )
    report.add_argument("--out", default="out", help="output directory")
    report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "budget", None) == 0:
        args.budget = None
    if args.command == "project" and (args.attempts is None) != (args.times is None):
        parser.error("--attempts and --times must be given together")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
