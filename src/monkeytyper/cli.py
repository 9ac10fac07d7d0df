"""Command-line front end: simulate | project | prob | census | report.

Every command that emits files writes them under ``--out`` together with a
``manifest.json`` recording the resolved configuration; re-running with that
configuration reproduces all attempt-count outputs byte-identically (timing
columns excluded, or zeroed up front with ``--no-timing``).

Seconds are projected only from base times that are all positive. When one
is zero or negative (``--no-timing`` zeroes them all; the published matrix
shows 0.000 s at prefix 1) attempts are still projected, but the seconds
and hours, ``seconds_log10.csv``, the time lines and any throughput figure
are left out, and stdout, ``summary.txt`` and the manifest say so. A
simulating ``report --no-timing`` is therefore byte-stable as a whole.

Each ``cmd_*`` only computes: it returns the manifest configuration, the
files by name, the stdout lines and then any stderr lines. :func:`main`
alone writes the files (when ``--out`` is set) and prints after that, once
it has checked that the console can encode every line, so a failing command
leaves nothing under ``--out`` and prints only its ``error:`` line.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Sequence
from pathlib import Path

from . import __version__, data
from .analysis import (
    JULIAN_YEAR_SECONDS,
    UNIVERSE_AGE_YEARS,
    TimeBreakdown,
    build_projection_table,
    census_lines,
    convert_time,
    corpus_census,
    expected_attempts,
    fit_growth_model,
    log10_series,
    success_probability,
)
from .model import (
    DEFAULT_ATTEMPT_BUDGET,
    LETTERS,
    LETTERS_AND_SPACE,
    Alphabet,
    MeasurementTable,
    ProjectionTable,
    TargetText,
    csv_text,
    read_measurement_csv,
)
from .scaled import ScaledDecimal

SUMMARY_DIGITS = 3  # headline values match the published 3-significant-figure style


def _parse_alphabet(spec: str) -> Alphabet:
    """A preset name (``letters``, ``letters+space``) or explicit symbols."""
    presets = {"letters": LETTERS, "letters+space": LETTERS_AND_SPACE}
    return presets[spec] if spec in presets else Alphabet(spec)


def _write_outputs(out_dir: str, command: str, config: dict, files: dict[str, str]) -> None:
    """Write ``files`` plus a ``manifest.json`` naming them all, as UTF-8.

    ``config`` may be a command's parsed flags: ``command``, ``func`` and
    ``out`` are dropped from what the manifest records. Every file is
    encoded, and no file path checked to be a directory, before ``out_dir``
    is created, so a failing encode or a directory in the way writes nothing.
    Each file is then staged under a hidden name in ``out_dir`` itself and
    renamed into place only once all are written, so a write that fails
    part-way (a full disk) leaves the files in ``out_dir`` as they were.
    """
    manifest = {
        "command": command,
        "version": __version__,
        "config": {k: v for k, v in config.items() if k not in ("command", "func", "out")},
        "outputs": sorted([*files, "manifest.json"]),
    }
    files = {**files, "manifest.json": json.dumps(manifest, indent=2, sort_keys=True) + "\n"}
    encoded = {name: text.encode("utf-8") for name, text in files.items()}
    out = Path(out_dir)
    if out.is_dir():  # one listing, which costs less than a stat per file
        with os.scandir(out) as entries:
            blocked = sorted(e.name for e in entries if e.name in encoded and e.is_dir())
        if blocked:
            raise IsADirectoryError(f"cannot write over the directory {out / blocked[0]}")
    out.mkdir(parents=True, exist_ok=True)
    staged = {name: out / f".{name}.{os.getpid()}.part" for name in encoded}
    try:
        for name, raw in encoded.items():
            staged[name].write_bytes(raw)
        for name, part in staged.items():
            os.replace(part, out / name)  # one directory, so one filesystem
    except BaseException:
        for part in staged.values():
            part.unlink(missing_ok=True)
        raise


def _paper_style(x: ScaledDecimal) -> str:
    """Comma-decimal 3-significant-figure table style, e.g. ``2,68E+69``."""
    mantissa, exponent = x.to_string(3).split("e")
    return f"{mantissa.replace('.', ',')}E{int(exponent):+03d}"


def _breakdown_lines(breakdown: TimeBreakdown) -> list[str]:
    fmt = lambda x: x.to_string(SUMMARY_DIGITS)  # noqa: E731
    return [
        f"estimated seconds: {fmt(breakdown.seconds)}",
        f"estimated hours:   {fmt(breakdown.hours)}",
        f"estimated years:   {fmt(breakdown.years)} (year = {JULIAN_YEAR_SECONDS:g} s)",
        f"universe ages:     {fmt(breakdown.universe_age_ratio)} "
        f"(universe age = {UNIVERSE_AGE_YEARS:g} years)",
    ]


#: What stdout, ``summary.txt`` and the manifest say when base times are not
#: all positive, so no seconds are projected.
SECONDS_OMITTED = "seconds projection omitted: a base time is not positive"


def _project(
    config: dict, files: dict[str, str], lines: list[str],
    attempts_base: Sequence[float], times_base: Sequence[float],
) -> ProjectionTable:
    """Fit growth factors and project to ``config["target"]``: the stage
    ``project`` and ``report`` share.

    Adds the projection CSV/JSON and the plot series to ``files`` and the
    printable lines to ``lines``, formatted as ``config["paper_style"]``
    says. Without a time growth factor there is no ``seconds_log10.csv``,
    one ``SECONDS_OMITTED`` line stands in for the time lines and ``config``
    records it under ``seconds_projection``.
    """
    model = fit_growth_model(attempts_base, times_base)
    table = build_projection_table(model, TargetText(config["target"]))
    fmt = _paper_style if config["paper_style"] else str
    attempts_pairs, seconds_pairs = log10_series(table)
    rows = table.to_json_rows(fmt)
    files["projection.csv"] = table.to_csv(rows)
    files["projection.json"] = json.dumps(rows, indent=2) + "\n"
    files["attempts_log10.csv"] = csv_text(("prefix_len", "log10_attempts"), attempts_pairs)
    final = table.final
    factors = f"growth factors: attempts {model.attempts_growth_factor:.3f}"
    attempts_line = (
        f"final row ({final.prefix_len} characters, {final.region}): "
        f"attempts {final.attempts.to_string(SUMMARY_DIGITS)}"
    )
    if model.time_growth_factor is None:
        lines += [factors, attempts_line, SECONDS_OMITTED]
        config["seconds_projection"] = SECONDS_OMITTED
    else:
        files["seconds_log10.csv"] = csv_text(("prefix_len", "log10_seconds"), seconds_pairs)
        lines += [
            f"{factors}, time {model.time_growth_factor:.3f}",
            attempts_line,
            *_breakdown_lines(convert_time(final.seconds)),
        ]
    return table


# -- simulate ---------------------------------------------------------------


def _simulate(config: dict, args, alphabet: Alphabet) -> tuple[MeasurementTable, str, list[str]]:
    """Run the trial matrix the flags describe.

    ``--extend-alphabet`` draws from ``alphabet`` plus the characters of the
    trialled prefixes it lacks. Returns the table, its ``measurements.csv``
    text (elapsed zeroed under ``--no-timing``) and the line naming the
    (iteration, prefix length) cells that hit their budget, if any.
    ``config`` records the stream version.
    """
    from .simulate import STREAM_VERSION, ExperimentConfig, run_experiment  # loads numpy
    config["stream_version"] = STREAM_VERSION
    if args.extend_alphabet:
        alphabet = alphabet.extended_with(args.target[: args.max_prefix])
    experiment = ExperimentConfig(
        target=TargetText(args.target),
        alphabet=alphabet,
        max_prefix_length=args.max_prefix,
        iterations=args.iterations,
        seed=args.seed,
        attempt_budget=args.budget,
        worker_count=args.workers,
    )
    table = run_experiment(experiment)
    incomplete = table.incomplete_cells()
    notes = [f"budget exhausted in cells: {incomplete}"] if incomplete else []
    return table, table.to_csv(include_timing=not args.no_timing), notes


def cmd_simulate(args) -> tuple:
    alphabet = _parse_alphabet(args.alphabet)
    config = {**vars(args), "alphabet": alphabet.symbols}
    _, measurements, notes = _simulate(config, args, alphabet)
    lines = [line for line in measurements.splitlines() if line.startswith(("test,", "average,"))]
    return config, {"measurements.csv": measurements}, lines, *notes


# -- project ----------------------------------------------------------------


def cmd_project(args) -> tuple:
    if args.measurements is not None:
        text = Path(args.measurements).read_text(encoding="utf-8-sig")
        lengths, attempts_base, times_base = read_measurement_csv(text)
        if lengths != list(range(1, len(lengths) + 1)):
            raise ValueError(
                f"{args.measurements}: prefix lengths must be exactly 1..k, got {lengths}"
            )
        source = str(args.measurements)
    else:
        lists = {"--attempts": args.attempts, "--times": args.times}
        for flag, text in lists.items():
            if not all(map(str.strip, text.split(","))):
                raise ValueError(f"{flag} has an empty field: {text!r}")
        attempts_base, times_base = ([float(v) for v in t.split(",")] for t in lists.values())
        source = "lists"
    config = {
        "target": args.target,
        "attempts_base": attempts_base,
        "times_base": times_base,
        "source": source,
        "paper_style": args.paper_style,
    }
    files, lines = {}, []
    _project(config, files, lines, attempts_base, times_base)
    return config, files, lines


# -- prob ---------------------------------------------------------------------


def cmd_prob(args) -> tuple:
    probability = success_probability(args.alphabet_size, args.length)
    attempts = expected_attempts(args.alphabet_size, args.length)
    lines = [
        f"alphabet size: {args.alphabet_size}",
        f"text length: {args.length}",
        f"success probability: {probability}",
        f"expected attempts: {attempts}",
    ]
    return vars(args), {"prob.txt": "\n".join(lines) + "\n"}, lines


# -- census -------------------------------------------------------------------


def _census_lines(counts: dict[str, int], source: str) -> list[str]:
    return [f"census of {source}:"] + ["  " + line for line in census_lines(counts)]


def cmd_census(args) -> tuple:
    if args.bundled_hamlet:
        text, source = data.hamlet_soliloquy(), "bundled soliloquy"
    else:
        text, source = Path(args.file).read_text(encoding="utf-8-sig"), str(args.file)
    lines = _census_lines(corpus_census(text), source)
    config = {
        "source": "bundled-hamlet" if args.bundled_hamlet else str(args.file),
        "expected_count": data.PUBLISHED_SOLILOQUY_LENGTH,
    }
    return config, {"census.txt": "\n".join(lines) + "\n"}, lines


# -- report -------------------------------------------------------------------


def cmd_report(args) -> tuple:
    alphabet = _parse_alphabet(args.alphabet)
    config = {**vars(args), "alphabet": alphabet.symbols}
    files: dict[str, str] = {}
    odds = [  # first, so a bad --prob-alphabet-size fails before any trial
        f"success probability ({args.prob_alphabet_size} symbols, {n} chars): "
        f"{success_probability(args.prob_alphabet_size, n).to_string(SUMMARY_DIGITS)}"
        for n in (len(args.target), data.PUBLISHED_SOLILOQUY_LENGTH)
    ]

    if args.use_paper_data:
        published = data.published_averages()
        attempts_base, times_base = published["attempts"], published["seconds"]
        summary = ["base data: published per-prefix averages (ten trials, prefixes 1..5)"]
    else:
        table, files["measurements.csv"], notes = _simulate(config, args, alphabet)
        attempts_base, times_base = table.attempts_averages, table.time_averages
        summary = [
            f"base data: fresh simulation, seed {args.seed}, "
            f"{args.iterations} iterations, prefixes 1..{args.max_prefix}",
            *notes,
        ]
    if args.no_timing:  # both sources: no seconds are projected from a zero time
        times_base = [0.0] * len(times_base)

    summary.append(f"projection target: {args.target!r} ({len(args.target)} characters)")
    projection = _project(config, files, summary, attempts_base, times_base)
    timed = projection.final.seconds is not None
    if timed and args.use_paper_data and args.target == data.HAMLET_PHRASE:
        summary.append(
            "for reference, the published study quotes 9.32e55 years and 6.75e45 "
            "universe ages for this seconds value; neither follows from any "
            "standard year length, so both are reported verbatim, not reproduced."
        )

    summary += odds

    if timed and not args.use_paper_data:
        # the longest column's candidates per trial second: both averages
        # divide its totals by the same count of completed trials
        rate = attempts_base[-1] / times_base[-1]
        implied = projection.final.attempts / rate
        summary.append(
            f"measured throughput: {rate:.3e} candidates/s at length {args.max_prefix}; "
            f"throughput-implied seconds for the full target: {implied.to_string(SUMMARY_DIGITS)}"
        )

    summary += _census_lines(corpus_census(data.hamlet_soliloquy()), "bundled soliloquy")
    files["summary.txt"] = "\n".join(summary) + "\n"
    return config, files, summary


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
        help="zero the measured (or, with --use-paper-data, the published) times "
        "for byte-stable output; report then projects attempts only",
    )
    parser.add_argument(
        "--extend-alphabet",
        action="store_true",
        help="append the characters of the trialled prefixes the alphabet lacks",
    )


def _add_paper_style_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--paper-style",
        action="store_true",
        help="format numbers like the published tables (3 digits, comma decimal)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser: ``parse_args`` leaves it unchanged, and so must callers.

    Only in-process callers of :func:`main` gain (the ``pipeline`` benchmark,
    the tests, embedders): a one-shot command line builds it once either way.
    """
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
    _add_paper_style_flag(proj)
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
    _add_paper_style_flag(report)
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
        config, files, lines, *warnings = args.func(args)
        # Lines the console cannot encode fail here, before any file is
        # written; an io.StringIO has no encoding and takes any text.
        for stream, text in ((sys.stdout, lines), (sys.stderr, warnings)):
            if getattr(stream, "encoding", None):
                errors = getattr(stream, "errors", None) or "strict"
                "\n".join(text).encode(stream.encoding, errors)
        if args.out is not None:
            _write_outputs(args.out, args.command, config, files)
        print("\n".join(lines))
        for warning in warnings:
            print(warning, file=sys.stderr)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
