import collections
import csv
import decimal
import io
import json
import re
import shlex
import string
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import GOLDEN, ROOT, process_env
from monkeytyper import (
    Alphabet,
    ProjectionTable,
    ScaledDecimal,
    TargetText,
    TrialRecord,
    build_projection_table,
    cli,
    fit_growth_model,
)
from monkeytyper.cli import main
from monkeytyper.model import PROJECTION_CSV_HEADER
from monkeytyper.simulate import ExperimentConfig, run_experiment

PUBLISHED_TRIALS = ROOT / "src/monkeytyper/data/published_trials.csv"
README = ROOT / "README.md"

TABLE_ARGS = [
    "--attempts",
    "60,3101,159174,8096722,345380940",
    "--times",
    "0.0001,0.006,0.36,22.355,1097.5",
]
TABLE_ATTEMPTS, TABLE_TIMES = ([float(v) for v in TABLE_ARGS[i].split(",")] for i in (1, 3))

# Targets of at least the five base characters, mixing what JSON or CSV must
# escape or quote with any character UTF-8 can encode (no lone surrogate).
HOSTILE_TARGETS = st.lists(
    st.one_of(
        st.sampled_from(['"', "\\", ",", "}, {", "\n", "\t", "\u2028", "é", "\U0001f648"]),
        st.characters(blacklist_categories=("Cs",)),
    ),
    min_size=5,
    max_size=45,
).map("".join)


# Every manifest key is pinned for one run of each file-emitting command.
MANIFEST_PINS = {
    "census": ["census", "--bundled-hamlet"],
    "prob": ["prob", "--alphabet-size", "2", "--length", "1"],
    "project": ["project", *TABLE_ARGS],
    "report": ["report", "--use-paper-data"],
    "simulate": ["simulate", "--target", "abab", "--alphabet", "ab", "--max-prefix", "3",
                 "--iterations", "5", "--seed", "21", "--no-timing"],
}


def run(argv):
    return main([str(a) for a in argv])


def run_process(argv, timeout=60, **env):
    """``monkeytyper argv`` as a fresh process, with ``env`` added to the environment."""
    return subprocess.run(
        [sys.executable, "-m", "monkeytyper.cli", *map(str, argv)],
        capture_output=True, text=True, env=process_env(**env), timeout=timeout,
    )


def read(out_dir, name):
    return (out_dir / name).read_text()


def throughput_line(out_dir, target):
    """The throughput line a timed simulating report must print: the rate
    is the last ``average`` row's attempts over its elapsed seconds."""
    rows = list(csv.reader(read(out_dir, "measurements.csv").splitlines()))
    averages = [row for row in rows if row[0] == "average"]
    attempts, elapsed = float(averages[-1][2]), float(averages[-1][3])
    rate = attempts / elapsed
    model = fit_growth_model(*([float(row[i]) for row in averages] for i in (2, 3)))
    implied = build_projection_table(model, TargetText(target)).final.attempts / rate
    return (
        f"measured throughput: {rate:.3e} candidates/s at length "
        f"{len(averages)}; throughput-implied seconds for the full target: "
        f"{implied.to_string(cli.SUMMARY_DIGITS)}"
    )


class TestSimulate:
    def test_single_cell_run(self, tmp_path, capsys):
        code = run(
            ["simulate", "--target", "a", "--alphabet", "a", "--max-prefix", "1",
             "--iterations", "1", "--out", tmp_path]
        )
        assert code == 0
        csv_text = read(tmp_path, "measurements.csv")
        assert "1,1,1," in csv_text
        assert "average,1,1.0," in csv_text
        out = capsys.readouterr().out
        assert "average,1,1.0" in out

    def test_manifest_lists_every_output(self, tmp_path):
        run(["simulate", "--target", "a", "--alphabet", "a", "--max-prefix", "1",
             "--iterations", "1", "--out", tmp_path])
        manifest = json.loads(read(tmp_path, "manifest.json"))
        assert manifest["command"] == "simulate"
        assert sorted(manifest["outputs"]) == ["manifest.json", "measurements.csv"]
        for name in manifest["outputs"]:
            assert (tmp_path / name).exists()

    def test_manifest_records_stream_version(self, tmp_path):
        run(["simulate", "--target", "a", "--alphabet", "a", "--max-prefix", "1",
             "--iterations", "1", "--out", tmp_path])
        assert '"stream_version": 4' in read(tmp_path, "manifest.json")

    @pytest.mark.parametrize(
        "spec,symbols",
        [
            ("letters", string.ascii_letters),
            ("letters+space", string.ascii_letters + " "),
            ("ab", "ab"),
        ],
    )
    def test_alphabet_spec_resolves_to_symbols(self, tmp_path, spec, symbols):
        # a preset name, or else the explicit symbols
        run(["simulate", "--target", "ab", "--alphabet", spec, "--max-prefix", "1",
             "--iterations", "1", "--out", tmp_path])
        manifest = json.loads(read(tmp_path, "manifest.json"))
        assert manifest["config"]["alphabet"] == symbols

    def test_candidate_space_above_2_to_the_64_exits_2(self, tmp_path, capsys):
        # 53^12 > 2^64: no trial can finish, so nothing runs or is written
        code = run(
            ["simulate", "--target", "To be or not", "--alphabet", "letters+space",
             "--max-prefix", "12", "--budget", "5", "--out", tmp_path]
        )
        assert code == 2
        assert "2^64" in capsys.readouterr().err
        assert not (tmp_path / "measurements.csv").exists()

    def test_column_without_a_completed_trial_exits_2(self, tmp_path, capsys):
        # at seed 1 no trial finishes within 5 attempts, so a column mean
        # would be budget-capped counts averaged as if they had finished;
        # the run fails naming the column and writes nothing
        code = run(
            ["simulate", "--target", "To be", "--alphabet", "letters+space",
             "--max-prefix", "2", "--iterations", "3", "--budget", "5", "--seed", "1",
             "--out", tmp_path]
        )
        assert code == 2
        assert "prefix length 1 completed" in capsys.readouterr().err
        assert not (tmp_path / "measurements.csv").exists()

    def test_out_of_alphabet_character_named_in_diagnostic(self, tmp_path, capsys):
        code = run(
            ["simulate", "--alphabet", "letters+space", "--max-prefix", "8",
             "--iterations", "1", "--out", tmp_path]
        )
        assert code != 0
        assert "','" in capsys.readouterr().err

    def test_budget_capped_cells_worded_as_in_the_report(self, tmp_path, capsys):
        # one sentence for both commands: simulate prints it on stderr,
        # report in its summary
        flags = ["--target", "To be", "--alphabet", "letters+space", "--max-prefix", "2",
                 "--iterations", "50", "--seed", "42", "--budget", "3000", "--no-timing"]
        assert run(["simulate", *flags, "--out", tmp_path / "simulate"]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("budget exhausted in cells: [(")
        assert run(["report", *flags, "--out", tmp_path / "report"]) == 0
        assert err[0] in read(tmp_path / "report", "summary.txt").splitlines()

    def test_no_timing_runs_are_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            run(["simulate", "--target", "abab", "--alphabet", "ab", "--max-prefix", "3",
                 "--iterations", "5", "--seed", "7", "--no-timing",
                 "--out", tmp_path / sub])
        assert read(tmp_path / "a", "measurements.csv") == read(
            tmp_path / "b", "measurements.csv"
        )
        assert read(tmp_path / "a", "manifest.json") == read(
            tmp_path / "b", "manifest.json"
        )

    def test_matches_golden_measurements(self, tmp_path):
        # three n = 3 blocks (K_3 = 7), budget carry-over, 12 incomplete cells
        code = run(
            ["simulate", "--target", "To be", "--alphabet", "letters+space",
             "--max-prefix", "3", "--iterations", "20", "--seed", "42", "--budget", "100000",
             "--no-timing", "--out", tmp_path]
        )
        assert code == 0
        golden = (GOLDEN / "simulate" / "measurements.csv").read_bytes()
        assert (tmp_path / "measurements.csv").read_bytes() == golden

    @pytest.mark.parametrize("command", ["simulate", "report"])
    def test_builds_no_trial_records(self, tmp_path, monkeypatch, command):
        # the table's columns carry every output; rows of records are only
        # built when a caller asks for table.trials
        built = []
        monkeypatch.setattr(TrialRecord, "__post_init__", lambda rec: built.append(rec))
        code = run(
            [command, "--target", "To be", "--alphabet", "letters+space", "--max-prefix", "2",
             "--iterations", "30", "--seed", "3", "--out", tmp_path]
        )
        assert code == 0
        assert built == []

    def test_budget_zero_disables_the_cap(self, tmp_path):
        flags = ["--target", "ab", "--alphabet", "ab", "--max-prefix", "2",
                 "--iterations", "3", "--no-timing"]
        assert run(["simulate", *flags, "--budget", "0", "--out", tmp_path / "zero"]) == 0
        assert run(["simulate", *flags, "--out", tmp_path / "default"]) == 0
        assert '"budget": null' in read(tmp_path / "zero", "manifest.json")
        assert read(tmp_path / "zero", "measurements.csv") == read(
            tmp_path / "default", "measurements.csv"
        )

    def test_rerun_from_manifest_reproduces_attempts(self, tmp_path):
        run(["simulate", "--target", "abab", "--alphabet", "ab", "--max-prefix", "3",
             "--iterations", "4", "--seed", "99", "--no-timing", "--out", tmp_path / "a"])
        config = json.loads(read(tmp_path / "a", "manifest.json"))["config"]
        run(["simulate", "--target", config["target"], "--alphabet", config["alphabet"],
             "--max-prefix", config["max_prefix"], "--iterations", config["iterations"],
             "--seed", config["seed"], "--budget", config["budget"],
             "--workers", config["workers"], "--no-timing", "--out", tmp_path / "b"])
        assert read(tmp_path / "a", "measurements.csv") == read(
            tmp_path / "b", "measurements.csv"
        )

    def test_extend_alphabet_flag(self, tmp_path):
        code = run(
            ["simulate", "--target", "a,b.", "--alphabet", "ab", "--max-prefix", "3",
             "--iterations", "4", "--seed", "5", "--no-timing", "--extend-alphabet",
             "--out", tmp_path]
        )
        assert code == 0
        manifest = json.loads(read(tmp_path, "manifest.json"))
        assert manifest["config"]["extend_alphabet"] is True
        assert manifest["config"]["alphabet"] == "ab"
        # the flag is Alphabet.extended_with on the trialled prefixes, nothing more
        config = ExperimentConfig(
            target=TargetText("a,b."),
            alphabet=Alphabet("ab").extended_with("a,b"),
            max_prefix_length=3,
            iterations=4,
            seed=5,
        )
        expected = run_experiment(config).to_csv(include_timing=False)
        assert read(tmp_path, "measurements.csv") == expected


class TestProject:
    def test_from_lists_hits_published_projection(self, tmp_path, capsys):
        code = run(["project", *TABLE_ARGS, "--out", tmp_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "attempts 2.68e69" in out
        assert "8.18e62" in out
        for name in (
            "projection.csv",
            "projection.json",
            "attempts_log10.csv",
            "seconds_log10.csv",
            "manifest.json",
        ):
            assert (tmp_path / name).exists()

    def test_projection_files_agree(self, tmp_path):
        run(["project", *TABLE_ARGS, "--out", tmp_path])
        rows = json.loads(read(tmp_path, "projection.json"))
        assert len(rows) == 41
        assert rows[-1]["attempts"] == "2.680e69"
        csv_lines = read(tmp_path, "projection.csv").splitlines()
        assert len(csv_lines) == 42
        assert csv_lines[0] == "prefix_len,text_part,attempts,seconds,hours,region"
        series = read(tmp_path, "attempts_log10.csv").splitlines()
        assert series[0] == "prefix_len,log10_attempts"
        assert len(series) == 42

    def test_paper_style_formatting(self, tmp_path):
        run(["project", *TABLE_ARGS, "--paper-style", "--out", tmp_path])
        text = read(tmp_path, "projection.csv")
        assert "2,68E+69" in text
        assert "6,00E+01" in text
        # formatting switch only: same structure either way
        assert text.splitlines()[0] == "prefix_len,text_part,attempts,seconds,hours,region"

    def test_base_echo_without_extrapolation(self, tmp_path):
        run(["project", "--attempts", "1,2,4", "--times", "1,2,4", "--target", "abc",
             "--out", tmp_path])
        rows = json.loads(read(tmp_path, "projection.json"))
        assert [r["region"] for r in rows] == ["measured"] * 3
        assert [r["attempts"] for r in rows] == ["1.000e0", "2.000e0", "4.000e0"]

    @pytest.mark.parametrize(
        "flag, values, message",
        [
            ("--attempts", "1e-300,1e300", "[1e-300, 1e+300] is not finite"),
            ("--times", "1e-300,1e300", "[1e-300, 1e+300] is not finite"),
            ("--attempts", "1e300,1e-300", "[1e+300, 1e-300] is not positive"),
            ("--times", "1e300,1e-300", "[1e+300, 1e-300] is not positive"),
        ],
        ids=["--attempts", "--times", "--attempts-underflow", "--times-underflow"],
    )
    def test_overflowing_growth_factor_writes_nothing(
        self, tmp_path, capsys, flag, values, message
    ):
        # finite values whose ratio overflows once surfaced only as
        # "non-finite value Decimal('Infinity')", and one that underflows to a
        # zero factor as "growth factors must be positive"
        argv = ["project", "--attempts", "1,2", "--times", "1,2", "--out", tmp_path / "out"]
        argv[argv.index(flag) + 1] = values
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            f"error: the mean ratio of consecutive values {message}\n"
        )
        assert not (tmp_path / "out").exists()

    def test_from_measurements_file(self, tmp_path):
        run(["simulate", "--target", "abab", "--alphabet", "ab", "--max-prefix", "3",
             "--iterations", "5", "--seed", "11", "--out", tmp_path / "sim"])
        code = run(["project", "--measurements", tmp_path / "sim" / "measurements.csv",
                    "--target", "abab", "--out", tmp_path / "proj"])
        assert code == 0
        rows = json.loads(read(tmp_path / "proj", "projection.json"))
        assert len(rows) == 4

    @pytest.mark.parametrize("source", ["simulate-no-timing", "published-matrix"])
    def test_zero_base_times_project_attempts_only(self, tmp_path, capsys, source):
        # both once exited 2 on the zero time
        if source == "published-matrix":  # 0.000 s at prefix 1
            csv_path = PUBLISHED_TRIALS
            target, final = [], "attempts 2.68e69"
        else:
            run(["simulate", "--target", "abab", "--alphabet", "ab", "--max-prefix", "3",
                 "--iterations", "5", "--no-timing", "--out", tmp_path / "sim"])
            csv_path = tmp_path / "sim" / "measurements.csv"
            target, final = ["--target", "abab"], "attempts "
        capsys.readouterr()
        code = run(["project", "--measurements", csv_path, *target, "--out", tmp_path / "proj"])
        assert code == 0
        out = capsys.readouterr().out
        assert final in out
        assert cli.SECONDS_OMITTED in out.splitlines()
        assert ", time" not in out and "estimated" not in out
        manifest = json.loads(read(tmp_path / "proj", "manifest.json"))
        assert manifest["config"]["seconds_projection"] == cli.SECONDS_OMITTED
        assert manifest["outputs"] == [
            "attempts_log10.csv", "manifest.json", "projection.csv", "projection.json"
        ]
        rows = json.loads(read(tmp_path / "proj", "projection.json"))
        assert {(row["seconds"], row["hours"]) for row in rows} == {(None, None)}

    def test_measurements_with_a_gap_at_prefix_one_exit_2(self, tmp_path, capsys):
        csv_path = tmp_path / "measurements.csv"
        csv_path.write_text(
            "test,prefix_len,attempts,elapsed_seconds\naverage,2,4.0,0.1\naverage,3,16.0,0.4\n"
        )
        code = run(["project", "--measurements", csv_path, "--out", tmp_path / "proj"])
        assert code == 2
        err = capsys.readouterr().err
        assert "1..k" in err and "[2, 3]" in err
        assert not (tmp_path / "proj").exists()

    def test_measurements_must_start_at_prefix_one(self, tmp_path, capsys):
        # prefixes 3..5 once projected as if they were 1..3
        rows = ["test,prefix_len,attempts,elapsed_seconds,seed"]
        rows += [f"average,{n},{53.0**n},{0.001 * 53**n}," for n in (3, 4, 5)]
        csv_path = tmp_path / "measurements.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        code = run(["project", "--measurements", csv_path, "--out", tmp_path / "proj"])
        assert code == 2
        err = capsys.readouterr().err
        assert "prefix lengths" in err and "[3, 4, 5]" in err
        assert not (tmp_path / "proj" / "projection.json").exists()

    @pytest.mark.parametrize("source", ["lists", "measurements"])
    @pytest.mark.parametrize(
        "attempts,times", [("inf,1", "1,2"), ("nan,1", "1,2"), ("1,2", "1,inf")]
    )
    def test_non_finite_base_values_exit_2(self, tmp_path, capsys, source, attempts, times):
        if source == "lists":
            flags = ["--attempts", attempts, "--times", times]
        else:
            rows = ["test,prefix_len,attempts,elapsed_seconds"]
            pairs = zip(attempts.split(","), times.split(","))
            rows += [f"average,{n},{a},{t}" for n, (a, t) in enumerate(pairs, start=1)]
            csv_path = tmp_path / "measurements.csv"
            csv_path.write_text("\n".join(rows) + "\n")
            flags = ["--measurements", csv_path]
        code = run(["project", *flags, "--out", tmp_path / "proj"])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    def test_measurements_without_average_rows_exit_2(self, tmp_path, capsys):
        csv_path = tmp_path / "measurements.csv"
        csv_path.write_text("test,prefix_len,attempts,elapsed_seconds\n1,1,4,0.1\n1,2,30,0.2\n")
        code = run(["project", "--measurements", csv_path, "--out", tmp_path / "proj"])
        assert code == 2
        assert "no average rows" in capsys.readouterr().err
        assert not (tmp_path / "proj").exists()

    @pytest.mark.parametrize(
        "rows,message",
        [
            (["average,1", "average,2,16.0,0.4"], "line 2: average row lacks fields: "
             "['attempts', 'elapsed_seconds']"),
            (["average,1,50.0,0.1", "average,1,60.0,0.2", "average,2,16.0,0.4"],
             "line 3: second average row for prefix length 1"),
        ],
        ids=["short-row", "repeated-prefix"],
    )
    def test_malformed_average_rows_exit_2(self, tmp_path, capsys, rows, message):
        # a short row once crashed on float(None); a repeated prefix length
        # once kept its last row without a word
        csv_path = tmp_path / "measurements.csv"
        csv_path.write_text("\n".join(["test,prefix_len,attempts,elapsed_seconds", *rows]) + "\n")
        code = run(["project", "--measurements", csv_path, "--out", tmp_path / "proj"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "proj").exists()

    def test_empty_measurements_file_exits_2(self, tmp_path, capsys):
        csv_path = tmp_path / "measurements.csv"
        csv_path.write_text("")
        code = run(["project", "--measurements", csv_path, "--out", tmp_path / "proj"])
        assert code == 2
        assert capsys.readouterr().err == "error: empty measurements file\n"
        assert not (tmp_path / "proj").exists()

    @pytest.mark.parametrize(
        "attempts,times,message",
        [
            ("1,2,3", "", "--times has an empty field: ''"),
            ("", "", "--attempts has an empty field: ''"),
            ("60,,3101,159174", "0.1,0.2,0.3", "--attempts has an empty field: '60,,3101,159174'"),
            ("60,3101,159174,", "0.1,0.2,0.3", "--attempts has an empty field: '60,3101,159174,'"),
            ("60,3101,159174", "0.1, ,0.3", "--times has an empty field: '0.1, ,0.3'"),
        ],
        ids=["empty-times", "both-empty", "doubled-comma", "trailing-comma", "blank-field"],
    )
    def test_empty_lists_exit_2(self, tmp_path, capsys, attempts, times, message):
        # an empty list is one empty field; a skipped field once dropped a
        # value without a word and projected from the rest
        code = run(["project", "--attempts", attempts, "--times", times, "--target", "To be",
                    "--out", tmp_path / "D"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "D").exists()

    def test_unequal_base_lengths_exit_2(self, tmp_path, capsys):
        # GrowthModel alone checks the lengths, before either growth factor:
        # a one-value list once failed on "need at least 2 values"
        for attempts, times in [("60,3101,159174", "0.1,0.2"), ("60,3101,159174", "0.1"),
                                ("60", "0.1,0.2,0.3")]:
            assert run(["project", "--attempts", attempts, "--times", times,
                        "--out", tmp_path / "proj"]) == 2
            assert capsys.readouterr().err == "error: base series must have equal length\n"
            assert not (tmp_path / "proj").exists()

    def test_requires_two_base_points(self, tmp_path, capsys):
        code = run(["project", "--attempts", "60", "--times", "0.1", "--out", tmp_path])
        assert code != 0
        assert "at least 2" in capsys.readouterr().err

    def test_requires_some_input(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            run(["project", "--out", tmp_path])

    @pytest.mark.parametrize(
        "flags",
        [
            ["--measurements", "CSV", "--attempts", "60,3101", "--times", "0.1,1"],
            ["--measurements", "CSV", "--times", "0.1,1"],
            ["--attempts", "60,3101"],
        ],
        ids=["measurements-and-lists", "measurements-and-times", "attempts-alone"],
    )
    def test_conflicting_or_partial_inputs_exit_2(self, tmp_path, flags):
        # lists next to --measurements were once ignored without a word
        csv_path = tmp_path / "measurements.csv"
        csv_path.write_text(
            "test,prefix_len,attempts,elapsed_seconds\naverage,1,4.0,0.1\naverage,2,16.0,0.4\n"
        )
        flags = [csv_path if flag == "CSV" else flag for flag in flags]
        with pytest.raises(SystemExit) as exc:
            run(["project", *flags, "--out", tmp_path / "proj"])
        assert exc.value.code == 2
        assert not (tmp_path / "proj").exists()

    def test_measurements_with_a_byte_order_mark(self, tmp_path):
        # the BOM once made the first column "\ufefftest", so the file was
        # refused with "measurements file lacks columns: ['test']"
        bom_copy = tmp_path / "bom.csv"
        bom_copy.write_bytes(b"\xef\xbb\xbf" + PUBLISHED_TRIALS.read_bytes())
        for name, path in (("plain", PUBLISHED_TRIALS), ("bom", bom_copy)):
            assert run(["project", "--measurements", path, "--out", tmp_path / name]) == 0
        plain, bom = (
            {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()
             if p.name != "manifest.json"}
            for name in ("plain", "bom")
        )
        assert "projection.json" in plain
        assert bom == plain

    @pytest.mark.parametrize("encoder", ["c", "python"])
    @pytest.mark.parametrize("style", [[], ["--paper-style"]], ids=["plain", "paper-style"])
    @settings(max_examples=40, deadline=None)
    @given(target=HOSTILE_TARGETS)
    @example(target='<quote " backslash \\ comma, brace }, { é>')
    def test_emitters_match_the_stdlib_reference(self, encoder, style, target):
        # projection.json is json.dumps(rows, indent=2), whether or not the
        # interpreter has the C JSON encoder, and projection.csv is
        # csv.DictWriter's rendering
        rows = build_projection_table(
            fit_growth_model(TABLE_ATTEMPTS, TABLE_TIMES), TargetText(target)
        ).to_json_rows(cli._paper_style if style else str)
        assert [row["text_part"] for row in rows] == [target[:i + 1] for i in range(len(target))]
        reference_csv = io.StringIO()
        writer = csv.DictWriter(reference_csv, PROJECTION_CSV_HEADER, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        assert json.encoder.c_make_encoder is not None  # else "c" tests nothing
        c_encoder = json.encoder.c_make_encoder if encoder == "c" else None
        with mock.patch.object(json.encoder, "c_make_encoder", c_encoder):
            args = cli.build_parser().parse_args(
                ["project", *TABLE_ARGS, f"--target={target}", *style]
            )
            _, files, _ = args.func(args)
        assert files["projection.json"] == json.dumps(rows, indent=2) + "\n"
        assert files["projection.csv"] == reference_csv.getvalue()


class TestProb:
    def test_phrase(self, capsys):
        assert run(["prob", "--alphabet-size", "52", "--length", "41"]) == 0
        out = capsys.readouterr().out
        assert "success probability: 4.404e-71" in out
        assert "expected attempts: 2.271e70" in out

    def test_coin(self, capsys):
        run(["prob", "--alphabet-size", "2", "--length", "1"])
        assert "success probability: 5.000e-1" in capsys.readouterr().out

    def test_soliloquy(self, capsys):
        run(["prob", "--alphabet-size", "52", "--length", "1520"])
        out = capsys.readouterr().out
        match = re.search(r"success probability: (\d\.\d+)e(-\d+)", out)
        assert match and int(match.group(2)) == -2609
        assert abs(float(match.group(1)) - 4.73) <= 0.01

    def test_rejects_nonpositive(self, capsys):
        assert run(["prob", "--alphabet-size", "0", "--length", "5"]) == 2
        assert "positive" in capsys.readouterr().err

    def test_optional_out_writes_manifest(self, tmp_path):
        run(["prob", "--alphabet-size", "2", "--length", "1", "--out", tmp_path])
        manifest = json.loads(read(tmp_path, "manifest.json"))
        assert manifest["config"] == {"alphabet_size": 2, "length": 1}
        assert "5.000e-1" in read(tmp_path, "prob.txt")

    @staticmethod
    def odds_lines(length, timeout):
        """prob's two lines at ``length`` over 52 symbols from a fresh process
        (timed with its start-up), each checked against a 60-digit power."""
        proc = run_process(["prob", "--alphabet-size", "52", "--length", length], timeout)
        assert proc.returncode == 0, proc.stderr
        wide = decimal.Context(prec=60, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)
        attempts = wide.power(decimal.Decimal(52), length)
        probability = wide.divide(1, attempts)
        four = decimal.Context(prec=4, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)

        def sci(x):
            return format(four.plus(x), ".3e").replace("+", "")

        lines = [f"success probability: {sci(probability)}", f"expected attempts: {sci(attempts)}"]
        assert set(lines) <= set(proc.stdout.splitlines())
        return lines

    def test_length_one_million_finishes(self):
        assert self.odds_lines(10**6, timeout=30) == [
            "success probability: 4.533e-1716004", "expected attempts: 2.206e1716003"]

    @pytest.mark.slow
    def test_length_ten_million_finishes(self):
        assert self.odds_lines(10**7, timeout=120) == [
            "success probability: 3.661e-17160034", "expected attempts: 2.731e17160033"]


class TestCensus:
    def test_bundled_corpus(self, capsys):
        assert run(["census", "--bundled-hamlet"]) == 0
        out = capsys.readouterr().out
        assert "raw" in out and "1520" in out and "matches" in out

    def test_small_file(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text("To be")
        run(["census", "--file", path])
        out = capsys.readouterr().out
        assert re.search(r"raw\s+5", out)

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("")
        run(["census", "--file", path])
        out = capsys.readouterr().out
        assert re.search(r"raw\s+0", out)

    def test_unreadable_file_exits_nonzero(self, tmp_path, capsys):
        assert run(["census", "--file", tmp_path / "missing.txt"]) == 2
        assert "missing.txt" in capsys.readouterr().err

    def test_file_is_read_as_utf8_under_a_c_locale(self, tmp_path, capsys):
        # under an ASCII locale this once failed to decode the é
        path = tmp_path / "t.txt"
        path.write_text("To be \u00e9 \u2014 or not\n", encoding="utf-8")
        assert run(["census", "--file", path]) == 0
        in_process = capsys.readouterr().out
        env = process_env(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        env.pop("PYTHONIOENCODING", None)
        proc = subprocess.run(
            [sys.executable, "-m", "monkeytyper.cli", "census", "--file", str(path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == in_process

    def test_byte_order_mark_is_not_counted(self, tmp_path, capsys):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(b"ab c\n")
        marked.write_bytes(b"\xef\xbb\xbfab c\n")
        censuses = []
        for path in (plain, marked):
            assert run(["census", "--file", path]) == 0
            censuses.append(capsys.readouterr().out.splitlines()[1:])  # past the file name
        assert censuses[0] == censuses[1]
        assert re.search(r"raw\s+5\b", censuses[1][0])

    def test_optional_out(self, tmp_path):
        run(["census", "--bundled-hamlet", "--out", tmp_path])
        assert "1520" in read(tmp_path, "census.txt")
        manifest = json.loads(read(tmp_path, "manifest.json"))
        assert manifest["config"]["source"] == "bundled-hamlet"


class TestReport:
    def test_published_data_summary(self, tmp_path, capsys):
        assert run(["report", "--use-paper-data", "--out", tmp_path]) == 0
        summary = read(tmp_path, "summary.txt")
        assert capsys.readouterr().out == summary
        assert "2.68e69" in summary
        assert "2.95e66" in summary
        assert "8.18e62" in summary
        assert "9.32e55" in summary  # published years figure, flagged not reproduced
        assert "census" in summary

    @pytest.mark.parametrize(
        "flags",
        [
            ["--target", "ab", "--alphabet", "ab", "--max-prefix", "2", "--iterations", "3",
             "--budget", "1", "--seed", "0"],
            ["--use-paper-data", "--target", "To be"],
        ],
        ids=["fresh-simulation", "paper-data-other-target"],
    )
    def test_published_quote_only_beside_the_published_value(self, tmp_path, capsys, flags):
        # the quoted years and universe ages describe the paper's seconds for
        # its full phrase, not any other timed report
        assert run(["report", *flags, "--out", tmp_path]) == 0
        summary = read(tmp_path, "summary.txt")
        assert capsys.readouterr().out == summary
        assert "estimated seconds: " in summary
        assert "9.32e55" not in summary and "published study quotes" not in summary

    def test_published_data_no_timing_projects_attempts_only(self, tmp_path, capsys):
        # --no-timing zeroes the published times, so no seconds are projected
        assert run(["report", "--use-paper-data", "--no-timing", "--out", tmp_path]) == 0
        stdout = capsys.readouterr().out.splitlines()
        manifest = json.loads(read(tmp_path, "manifest.json"))
        assert "seconds_log10.csv" not in manifest["outputs"]
        assert not (tmp_path / "seconds_log10.csv").exists()
        assert cli.SECONDS_OMITTED in stdout
        assert manifest["config"]["seconds_projection"] == cli.SECONDS_OMITTED
        assert not any(line.startswith("estimated") or "9.32e55" in line for line in stdout)
        assert any(line.endswith("attempts 2.68e69") for line in stdout)
        golden = (GOLDEN / "report" / "attempts_log10.csv").read_text()
        assert read(tmp_path, "attempts_log10.csv") == golden

    def test_bad_odds_flag_fails_before_any_trial(self, tmp_path, capsys, monkeypatch):
        # the summary's odds lines are computed before the trials, so a bad
        # --prob-alphabet-size exits at once and leaves no --out directory
        def no_trials(config):
            raise AssertionError("the trials ran before --prob-alphabet-size was checked")

        monkeypatch.setattr("monkeytyper.simulate.run_experiment", no_trials)
        out = tmp_path / "bad"
        assert run(["report", "--prob-alphabet-size", "0", "--out", out]) == 2
        assert "alphabet size and length must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_formats_each_projection_value_once(self, tmp_path, monkeypatch):
        # projection.csv and projection.json once formatted the rows each
        calls = collections.Counter()

        def count(cls, name):
            original = getattr(cls, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(cls, name, counted)

        count(ProjectionTable, "to_json_rows")
        count(ScaledDecimal, "to_string")
        assert run(["report", "--use-paper-data", "--out", tmp_path]) == 0
        # 41 rows x 3 values, plus the 7 summary figures
        assert calls == {"to_json_rows": 1, "to_string": 130}

    def test_published_data_bundle_files(self, tmp_path):
        run(["report", "--use-paper-data", "--out", tmp_path])
        manifest = json.loads(read(tmp_path, "manifest.json"))
        assert sorted(manifest["outputs"]) == [
            "attempts_log10.csv",
            "manifest.json",
            "projection.csv",
            "projection.json",
            "seconds_log10.csv",
            "summary.txt",
        ]
        for name in manifest["outputs"]:
            assert (tmp_path / name).exists()

    def test_published_data_runs_are_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            run(["report", "--use-paper-data", "--no-timing", "--out", tmp_path / sub])
        for name in json.loads(read(tmp_path / "a", "manifest.json"))["outputs"]:
            assert read(tmp_path / "a", name) == read(tmp_path / "b", name)

    @pytest.mark.parametrize(
        "flags,golden",
        [([], "report"), (["--paper-style"], "report-paper-style")],
        ids=["plain", "paper-style"],
    )
    def test_published_data_bundle_matches_golden_copy(self, tmp_path, flags, golden):
        # the committed bundle pins every digit, so drift in the scaled
        # arithmetic or its formatting fails here (the manifest is not pinned)
        assert run(["report", "--use-paper-data", *flags, "--out", tmp_path]) == 0
        expected = sorted(path.name for path in (GOLDEN / golden).iterdir())
        written = sorted(path.name for path in tmp_path.iterdir())
        assert written == sorted([*expected, "manifest.json"])
        for name in expected:
            assert (tmp_path / name).read_bytes() == (GOLDEN / golden / name).read_bytes(), name

    def test_bundle_ignores_the_callers_decimal_context(self, tmp_path):
        with decimal.localcontext() as ctx:
            ctx.prec = 6
            ctx.rounding = decimal.ROUND_DOWN
            assert run(["report", "--use-paper-data", "--out", tmp_path]) == 0
        for path in (GOLDEN / "report").iterdir():
            assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name

    def test_manifest_records_prob_alphabet_size(self, tmp_path):
        # summary.txt prints odds for this alphabet size, so the manifest must
        # carry it to reproduce them
        run(["report", "--use-paper-data", "--prob-alphabet-size", "26", "--out", tmp_path])
        assert '"prob_alphabet_size": 26' in read(tmp_path, "manifest.json")
        assert "(26 symbols, 41 chars)" in read(tmp_path, "summary.txt")

    def test_fresh_simulation_bundle(self, tmp_path):
        code = run(
            ["report", "--target", "abab", "--alphabet", "ab", "--max-prefix", "3",
             "--iterations", "5", "--seed", "21", "--out", tmp_path]
        )
        assert code == 0
        assert (tmp_path / "measurements.csv").exists()
        summary = read(tmp_path, "summary.txt")
        assert "fresh simulation, seed 21" in summary
        assert throughput_line(tmp_path, "abab") in summary.splitlines()

    def test_fresh_simulation_no_timing_bundles_are_byte_identical(self, tmp_path, capsys):
        # fitted on the zeroed times: attempts only, no throughput figure
        argv = ["report", "--target", "abab", "--alphabet", "ab", "--max-prefix", "3",
                "--iterations", "5", "--seed", "21", "--no-timing"]
        stdout = []
        for sub in ("a", "b"):
            assert run([*argv, "--out", tmp_path / sub]) == 0
            stdout.append(capsys.readouterr().out)
        names = json.loads(read(tmp_path / "a", "manifest.json"))["outputs"]
        assert "seconds_log10.csv" not in names
        for name in names:
            assert read(tmp_path / "a", name) == read(tmp_path / "b", name), name
        assert stdout[0] == stdout[1] == read(tmp_path / "a", "summary.txt")
        summary = stdout[0]
        assert cli.SECONDS_OMITTED in summary.splitlines()
        assert "throughput" not in summary and "estimated" not in summary
        manifest = json.loads(read(tmp_path / "a", "manifest.json"))
        assert manifest["config"]["seconds_projection"] == cli.SECONDS_OMITTED

    @pytest.mark.parametrize(
        "flags",
        [
            ["--target", "abab", "--alphabet", "ab", "--max-prefix", "3", "--iterations", "5",
             "--seed", "21"],
            ["--target", "To be", "--alphabet", "letters+space", "--max-prefix", "2",
             "--iterations", "50", "--seed", "42", "--budget", "3000"],
        ],
        ids=["complete", "budget-capped"],
    )
    def test_no_timing_projection_is_project_on_its_measurements(self, tmp_path, flags):
        # report projects from the measurements.csv it writes, through the
        # same stage as project
        assert run(["report", *flags, "--no-timing", "--out", tmp_path / "report"]) == 0
        summary = read(tmp_path / "report", "summary.txt")
        assert ("budget exhausted in cells" in summary) == ("--budget" in flags)
        target = flags[flags.index("--target") + 1]
        code = run(["project", "--measurements", tmp_path / "report" / "measurements.csv",
                    "--target", target, "--out", tmp_path / "project"])
        assert code == 0
        for name in ("projection.csv", "projection.json", "attempts_log10.csv"):
            report_bytes = (tmp_path / "report" / name).read_bytes()
            assert report_bytes == (tmp_path / "project" / name).read_bytes(), name

    def test_timed_projection_is_project_on_its_measurements(self, tmp_path):
        # the report fits its table's averages, project re-reads them from
        # measurements.csv: repr round-trips every float, so the timed fits agree
        flags = ["--target", "To be", "--max-prefix", "3", "--iterations", "5", "--seed", "3"]
        assert run(["report", *flags, "--out", tmp_path / "report"]) == 0
        code = run(["project", "--measurements", tmp_path / "report" / "measurements.csv",
                    "--target", "To be", "--out", tmp_path / "project"])
        assert code == 0
        for name in ("projection.csv", "projection.json", "attempts_log10.csv",
                     "seconds_log10.csv"):
            report_bytes = (tmp_path / "report" / name).read_bytes()
            assert report_bytes == (tmp_path / "project" / name).read_bytes(), name

    def test_extend_alphabet_reaches_the_throughput_measurement(self, tmp_path):
        # the throughput line describes the trials, which drew from "ab,"
        code = run(
            ["report", "--target", "ab,", "--alphabet", "ab", "--extend-alphabet",
             "--max-prefix", "3", "--iterations", "2", "--out", tmp_path]
        )
        assert code == 0
        assert "average,3," in read(tmp_path, "measurements.csv")
        assert throughput_line(tmp_path, "ab,") in read(tmp_path, "summary.txt").splitlines()
        # the manifest keeps the parsed alphabet next to the flag
        config = json.loads(read(tmp_path, "manifest.json"))["config"]
        assert (config["alphabet"], config["extend_alphabet"]) == ("ab", True)

    def test_throughput_is_the_rate_of_the_last_column(self, tmp_path, capsys):
        # no separate measuring loop: the rate comes from the measurements.csv
        # the report writes, budget-capped trials included, and the line is
        # on stdout as in summary.txt
        code = run(
            ["report", "--target", "To be", "--alphabet", "letters+space", "--max-prefix", "3",
             "--iterations", "6", "--seed", "3", "--budget", "300000", "--out", tmp_path]
        )
        assert code == 0
        capped = "budget exhausted in cells: [(1, 3), (2, 3), (6, 3)]"
        assert capped in read(tmp_path, "summary.txt")
        assert throughput_line(tmp_path, "To be") in capsys.readouterr().out.splitlines()

    def test_stream_version_recorded_only_when_simulating(self, tmp_path):
        run(["report", "--use-paper-data", "--out", tmp_path / "paper"])
        run(["report", "--target", "abab", "--alphabet", "ab", "--max-prefix", "2",
             "--iterations", "2", "--out", tmp_path / "fresh"])
        paper = json.loads(read(tmp_path / "paper", "manifest.json"))["config"]
        fresh = json.loads(read(tmp_path / "fresh", "manifest.json"))["config"]
        assert "stream_version" not in paper
        assert fresh["stream_version"] == 4

    def test_fresh_default_alphabet_bundle_under_a_minute(self, tmp_path):
        # expected work is about 10 * (53 + 53^2 + 53^3) candidate generations
        start = time.perf_counter()
        code = run(
            ["report", "--max-prefix", "3", "--iterations", "10", "--seed", "42",
             "--out", tmp_path]
        )
        elapsed = time.perf_counter() - start
        assert code == 0 and elapsed < 60
        manifest = json.loads(read(tmp_path, "manifest.json"))
        assert "measurements.csv" in manifest["outputs"]
        assert "summary.txt" in manifest["outputs"]
        for name in manifest["outputs"]:
            assert (tmp_path / name).exists()


class TestOutputs:
    @pytest.mark.parametrize("command", sorted(MANIFEST_PINS))
    def test_manifest_matches_pin(self, tmp_path, command):
        assert run([*MANIFEST_PINS[command], "--out", tmp_path]) == 0
        pin = (GOLDEN / "manifests" / f"{command}.json").read_text()
        assert read(tmp_path, "manifest.json") == pin
        written = sorted(path.name for path in tmp_path.iterdir())
        assert written == json.loads(pin)["outputs"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--use-paper-data", "--prob-alphabet-size", "0"],
            ["report", "--target", "To be", "--max-prefix", "1", "--iterations", "2"],
            # what the shell makes of $'a\xc3': a lone surrogate UTF-8 cannot encode
            ["project", "--attempts", "1,2", "--times", "1,2", "--target", "a\udcc3"],
        ],
        ids=["bad-prob-alphabet", "one-prefix", "unencodable-target"],
    )
    def test_failing_command_writes_nothing(self, tmp_path, argv, capsys):
        # the error surfaces after projection or simulation has run, but
        # before any file is written
        out_dir = tmp_path / "D"
        assert run([*argv, "--out", out_dir]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out_dir.exists()

    def test_unencodable_stdout_writes_nothing(self, tmp_path):
        # stdout is printed after the files are written; a line it cannot
        # encode once failed only then, with the whole bundle on disk
        out_dir = tmp_path / "e"
        proc = run_process(["report", "--use-paper-data", "--target", "To b\u00e9",
                            "--out", out_dir], PYTHONIOENCODING="ascii")
        assert proc.returncode == 2
        assert proc.stdout == "" and proc.stderr.startswith("error: 'ascii' codec")
        assert not out_dir.exists()

    def test_directory_in_the_way_writes_nothing(self, tmp_path):
        out_dir = tmp_path / "d"
        (out_dir / "summary.txt").mkdir(parents=True)
        (out_dir / "summary.txt" / "kept").write_text("x")
        proc = run_process(["report", "--use-paper-data", "--out", out_dir])
        assert proc.returncode == 2
        assert proc.stdout == "" and proc.stderr.startswith("error: ")
        assert "summary.txt" in proc.stderr
        assert sorted(p.relative_to(out_dir) for p in out_dir.rglob("*")) == [
            Path("summary.txt"), Path("summary.txt/kept")]

    def test_write_failing_part_way_leaves_out_as_it_was(self, tmp_path, capsys):
        # every file is staged before any is renamed into --out: a disk that
        # fills on the third write once left the two files written before it
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "summary.txt").write_bytes(b"older summary\n")
        write_bytes, writes = Path.write_bytes, []

        def disk_full_on_third(path, raw):
            writes.append(path.name)
            if len(writes) == 3:
                raise OSError(28, "No space left on device")
            return write_bytes(path, raw)

        with mock.patch.object(Path, "write_bytes", autospec=True,
                               side_effect=disk_full_on_third):
            assert run(["report", "--use-paper-data", "--out", out_dir]) == 2
        assert capsys.readouterr() == ("", "error: [Errno 28] No space left on device\n")
        assert len(writes) == 3
        assert [p.name for p in out_dir.iterdir()] == ["summary.txt"]
        assert (out_dir / "summary.txt").read_bytes() == b"older summary\n"

    @pytest.mark.parametrize("out", [".", "a/b"])
    def test_relative_out_holds_only_the_bundle(self, tmp_path, monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        assert run(["report", "--use-paper-data", "--out", out]) == 0
        pin = (GOLDEN / "manifests" / "report.json").read_text()
        written = sorted(p.name for p in (tmp_path / out).iterdir())
        assert written == json.loads(pin)["outputs"]
        assert read(tmp_path / out, "manifest.json") == pin

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--target", "ab", "--alphabet", "ab", "--max-prefix", "2",
             "--iterations", "2"],
            ["project", *TABLE_ARGS],
            ["prob", "--alphabet-size", "52", "--length", "41"],
            ["census", "--bundled-hamlet"],
            ["report", "--use-paper-data"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_unwritable_out_prints_only_the_error(self, tmp_path, argv, capsys):
        # prob and census once printed their results before the write failed
        blocker = tmp_path / "afile"
        blocker.write_text("x")
        assert run([*argv, "--out", blocker / "x"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [blocker]
        assert blocker.read_text() == "x"


class TestNumpyBoundary:
    """Only the trials draw random numbers, so only they load numpy."""

    def test_simulate_loads_numpy(self, serial_simulation_modules):
        # the probe that finds numpy absent after the trial-free commands
        # (tests/test_processes.py) sees it once a command runs trials
        assert "numpy" in serial_simulation_modules


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_no_state_leaks_between_calls(self, tmp_path, capsys):
        # one shared parser serves a paper-style report, a usage error, a
        # plain report and a project run in turn; each output is the one a
        # first call would give
        def matches_golden(out_dir, golden):
            assert capsys.readouterr().out == (GOLDEN / golden / "summary.txt").read_text()
            for path in (GOLDEN / golden).iterdir():
                assert (out_dir / path.name).read_bytes() == path.read_bytes(), path.name

        assert run(["report", "--use-paper-data", "--paper-style", "--out", tmp_path / "a"]) == 0
        matches_golden(tmp_path / "a", "report-paper-style")

        with pytest.raises(SystemExit) as exit_info:
            run(["project", "--attempts", "1,2", "--out", tmp_path / "b"])
        assert exit_info.value.code == 2
        assert "must be given together" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

        assert run(["report", "--use-paper-data", "--out", tmp_path / "c"]) == 0
        matches_golden(tmp_path / "c", "report")
        pin = (GOLDEN / "manifests" / "report.json").read_text()
        assert read(tmp_path / "c", "manifest.json") == pin

        assert run(["project", "--measurements", PUBLISHED_TRIALS, "--out", tmp_path / "d"]) == 0
        capsys.readouterr()
        # the published matrix has the averages of the paper data and a zero
        # time at prefix 1, so the attempts equal the golden report's
        golden_log10 = (GOLDEN / "report" / "attempts_log10.csv").read_bytes()
        assert (tmp_path / "d" / "attempts_log10.csv").read_bytes() == golden_log10

        def attempts_column(path):
            return [row[:3] for row in csv.reader(path.read_text().splitlines())]

        assert attempts_column(tmp_path / "d" / "projection.csv") == attempts_column(
            GOLDEN / "report" / "projection.csv"
        )
        expected = json.loads((GOLDEN / "manifests" / "project.json").read_text())
        expected["config"].update(
            source=str(PUBLISHED_TRIALS),
            times_base=[0.0, *expected["config"]["times_base"][1:]],
            seconds_projection=cli.SECONDS_OMITTED,
        )
        expected["outputs"].remove("seconds_log10.csv")
        assert json.loads(read(tmp_path / "d", "manifest.json")) == expected


def _readme_commands() -> list[list[str]]:
    """The commands of README's "Command line" block, continuations joined."""
    block = README.read_text().split("## Command line", 1)[1].split("```", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.strip()]


def test_readme_library_tour_prints_what_its_comments_promise(capsys):
    block = README.read_text().split("## Library tour", 1)[1].split("```python", 1)[1]
    exec(block.split("```", 1)[0], {})
    assert capsys.readouterr().out.splitlines()[1:] == ["2.680e69", "4.731e-2609"]


@pytest.mark.slow
def test_readme_command_line_block_runs(tmp_path, monkeypatch):
    # the documented chain, simulate -> project --measurements included
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert [argv[:2] for argv in commands] == [
        ["monkeytyper", name]
        for name in ("simulate", "project", "project", "prob", "census", "report")
    ]
    for argv in commands:
        assert main(argv[1:]) == 0, argv
