import decimal
import json
import re
import shlex
import string
import time
from pathlib import Path

import pytest

from monkeytyper import Alphabet, ExperimentConfig, TargetText, cli, run_experiment
from monkeytyper.cli import main

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parents[1] / "README.md"

TABLE_ARGS = [
    "--attempts",
    "60,3101,159174,8096722,345380940",
    "--times",
    "0.0001,0.006,0.36,22.355,1097.5",
]


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


def read(out_dir, name):
    return (out_dir / name).read_text()


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
        assert '"stream_version": 3' in read(tmp_path, "manifest.json")

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

    def test_from_measurements_file(self, tmp_path):
        run(["simulate", "--target", "abab", "--alphabet", "ab", "--max-prefix", "3",
             "--iterations", "5", "--seed", "11", "--out", tmp_path / "sim"])
        code = run(["project", "--measurements", tmp_path / "sim" / "measurements.csv",
                    "--target", "abab", "--out", tmp_path / "proj"])
        assert code == 0
        rows = json.loads(read(tmp_path / "proj", "projection.json"))
        assert len(rows) == 4

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
        assert "measured throughput" in summary

    def test_extend_alphabet_reaches_the_throughput_measurement(self, tmp_path, monkeypatch):
        # the throughput line must describe the alphabet the trials drew from
        seen = []

        def spy(alphabet, *args, **kwargs):
            seen.append(alphabet.symbols)
            return 1e6

        monkeypatch.setattr(cli, "measure_throughput", spy)
        code = run(
            ["report", "--target", "ab,", "--alphabet", "ab", "--extend-alphabet",
             "--max-prefix", "3", "--iterations", "2", "--out", tmp_path]
        )
        assert code == 0
        assert seen == ["ab,"]
        assert "average,3," in read(tmp_path, "measurements.csv")
        # the manifest keeps the parsed alphabet next to the flag
        config = json.loads(read(tmp_path, "manifest.json"))["config"]
        assert (config["alphabet"], config["extend_alphabet"]) == ("ab", True)

    def test_stream_version_recorded_only_when_simulating(self, tmp_path):
        run(["report", "--use-paper-data", "--out", tmp_path / "paper"])
        run(["report", "--target", "abab", "--alphabet", "ab", "--max-prefix", "2",
             "--iterations", "2", "--out", tmp_path / "fresh"])
        paper = json.loads(read(tmp_path / "paper", "manifest.json"))["config"]
        fresh = json.loads(read(tmp_path / "fresh", "manifest.json"))["config"]
        assert "stream_version" not in paper
        assert fresh["stream_version"] == 3

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
        ],
        ids=["bad-prob-alphabet", "one-prefix"],
    )
    def test_failing_command_writes_nothing(self, tmp_path, argv, capsys):
        # the error surfaces after projection or simulation has run, but
        # before any file is written
        out_dir = tmp_path / "D"
        assert run([*argv, "--out", out_dir]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out_dir.exists()


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
