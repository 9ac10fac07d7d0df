"""Gates that run the program as its users do: fresh processes, the demo
scripts, and the sources as Python 3.10 reads them. A fresh interpreter
shows what the pytest process hides, having loaded numpy, typing and
importlib.resources and cached whatever earlier tests touched."""

import ast
import runpy

import pytest

from conftest import GOLDEN, ROOT, modules_loaded_after, run_python
from monkeytyper.cli import main

NO_TIMING = ["--target", "abab", "--alphabet", "ab", "--max-prefix", "3", "--iterations", "5",
             "--seed", "21", "--no-timing"]


def files(directory, *skipped):
    return {p.name: p.read_bytes() for p in directory.iterdir() if p.name not in skipped}


def test_trial_free_commands_load_no_numpy_typing_or_resources(tmp_path):
    # -S, since site may load typing and importlib.resources first (a .pth
    # file that imports certifi does); the bundled data are read with open()
    commands = [["prob", "--alphabet-size", "52", "--length", "41"],
                ["census", "--bundled-hamlet"],
                ["project", "--attempts", "60,3101,159174,8096722,345380940",
                 "--times", "0.0001,0.006,0.36,22.355,1097.5", "--out", "project"],
                ["report", "--use-paper-data", "--out", "report"]]
    assert modules_loaded_after(tmp_path, commands, "-S") == set()


def test_a_serial_simulation_loads_no_thread_pool(serial_simulation_modules):
    # the same fresh process shows numpy loaded (tests/test_cli.py::TestNumpyBoundary)
    assert "concurrent.futures" not in serial_simulation_modules


def test_no_timing_outputs_are_byte_stable_across_processes(tmp_path):
    # two fresh processes: nothing one interpreter caches can hide a difference
    script = "\n".join([
        "import sys",
        "from monkeytyper.cli import main",
        "for command in ('simulate', 'report'):",
        f"    assert main([command, *{NO_TIMING!r}, '--out', command + sys.argv[1]]) == 0",
    ])
    for run in ("-a", "-b"):
        run_python(tmp_path, "-c", script, run)
    for command in ("simulate", "report"):
        assert files(tmp_path / f"{command}-a") == files(tmp_path / f"{command}-b"), command
    # report projects through the same stage as project on its own CSV
    report = tmp_path / "report-a"
    assert main(["project", "--measurements", str(report / "measurements.csv"),
                 "--target", "abab", "--out", str(tmp_path / "project")]) == 0
    for name in ("projection.csv", "projection.json", "attempts_log10.csv"):
        assert (report / name).read_bytes() == (tmp_path / "project" / name).read_bytes(), name


def test_paper_data_report_under_a_c_locale(tmp_path):
    # every file is read and written as UTF-8 whatever the locale
    run_python(tmp_path, "-m", "monkeytyper.cli", "report", "--use-paper-data", "--out", "c",
               LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    assert files(tmp_path / "c", "manifest.json") == files(GOLDEN / "report")


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_prints_its_golden_output(demo, capsys):
    # 05 prints a measured rate and has no golden copy: only finishing gates
    runpy.run_path(str(demo), run_name="__main__")
    golden = GOLDEN / "demos" / f"{demo.stem}.txt"
    if golden.exists():
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_sources_parse_as_python_3_10_and_src_never_imports_typing():
    # pyproject.toml declares requires-python >=3.10; no 3.10 interpreter is needed
    for path in sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        if path.is_relative_to(ROOT / "src"):
            names = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
            names += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
            assert not [m for m in names if m and m.split(".")[0] == "typing"], path
