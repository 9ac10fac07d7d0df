import csv
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ATTEMPTS_BASE, PHRASE, TIMES_BASE, decode
from monkeytyper import (
    LETTERS,
    LETTERS_AND_SPACE,
    Alphabet,
    GrowthModel,
    MeasurementTable,
    ScaledDecimal,
    TargetText,
    TrialRecord,
    data,
)
from monkeytyper.model import ProjectionRow, ProjectionTable, csv_text, read_measurement_csv


class TestAlphabet:
    def test_presets(self):
        assert LETTERS.size == 52
        assert LETTERS_AND_SPACE.size == 53
        assert LETTERS_AND_SPACE.symbols.startswith("abc")
        assert LETTERS_AND_SPACE.symbols.endswith("Z ")

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError, match="distinct"):
            Alphabet("aba")
        with pytest.raises(ValueError, match="at least one"):
            Alphabet("")

    def test_encode_decode_round_trip(self):
        codes = LETTERS_AND_SPACE.encode("To be")
        assert codes == [45, 14, 52, 1, 4]
        assert decode(LETTERS_AND_SPACE, codes) == "To be"

    def test_encode_rejects_unknown_characters(self):
        with pytest.raises(ValueError, match="','"):
            LETTERS_AND_SPACE.encode("To be, or")

    def test_encode_error_names_the_text(self):
        message = r"^'a,b\.' contains characters not in the alphabet: ',', '\.'$"
        with pytest.raises(ValueError, match=message):
            Alphabet("ab").encode("a,b.")

    def test_missing_from_keeps_first_seen_order(self):
        assert Alphabet("ab").missing_from("a,b.c,") == ",.c"

    def test_extended_with(self):
        extended = Alphabet("ab").extended_with("b,a.")
        assert extended.symbols == "ab,."
        assert Alphabet("ab").extended_with("ba") is not None


class TestTargetText:
    def test_phrase_length(self):
        assert TargetText(PHRASE).length == 41

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TargetText("")


class TestTrialRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrialRecord(0, 1, 0.0, 1)
        with pytest.raises(ValueError):
            TrialRecord(1, 0, 0.0, 1)
        with pytest.raises(ValueError):
            TrialRecord(1, 1, -0.1, 1)

    def test_budget_exhausted_flag(self):
        rec = TrialRecord(2, 100, 0.1, 7, completed=False)
        assert not rec.completed and rec.attempts == 100


def _table(attempts, elapsed=None, completed=None, prefix_lengths=None):
    """A table from its attempts columns; by default every trial took 0.5 s,
    has seed 1 and completed, and the prefix lengths are 1..k."""
    fill = lambda value: [[value] * len(column) for column in attempts]  # noqa: E731
    return MeasurementTable.from_trials(
        prefix_lengths or range(1, len(attempts) + 1),
        attempts,
        fill(0.5) if elapsed is None else elapsed,
        fill(1),
        fill(True) if completed is None else completed,
    )


class TestMeasurementTable:
    def make(self):
        return _table([[3, 5], [10, 30]], elapsed=[[0.1, 0.3], [0.4, 0.8]])

    def test_averages_recompute(self):
        table = self.make()
        assert table.attempts_averages == (4.0, 20.0)
        assert table.time_averages == (0.2, 0.6000000000000001)
        for j in range(2):
            mean = sum(row[j].attempts for row in table.trials) / len(table.trials)
            assert abs(table.attempts_averages[j] - mean) <= 1e-9 * mean

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="every prefix length"):
            _table([[3]], prefix_lengths=[1, 2])
        with pytest.raises(ValueError, match="increasing"):
            _table([[3], [3]], prefix_lengths=[2, 1])
        with pytest.raises(ValueError, match="prefix_length must be >= 1"):
            _table([[3], [10]], prefix_lengths=[0, 1])
        with pytest.raises(ValueError, match="at least one test iteration"):
            _table([[], []])

    @pytest.mark.parametrize(
        "field,column,match",
        [
            ("attempts", [0, 5], "attempts must be >= 1"),
            ("attempts", [10], "every prefix length"),
            ("elapsed", [0.0, -0.1], "elapsed_seconds must be >= 0"),
            ("elapsed", [0.1], "every prefix length"),
            ("completed", [True], "every prefix length"),
            ("completed", [False, False], "prefix length 2 completed"),
        ],
        ids=[
            "attempts", "attempts-length", "elapsed", "elapsed-length", "completed-length",
            "completed-none",
        ],
    )
    def test_each_column_check(self, field, column, match):
        # one bad second column; everything else is valid
        columns = {
            "attempts": [[3, 5], [10, 30]],
            "elapsed": [[0.1, 0.3], [0.4, 0.8]],
            "completed": [[True, True], [True, True]],
        }
        columns[field][1] = column
        with pytest.raises(ValueError, match=match):
            _table(columns["attempts"], columns["elapsed"], columns["completed"])

    def test_trials_view_is_built_once_from_the_columns(self):
        table = _table([[3, 5], [10, 30]], completed=[[True, True], [True, False]])
        assert table.trials == (
            (TrialRecord(1, 3, 0.5, 1), TrialRecord(2, 10, 0.5, 1)),
            (TrialRecord(1, 5, 0.5, 1), TrialRecord(2, 30, 0.5, 1, completed=False)),
        )
        assert table.trials is table.trials
        # the view is not part of the value
        assert table == _table([[3, 5], [10, 30]], completed=[[True, True], [True, False]])

    def test_csv_layout(self):
        text = self.make().to_csv()
        lines = text.splitlines()
        assert lines[0] == "test,prefix_len,attempts,elapsed_seconds,seed,completed"
        assert lines[1] == "1,1,3,0.1,1,1"
        assert lines[-2:] == [
            "average,1,4.0,0.2,,2",
            "average,2,20.0,0.6000000000000001,,2",
        ]

    def test_censored_trials_average_over_completed_ones(self):
        # a budget-capped trial adds its attempts and seconds to the column
        # totals but not to the count it divides by
        table = _table(
            [[3, 5], [10, 30]],
            elapsed=[[0.1, 0.3], [0.4, 0.8]],
            completed=[[True, True], [True, False]],
        )
        assert table.attempts_averages == (4.0, 40.0)
        assert table.time_averages == (0.2, 0.4 + 0.8)
        lines = table.to_csv().splitlines()
        assert lines[4] == "2,2,30,0.8,1,0"
        assert lines[-1] == f"average,2,40.0,{0.4 + 0.8!r},,1"
        assert read_measurement_csv(table.to_csv())[1] == [4.0, 40.0]

    def test_column_without_a_completed_trial_is_rejected(self):
        with pytest.raises(ValueError, match="prefix length 2 completed"):
            _table([[3], [10]], completed=[[True], [False]])

    def test_csv_without_timing_zeroes_elapsed(self):
        text = self.make().to_csv(include_timing=False)
        for line in text.splitlines()[1:]:
            assert line.split(",")[3] == "0"

    def test_read_round_trip(self):
        lengths, attempts, times = read_measurement_csv(self.make().to_csv())
        assert lengths == [1, 2]
        assert attempts == [4.0, 20.0]
        assert times == [0.2, 0.6000000000000001]

    @given(
        data=st.data(),
        prefix_lengths=st.lists(
            st.integers(1, 60), min_size=1, max_size=6, unique=True
        ).map(sorted),
        iterations=st.integers(1, 5),
        include_timing=st.booleans(),
    )
    @settings(max_examples=100)
    def test_csv_round_trip_is_exact(self, data, prefix_lengths, iterations, include_timing):
        elapsed = st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)
        columns = [
            [
                (
                    data.draw(st.integers(1, 10**12)),
                    data.draw(elapsed),
                    data.draw(st.integers(0, 2**64 - 1)),
                    # the first iteration completes, so every column has a mean
                    i == 0 or data.draw(st.booleans()),
                )
                for i in range(iterations)
            ]
            for _ in prefix_lengths
        ]
        fields = [[list(field) for field in zip(*column)] for column in columns]
        table = MeasurementTable.from_trials(prefix_lengths, *zip(*fields))
        text = table.to_csv(include_timing=include_timing)
        lengths, attempts, times = read_measurement_csv(text)
        assert lengths == list(table.prefix_lengths)
        assert attempts == list(table.attempts_averages)
        expected_times = table.time_averages if include_timing else (0.0,) * len(lengths)
        assert times == list(expected_times)
        # trial rows in (test, prefix) order, then the completed divisor on
        # average rows
        cells = [column[i] for i in range(iterations) for column in columns]
        lines = text.splitlines()[1:]
        assert [line.split(",")[2::2] for line in lines[: len(cells)]] == [
            [str(a), str(seed)] for a, _, seed, _ in cells
        ]
        assert [line.rsplit(",", 1)[1] for line in lines[: len(cells)]] == [
            str(int(done)) for *_, done in cells
        ]
        assert [int(line.rsplit(",", 1)[1]) for line in lines[len(cells):]] == [
            sum(done for *_, done in column) for column in columns
        ]

    def test_read_rejects_a_file_without_average_rows(self):
        text = "\n".join(
            line
            for line in self.make().to_csv().splitlines()
            if not line.startswith("average")
        )
        with pytest.raises(ValueError, match="no average rows"):
            read_measurement_csv(text)

    def test_read_rejects_wrong_columns(self):
        with pytest.raises(ValueError, match="lacks columns"):
            read_measurement_csv("a,b\n1,2\n")
        with pytest.raises(ValueError, match="no average rows"):
            read_measurement_csv("test,prefix_len,attempts,elapsed_seconds\n")

    def test_bundled_published_matrix(self):
        csv_path = Path(data.__file__).with_name("published_trials.csv")
        lengths, attempts, times = read_measurement_csv(csv_path.read_text(encoding="utf-8"))
        assert lengths == [1, 2, 3, 4, 5]
        assert attempts == [float(v) for v in ATTEMPTS_BASE]
        # the published average row displays 0.000 s for prefix 1
        assert times[0] == 0.0 and times[4] == 1097.5

    def test_bundled_published_averages(self):
        # the matrix's average rows, with the 0.0001 s prefix-1 stand-in for
        # the 0.000 s it prints: the base series the test fixtures name
        assert data.published_averages() == (ATTEMPTS_BASE, TIMES_BASE)

    def test_bundled_average_rows_are_the_trial_means(self):
        # each average row is its ten trials' mean rounded half up, attempts
        # to a whole number and seconds to 3 decimals: the prefix-4 mean time
        # 22.3545 prints as 22.355, where half-even would give 22.354
        path = Path(data.__file__).with_name("published_trials.csv")
        rows = list(csv.DictReader(path.read_text(encoding="utf-8").splitlines()))
        averages = {row["prefix_len"]: row for row in rows if row["test"] == "average"}
        assert list(averages) == ["1", "2", "3", "4", "5"]
        for n, average in averages.items():
            trials = [row for row in rows if row["prefix_len"] == n and row["test"] != "average"]
            assert [row["test"] for row in trials] == [str(i) for i in range(1, 11)]
            for field, places in (("attempts", "1"), ("elapsed_seconds", "0.001")):
                mean = sum(Decimal(row[field]) for row in trials) / len(trials)
                assert str(mean.quantize(Decimal(places), ROUND_HALF_UP)) == average[field]

    def test_incomplete_cells(self):
        table = _table(
            [[3, 3, 4], [10, 7, 8]],
            completed=[[True, True, False], [False, True, False]],
        )
        # in (iteration, prefix) order
        assert table.incomplete_cells() == [(1, 2), (3, 1), (3, 2)]


class TestGrowthModel:
    def test_validation(self):
        for attempts, times in [((1.0,), (1.0, 2.0)), ((1.0, 2.0), (1.0,))]:
            with pytest.raises(ValueError, match="equal length"):
                GrowthModel(attempts, times, 2.0, 2.0)
        with pytest.raises(ValueError, match="positive"):
            GrowthModel((1.0,), (1.0,), 0.0, 2.0)

    @pytest.mark.parametrize(
        "attempts, times, time_factor, message",
        [
            ((), (), 2.0, "cannot project from an empty base series"),
            ((1.0, 0.0), (1.0, 2.0), 2.0, "base values must be positive, got 0.0"),
            ((1.0, -2.0), (1.0, 2.0), None, "base values must be positive, got -2.0"),
            ((1.0, 2.0), (1.0, 0.0), 2.0, "base values must be positive, got 0.0"),
        ],
    )
    def test_base_series_checked_at_construction(self, attempts, times, time_factor, message):
        with pytest.raises(ValueError, match=message):
            GrowthModel(attempts, times, 2.0, time_factor)


def _scaled(v: float) -> ScaledDecimal:
    return ScaledDecimal.from_float(v)


class TestProjectionTable:
    def test_csv_quotes_fields_with_commas(self):
        rows = tuple(
            ProjectionRow(
                i, "To be,"[:i], _scaled(float(i)), _scaled(1.0), _scaled(1.0), "measured"
            )
            for i in range(1, 7)
        )
        table = ProjectionTable(rows=rows)
        text = table.to_csv(table.to_json_rows(str))
        assert '"To be,"' in text
        assert text.splitlines()[0] == "prefix_len,text_part,attempts,seconds,hours,region"

    def test_json_rows(self):
        rows = (ProjectionRow(1, "T", _scaled(60.0), _scaled(1e-4), _scaled(2.78e-8), "measured"),)
        table = ProjectionTable(rows=rows)
        payload = table.to_json_rows(str)
        assert payload[0]["attempts"] == "6.000e1"
        assert payload[0]["region"] == "measured"


class TestCsvText:
    def test_header_first_newline_ends_and_repr_floats(self):
        values = [0.1 + 0.2, 1e-300, 2.5e69, -0.0, float("inf")]
        text = csv_text(("n", "value"), enumerate(values))
        assert text == "n,value\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(values))
