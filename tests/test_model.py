from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ATTEMPTS_BASE, PHRASE
from monkeytyper import (
    LETTERS,
    LETTERS_AND_SPACE,
    Alphabet,
    AlphabetMismatchError,
    GrowthModel,
    MeasurementTable,
    ScaledDecimal,
    TargetText,
    TrialRecord,
)
from monkeytyper.model import ProjectionRow, ProjectionTable, read_measurement_csv


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
        assert LETTERS_AND_SPACE.decode(codes) == "To be"

    def test_encode_rejects_unknown_characters(self):
        with pytest.raises(AlphabetMismatchError, match="','"):
            LETTERS_AND_SPACE.encode("To be, or")

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


def _record(n, attempts, elapsed=0.5, seed=1):
    return TrialRecord(n, attempts, elapsed, seed)


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


class TestMeasurementTable:
    def make(self):
        rows = [
            [_record(1, 3, 0.1), _record(2, 10, 0.4)],
            [_record(1, 5, 0.3), _record(2, 30, 0.8)],
        ]
        return MeasurementTable.from_trials([1, 2], rows)

    def test_averages_recompute(self):
        table = self.make()
        assert table.attempts_averages == (4.0, 20.0)
        assert table.time_averages == (0.2, 0.6000000000000001)
        for j in range(2):
            mean = sum(row[j].attempts for row in table.trials) / len(table.trials)
            assert abs(table.attempts_averages[j] - mean) <= 1e-9 * mean

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="every prefix length"):
            MeasurementTable.from_trials([1, 2], [[_record(1, 3)]])
        with pytest.raises(ValueError, match="column"):
            MeasurementTable.from_trials([1], [[_record(2, 3)]])
        with pytest.raises(ValueError, match="increasing"):
            MeasurementTable.from_trials(
                [2, 1], [[_record(2, 3), _record(1, 3)]]
            )

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
        rows = [
            [_record(1, 3, 0.1), _record(2, 10, 0.4)],
            [_record(1, 5, 0.3), TrialRecord(2, 30, 0.8, 1, completed=False)],
        ]
        table = MeasurementTable.from_trials([1, 2], rows)
        assert table.attempts_averages == (4.0, 40.0)
        assert table.time_averages == (0.2, 0.4 + 0.8)
        lines = table.to_csv().splitlines()
        assert lines[4] == "2,2,30,0.8,1,0"
        assert lines[-1] == f"average,2,40.0,{0.4 + 0.8!r},,1"
        assert read_measurement_csv(table.to_csv())[1] == [4.0, 40.0]

    def test_column_without_a_completed_trial_is_rejected(self):
        rows = [[_record(1, 3), TrialRecord(2, 10, 0.4, 1, completed=False)]]
        with pytest.raises(ValueError, match="prefix length 2 completed"):
            MeasurementTable.from_trials([1, 2], rows)

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
        rows = [
            [
                TrialRecord(
                    n,
                    data.draw(st.integers(1, 10**12)),
                    data.draw(elapsed),
                    data.draw(st.integers(0, 2**64 - 1)),
                    # the first iteration completes, so every column has a mean
                    i == 0 or data.draw(st.booleans()),
                )
                for n in prefix_lengths
            ]
            for i in range(iterations)
        ]
        table = MeasurementTable.from_trials(prefix_lengths, rows)
        text = table.to_csv(include_timing=include_timing)
        lengths, attempts, times = read_measurement_csv(text)
        assert lengths == list(table.prefix_lengths)
        assert attempts == list(table.attempts_averages)
        expected_times = table.time_averages if include_timing else (0.0,) * len(lengths)
        assert times == list(expected_times)
        # the completed column: one flag per trial, the divisor on average rows
        records = [rec for row in rows for rec in row]
        lines = text.splitlines()[1:]
        assert [line.rsplit(",", 1)[1] for line in lines[: len(records)]] == [
            str(int(rec.completed)) for rec in records
        ]
        assert [int(line.rsplit(",", 1)[1]) for line in lines[len(records):]] == [
            sum(row[j].completed for row in rows) for j in range(len(prefix_lengths))
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
        csv_text = resources.files("monkeytyper.data").joinpath("published_trials.csv")
        lengths, attempts, times = read_measurement_csv(csv_text.read_text(encoding="utf-8"))
        assert lengths == [1, 2, 3, 4, 5]
        assert attempts == [float(v) for v in ATTEMPTS_BASE]
        # the published average row displays 0.000 s for prefix 1
        assert times[0] == 0.0 and times[4] == 1097.5

    def test_incomplete_cells(self):
        rows = [
            [_record(1, 3), TrialRecord(2, 10, 0.4, 1, completed=False)],
            [_record(1, 3), _record(2, 7)],
        ]
        table = MeasurementTable.from_trials([1, 2], rows)
        assert table.incomplete_cells() == [(1, 2)]


class TestGrowthModel:
    def test_validation(self):
        with pytest.raises(ValueError, match="equal length"):
            GrowthModel((1.0,), (1.0, 2.0), 2.0, 2.0)
        with pytest.raises(ValueError, match="positive"):
            GrowthModel((1.0,), (1.0,), 0.0, 2.0)


def _scaled(v: float) -> ScaledDecimal:
    return ScaledDecimal.from_float(v)


class TestProjectionTable:
    def test_rows_must_be_target_prefixes(self):
        row = ProjectionRow(1, "X", _scaled(1.0), _scaled(1.0), _scaled(1.0), "measured")
        with pytest.raises(ValueError, match="prefix"):
            ProjectionTable(target="To be", rows=(row,))

    def test_csv_quotes_fields_with_commas(self):
        rows = tuple(
            ProjectionRow(
                i, "To be,"[:i], _scaled(float(i)), _scaled(1.0), _scaled(1.0), "measured"
            )
            for i in range(1, 7)
        )
        table = ProjectionTable(target="To be,", rows=rows)
        text = table.to_csv()
        assert '"To be,"' in text
        assert text.splitlines()[0] == "prefix_len,text_part,attempts,seconds,hours,region"

    def test_json_rows(self):
        rows = (ProjectionRow(1, "T", _scaled(60.0), _scaled(1e-4), _scaled(2.78e-8), "measured"),)
        table = ProjectionTable(target="T", rows=rows)
        payload = table.to_json_rows()
        assert payload[0]["attempts"] == "6.000e1"
        assert payload[0]["region"] == "measured"
