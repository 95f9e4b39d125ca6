"""Round-trip tests for CSV dataset and mapping I/O."""

import csv
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.io import (
    read_dataset,
    read_group_mapping,
    read_record_mapping,
    write_dataset,
    write_group_mapping,
    write_record_mapping,
)
from repro.model.mappings import GroupMapping, RecordMapping

from tests.strategies import census_datasets


class TestDatasetRoundTrip:
    def test_roundtrip_preserves_records(self, census_1871, tmp_path):
        path = tmp_path / "census_1871.csv"
        write_dataset(census_1871, path)
        loaded = read_dataset(path)
        assert loaded.year == 1871
        assert loaded.record_ids == census_1871.record_ids
        assert loaded.household_ids == census_1871.household_ids
        original = census_1871.record("1871_1")
        restored = loaded.record("1871_1")
        assert restored == original

    def test_roundtrip_preserves_missing_values(self, census_1871, tmp_path):
        path = tmp_path / "census.csv"
        write_dataset(census_1871, path)
        loaded = read_dataset(path)
        assert loaded.record("1871_2").occupation is None

    def test_roundtrip_preserves_entity_ids(self, small_pair, tmp_path):
        dataset = small_pair.datasets[0]
        path = tmp_path / "snapshot.csv"
        write_dataset(dataset, path)
        loaded = read_dataset(path)
        some_record = next(loaded.iter_records())
        assert some_record.entity_id is not None

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("year,record_id,household_id,first_name,surname,sex,"
                        "age,occupation,address,role,entity_id\n")
        with pytest.raises(ValueError):
            read_dataset(path)

    def test_mixed_years_rejected(self, census_1871, tmp_path):
        path = tmp_path / "census.csv"
        write_dataset(census_1871, path)
        lines = path.read_text().splitlines()
        lines.append(lines[1].replace("1871", "1881", 1))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            read_dataset(path)


class TestMappingRoundTrip:
    def test_record_mapping(self, tmp_path):
        mapping = RecordMapping([("o1", "n1"), ("o2", "n2")])
        path = tmp_path / "records.csv"
        write_record_mapping(mapping, path)
        assert read_record_mapping(path) == mapping

    def test_group_mapping(self, tmp_path):
        mapping = GroupMapping([("g1", "h1"), ("g1", "h2")])
        path = tmp_path / "groups.csv"
        write_group_mapping(mapping, path)
        assert read_group_mapping(path) == mapping

    def test_empty_mapping(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_record_mapping(RecordMapping(), path)
        assert len(read_record_mapping(path)) == 0


def _write_rows(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(rows)


def _dataset_rows(dataset, tmp_path):
    path = tmp_path / "source.csv"
    write_dataset(dataset, path)
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def _cell_error(path, line, column):
    """The reader's error prefix for one bad cell."""
    return re.escape(f"{path}:{line}: column '{column}': ")


def _corrupt_cell(rows, line, column, value):
    rows[line - 1][rows[0].index(column)] = value


def _drop_column(rows, column):
    at = rows[0].index(column)
    for row in rows:
        del row[at]


class TestMalformedDataset:
    """Every malformed input names the file, the 1-based line and, where
    one applies, the column — never a bare KeyError or IndexError."""

    @pytest.mark.parametrize(
        "corrupt, line, column",
        [
            (lambda rows: _corrupt_cell(rows, 3, "age", "abc"), 3, "age"),
            (lambda rows: _corrupt_cell(rows, 4, "year", "18x1"), 4, "year"),
            (lambda rows: _drop_column(rows, "age"), 1, "age"),
            (lambda rows: rows[2].__delitem__(slice(5, None)), 3, "sex"),
            (lambda rows: _corrupt_cell(rows, 2, "role", "mayor"), 2, "role"),
            (lambda rows: _corrupt_cell(rows, 5, "sex", "x"), 5, "sex"),
            (lambda rows: _corrupt_cell(rows, 4, "year", "1881"), 4, "year"),
        ],
        ids=["bad-age", "bad-year", "missing-age-column", "short-row",
             "bad-role", "bad-sex", "mixed-years"],
    )
    def test_error_names_path_line_and_column(
        self, census_1871, tmp_path, corrupt, line, column
    ):
        rows = _dataset_rows(census_1871, tmp_path)
        corrupt(rows)
        path = tmp_path / "bad.csv"
        _write_rows(path, rows)
        with pytest.raises(ValueError, match=_cell_error(path, line, column)):
            read_dataset(path)

    def test_long_row_names_path_and_line(self, census_1871, tmp_path):
        rows = _dataset_rows(census_1871, tmp_path)
        rows[3].append("extra")
        path = tmp_path / "bad.csv"
        _write_rows(path, rows)
        with pytest.raises(ValueError, match=re.escape(f"{path}:4: ")):
            read_dataset(path)

    def test_entity_id_column_optional(self, census_1871, tmp_path):
        rows = _dataset_rows(census_1871, tmp_path)
        _drop_column(rows, "entity_id")
        path = tmp_path / "no_entity.csv"
        _write_rows(path, rows)
        assert read_dataset(path).record_ids == census_1871.record_ids

    @pytest.mark.parametrize("reader", [read_record_mapping, read_group_mapping])
    def test_one_column_mapping_row(self, tmp_path, reader):
        path = tmp_path / "pairs.csv"
        path.write_text("old,new\no1,n1\no2\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: column ")):
            reader(path)


#: A bad value per typed column, and the column the reader must blame.
CORRUPTIONS = {
    "year": "18x1",
    "age": "abc",
    "sex": "x",
    "role": "mayor",
    "record_id": "",
    "household_id": "",
}


@settings(max_examples=40, deadline=None)
@given(dataset=census_datasets(), data=st.data())
def test_write_read_roundtrip_and_single_cell_corruption(dataset, data):
    """``write_dataset`` → ``read_dataset`` round-trips, and one corrupted
    cell always yields the path/line/column ``ValueError``."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        rows = _dataset_rows(dataset, tmp_path)
        loaded = read_dataset(tmp_path / "source.csv")
        assert loaded.year == dataset.year
        for record in dataset.iter_records():
            restored = loaded.record(record.record_id)
            assert restored == record
            assert restored.entity_id == record.entity_id

        line = data.draw(st.integers(min_value=2, max_value=len(rows)))
        column = data.draw(st.sampled_from(sorted(CORRUPTIONS)))
        _corrupt_cell(rows, line, column, CORRUPTIONS[column])
        path = tmp_path / "bad.csv"
        _write_rows(path, rows)
        try:
            read_dataset(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}:{line}: column '{column}': ")
        else:
            pytest.fail(f"corrupted {column!r} on line {line} was accepted")
