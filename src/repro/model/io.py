"""CSV round-trip for census datasets and mappings.

The on-disk format is one row per person with the columns used throughout
the paper, so that real census extracts (or the synthetic data emitted by
:mod:`repro.datagen`) can be stored, inspected and reloaded.

Malformed input raises one :class:`ValueError` of the form
``<path>:<line>: column '<name>': <problem>`` (the column is left out
when no single one is at fault), so a bad cell in a large extract can be
found without a debugger.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import List, Optional, Tuple, Union

from .dataset import CensusDataset
from .mappings import GroupMapping, RecordMapping
from .records import PersonRecord

RECORD_FIELDS = (
    "record_id",
    "household_id",
    "first_name",
    "surname",
    "sex",
    "age",
    "occupation",
    "address",
    "role",
    "entity_id",
)

#: Columns :func:`read_dataset` requires; ``entity_id`` (ground truth
#: of synthetic data) may be absent.
REQUIRED_FIELDS = ("year",) + RECORD_FIELDS[:-1]

RECORD_PAIR_HEADER = ("old_record_id", "new_record_id")
GROUP_PAIR_HEADER = ("old_household_id", "new_household_id")

PathLike = Union[str, Path]


def _cell(value) -> str:
    return "" if value is None else str(value)


def write_dataset(dataset: CensusDataset, path: PathLike) -> None:
    """Write a dataset to CSV (one row per person record)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(("year",) + RECORD_FIELDS)
        for record in dataset.iter_records():
            writer.writerow(
                (dataset.year,)
                + tuple(_cell(getattr(record, field)) for field in RECORD_FIELDS)
            )


def _input_error(
    path: PathLike, line: int, column: Optional[str], problem: str
) -> ValueError:
    where = f"{path}:{line}: "
    if column is not None:
        where += f"column {column!r}: "
    return ValueError(where + problem)


def read_dataset(path: PathLike) -> CensusDataset:
    """Read a dataset previously written by :func:`write_dataset`.

    Columns are located by header name, so their order may differ from
    :data:`RECORD_FIELDS`; every column of :data:`REQUIRED_FIELDS` must
    be present.  Line numbers in errors are 1-based file lines.
    """
    records: List[PersonRecord] = []
    year = None
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"no records found in {path}")
        for name in REQUIRED_FIELDS:
            if name not in header:
                raise _input_error(path, 1, name, "missing from the header")
        width = len(header)
        (
            year_at, record_id_at, household_id_at, first_name_at,
            surname_at, sex_at, age_at, occupation_at, address_at, role_at,
        ) = (header.index(name) for name in REQUIRED_FIELDS)
        entity_id_at = header.index("entity_id") if "entity_id" in header else None
        for row in reader:
            if len(row) != width:
                if not row:
                    continue  # blank line
                line = reader.line_num
                if len(row) < width:
                    raise _input_error(
                        path, line, header[len(row)],
                        f"missing: the row has {len(row)} of {width} cells",
                    )
                raise _input_error(
                    path, line, None,
                    f"the row has {len(row)} cells, the header {width}",
                )
            try:
                row_year = int(row[year_at])
            except ValueError:
                raise _input_error(
                    path, reader.line_num, "year",
                    f"{row[year_at]!r} is not an integer",
                ) from None
            if year is None:
                year = row_year
            elif row_year != year:
                raise _input_error(
                    path, reader.line_num, "year",
                    f"{row_year} mixes census years: the file started "
                    f"with {year}",
                )
            age = row[age_at]
            try:
                age = int(age) if age else None
            except ValueError:
                raise _input_error(
                    path, reader.line_num, "age", f"{age!r} is not an integer"
                ) from None
            try:
                records.append(
                    PersonRecord(
                        record_id=row[record_id_at],
                        household_id=row[household_id_at],
                        first_name=row[first_name_at] or None,
                        surname=row[surname_at] or None,
                        sex=row[sex_at] or None,
                        age=age,
                        occupation=row[occupation_at] or None,
                        address=row[address_at] or None,
                        role=row[role_at],
                        entity_id=(
                            row[entity_id_at] or None
                            if entity_id_at is not None
                            else None
                        ),
                    )
                )
            except ValueError as exc:
                # PersonRecord's messages start with the offending field.
                problem = str(exc)
                raise _input_error(
                    path, reader.line_num, problem.split(" ", 1)[0], problem
                ) from None
    if year is None:
        raise ValueError(f"no records found in {path}")
    return CensusDataset.from_records(year, records)


def write_record_mapping(mapping: RecordMapping, path: PathLike) -> None:
    _write_pairs(mapping.pairs(), path, RECORD_PAIR_HEADER)


def read_record_mapping(path: PathLike) -> RecordMapping:
    return RecordMapping(_read_pairs(path, RECORD_PAIR_HEADER))


def write_group_mapping(mapping: GroupMapping, path: PathLike) -> None:
    _write_pairs(mapping.pairs(), path, GROUP_PAIR_HEADER)


def read_group_mapping(path: PathLike) -> GroupMapping:
    return GroupMapping(_read_pairs(path, GROUP_PAIR_HEADER))


def _write_pairs(
    pairs: List[Tuple[str, str]], path: PathLike, header: Tuple[str, str]
) -> None:
    # Canonical order on disk regardless of the caller's iteration order:
    # mapping CSVs must be byte-stable across runs, hash seeds and
    # Python versions (the golden fixtures depend on this).
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(sorted(pairs))


def _read_pairs(
    path: PathLike, header: Tuple[str, str]
) -> List[Tuple[str, str]]:
    pairs: List[Tuple[str, str]] = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(reader, None)  # header
        for row in reader:
            if len(row) < 2:
                if not row:
                    continue  # blank line
                raise _input_error(
                    path, reader.line_num, header[1],
                    "missing: the row has 1 of 2 cells",
                )
            pairs.append((row[0], row[1]))
    return pairs
