"""Person records: the atomic unit of a census dataset.

A :class:`PersonRecord` is one row of a census return: a snapshot of a
person at one point in time, identified by a dataset-unique ``record_id``.
Records are immutable; any "change" (e.g. noise injection by the data
generator) produces a new record via :meth:`PersonRecord.replace`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from . import roles as roles_mod

#: Attribute names that similarity functions may address by string.
COMPARABLE_ATTRIBUTES = (
    "first_name",
    "surname",
    "sex",
    "age",
    "occupation",
    "address",
    "birth_year",
)


@dataclass(frozen=True)
class PersonRecord:
    """One person's entry in one census snapshot.

    Attributes mirror the columns of historical UK census returns used in
    the paper (Table 2): names, sex, age, occupation and address, plus the
    head-relative household ``role``.  ``None`` encodes a missing value.
    """

    record_id: str
    household_id: str
    first_name: Optional[str] = None
    surname: Optional[str] = None
    sex: Optional[str] = None
    age: Optional[int] = None
    occupation: Optional[str] = None
    address: Optional[str] = None
    role: str = roles_mod.UNKNOWN
    #: Identifier of the latent person entity; set by the synthetic data
    #: generator to carry ground truth, ``None`` for real data.
    entity_id: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.record_id:
            raise ValueError("record_id must be non-empty")
        if not self.household_id:
            raise ValueError("household_id must be non-empty")
        if self.sex is not None and self.sex not in ("m", "f"):
            raise ValueError(f"sex must be 'm', 'f' or None, got {self.sex!r}")
        if self.age is not None and self.age < 0:
            raise ValueError(f"age must be non-negative, got {self.age}")
        if self.role not in roles_mod.ALL_ROLES:
            raise ValueError(f"role {self.role!r} is not a known role")

    def get(self, attribute: str) -> Any:
        """Return an attribute value by name (``None`` when missing)."""
        if attribute == "birth_year":
            return None
        if attribute not in COMPARABLE_ATTRIBUTES:
            raise KeyError(f"unknown attribute {attribute!r}")
        return getattr(self, attribute)

    def get_with_year(self, attribute: str, year: int) -> Any:
        """Like :meth:`get` but can derive ``birth_year`` from a census year."""
        if attribute == "birth_year":
            return None if self.age is None else year - self.age
        return self.get(attribute)

    @property
    def full_name(self) -> str:
        """Human-readable name, with ``?`` for missing components."""
        first = self.first_name if self.first_name else "?"
        last = self.surname if self.surname else "?"
        return f"{first} {last}"

    @property
    def name_key(self) -> Tuple[str, str]:
        """Normalised (first name, surname) pair for ambiguity statistics."""
        return (
            (self.first_name or "").strip().lower(),
            (self.surname or "").strip().lower(),
        )

    def is_missing(self, attribute: str) -> bool:
        """True when the given attribute has no recorded value."""
        value = self.get(attribute)
        return value is None or (isinstance(value, str) and not value.strip())

    def replace(self, **changes: Any) -> "PersonRecord":
        """Return a copy of this record with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    def __hash__(self) -> int:  # records are unique per record_id
        return hash(self.record_id)

    def __str__(self) -> str:
        return (
            f"{self.record_id}: {self.full_name}"
            f" ({self.sex or '?'}, {self.age if self.age is not None else '?'},"
            f" {self.role})"
        )
