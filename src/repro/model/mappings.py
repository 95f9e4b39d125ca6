"""Record and group mappings between two successive census datasets.

A :class:`RecordMapping` is the 1:1 person-level mapping
:math:`\\mathcal{M}_R^{i,i+1}` of Eq. (1); a :class:`GroupMapping` is the
N:M household-level mapping :math:`\\mathcal{M}_G^{i,i+1}` of Eq. (2).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple


class MappingConflictError(ValueError):
    """Raised when adding a pair would violate the 1:1 cardinality."""


class RecordMapping:
    """A 1:1 mapping between record ids of two datasets.

    Each old record links to at most one new record and vice versa
    (Eq. 1).  Adding a conflicting pair raises
    :class:`MappingConflictError`.
    """

    def __init__(self, pairs: Optional[Iterable[Tuple[str, str]]] = None) -> None:
        self._old_to_new: Dict[str, str] = {}
        self._new_to_old: Dict[str, str] = {}
        if pairs is not None:
            for old_id, new_id in pairs:
                self.add(old_id, new_id)

    def add(self, old_id: str, new_id: str) -> None:
        existing_new = self._old_to_new.get(old_id)
        existing_old = self._new_to_old.get(new_id)
        if existing_new == new_id and existing_old == old_id:
            return  # identical pair already present
        if existing_new is not None:
            raise MappingConflictError(
                f"old record {old_id!r} already linked to {existing_new!r}"
            )
        if existing_old is not None:
            raise MappingConflictError(
                f"new record {new_id!r} already linked to {existing_old!r}"
            )
        self._old_to_new[old_id] = new_id
        self._new_to_old[new_id] = old_id

    def try_add(self, old_id: str, new_id: str) -> bool:
        """Add the pair if it does not conflict; return success."""
        try:
            self.add(old_id, new_id)
        except MappingConflictError:
            return False
        return True

    def update(self, other: "RecordMapping") -> None:
        """Add all pairs of ``other``; conflicts raise."""
        for old_id, new_id in other:
            self.add(old_id, new_id)

    # -- queries -------------------------------------------------------------

    def get_new(self, old_id: str) -> Optional[str]:
        return self._old_to_new.get(old_id)

    def get_old(self, new_id: str) -> Optional[str]:
        return self._new_to_old.get(new_id)

    def contains_old(self, old_id: str) -> bool:
        return old_id in self._old_to_new

    def contains_new(self, new_id: str) -> bool:
        return new_id in self._new_to_old

    def __contains__(self, pair: Tuple[str, str]) -> bool:
        old_id, new_id = pair
        return self._old_to_new.get(old_id) == new_id

    @property
    def old_ids(self) -> Set[str]:
        return set(self._old_to_new)

    @property
    def new_ids(self) -> Set[str]:
        return set(self._new_to_old)

    def pairs(self) -> List[Tuple[str, str]]:
        """All pairs in deterministic (sorted) order."""
        return sorted(self._old_to_new.items())

    def as_jsonable(self) -> List[List[str]]:
        """Canonical JSON form: sorted ``[old_id, new_id]`` rows.

        Every serialization path (CSV, golden fixtures, diffs) goes
        through the sorted order, so output is byte-stable regardless of
        insertion order, hash seed or Python version.
        """
        return [[old_id, new_id] for old_id, new_id in self.pairs()]

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        return iter(self.pairs())

    def __len__(self) -> int:
        return len(self._old_to_new)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecordMapping):
            return NotImplemented
        return self._old_to_new == other._old_to_new

    def copy(self) -> "RecordMapping":
        return RecordMapping(self.pairs())

    def restricted_to(
        self,
        old_ids: Optional[Set[str]] = None,
        new_ids: Optional[Set[str]] = None,
    ) -> "RecordMapping":
        """Pairs whose endpoints fall in the given id sets (when provided)."""
        kept = [
            (old_id, new_id)
            for old_id, new_id in self.pairs()
            if (old_ids is None or old_id in old_ids)
            and (new_ids is None or new_id in new_ids)
        ]
        return RecordMapping(kept)

    def __repr__(self) -> str:
        return f"RecordMapping({len(self)} pairs)"


class GroupMapping:
    """An N:M mapping between household ids of two datasets (Eq. 2)."""

    def __init__(self, pairs: Optional[Iterable[Tuple[str, str]]] = None) -> None:
        self._pairs: Set[Tuple[str, str]] = set()
        self._old_to_new: Dict[str, Set[str]] = {}
        self._new_to_old: Dict[str, Set[str]] = {}
        if pairs is not None:
            for old_id, new_id in pairs:
                self.add(old_id, new_id)

    def add(self, old_id: str, new_id: str) -> None:
        pair = (old_id, new_id)
        if pair in self._pairs:
            return
        self._pairs.add(pair)
        self._old_to_new.setdefault(old_id, set()).add(new_id)
        self._new_to_old.setdefault(new_id, set()).add(old_id)

    def update(self, other: "GroupMapping") -> None:
        for old_id, new_id in other:
            self.add(old_id, new_id)

    # -- queries -------------------------------------------------------------

    def partners_of_old(self, old_id: str) -> Set[str]:
        return set(self._old_to_new.get(old_id, set()))

    def partners_of_new(self, new_id: str) -> Set[str]:
        return set(self._new_to_old.get(new_id, set()))

    def contains_old(self, old_id: str) -> bool:
        return old_id in self._old_to_new

    def contains_new(self, new_id: str) -> bool:
        return new_id in self._new_to_old

    def __contains__(self, pair: Tuple[str, str]) -> bool:
        return pair in self._pairs

    @property
    def old_ids(self) -> Set[str]:
        return set(self._old_to_new)

    @property
    def new_ids(self) -> Set[str]:
        return set(self._new_to_old)

    def pairs(self) -> List[Tuple[str, str]]:
        """All pairs in deterministic (sorted) order."""
        return sorted(self._pairs)

    def as_jsonable(self) -> List[List[str]]:
        """Canonical JSON form: sorted ``[old_id, new_id]`` rows (see
        :meth:`RecordMapping.as_jsonable`)."""
        return [[old_id, new_id] for old_id, new_id in self.pairs()]

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        return iter(self.pairs())

    def __len__(self) -> int:
        return len(self._pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupMapping):
            return NotImplemented
        return self._pairs == other._pairs

    def copy(self) -> "GroupMapping":
        # Rebuild from the sorted pairs, not the raw set: the copy's
        # internal dict insertion order is then independent of the hash
        # seed, keeping every downstream iteration deterministic.
        return GroupMapping(self.pairs())

    def is_one_to_one_pair(self, old_id: str, new_id: str) -> bool:
        """True when the two groups link only to each other."""
        return (
            self._old_to_new.get(old_id) == {new_id}
            and self._new_to_old.get(new_id) == {old_id}
        )

    def __repr__(self) -> str:
        return f"GroupMapping({len(self)} pairs)"


def induced_group_mapping(
    record_mapping: RecordMapping,
    old_household_of: Dict[str, str],
    new_household_of: Dict[str, str],
) -> GroupMapping:
    """Group links induced by record links (``extractGroupLinks`` of Alg. 1).

    Two households are linked whenever at least one record link connects a
    member of one to a member of the other.
    """
    group_mapping = GroupMapping()
    for old_id, new_id in record_mapping:
        group_mapping.add(old_household_of[old_id], new_household_of[new_id])
    return group_mapping


def household_of_map(dataset) -> Dict[str, str]:
    """record id -> household id for every record of a dataset."""
    return {
        record.record_id: record.household_id for record in dataset.iter_records()
    }
