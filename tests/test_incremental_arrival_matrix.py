"""Snapshot-arrival matrix for incremental re-linkage.

Every scenario plays one arrival sequence against a warm series-state
store and asserts two things at once:

* **equivalence** — the incremental analysis ledger hash (decisions
  only: per-pair mappings and evolution patterns, see
  :func:`repro.checkpoint.analysis_ledger`) equals a from-scratch
  analysis of the same series, and
* **economy** — the series counters prove the expected work was
  *skipped*: pairs untouched by the arrival are reused from the store,
  and a no-op re-run re-scores zero record pairs.

The matrix: append one snapshot, append many, re-run unchanged, revise
a middle snapshot, revise then append.
"""

import pytest

from repro.checkpoint import analysis_ledger_hash
from repro.core.config import LinkageConfig
from repro.datagen import revise_middle_record
from repro.datagen.generator import GeneratorConfig, generate_series
from repro.evolution.analysis import analyse_series
from repro.instrumentation import (
    PAIRS_RESCORED,
    SERIES_KEYS_DIRTY,
    SERIES_KEYS_TOTAL,
    SERIES_PAIRS_RELINKED,
    SERIES_PAIRS_REUSED,
    SERIES_SEED_ENTRIES,
)


@pytest.fixture(scope="module")
def series():
    """Four snapshots (1871-1901): three adjacent pairs to settle."""
    return generate_series(
        GeneratorConfig(seed=7, num_snapshots=4, initial_households=24)
    ).datasets


def scratch_hash(datasets, config=None):
    return analysis_ledger_hash(
        analyse_series(datasets, config=config or LinkageConfig())
    )


def run_warm(store, datasets, config=None):
    """One incremental run against ``store``; returns (hash, profile)."""
    analysis = analyse_series(
        datasets, config=config or LinkageConfig(), series_state=str(store)
    )
    assert analysis.profile is not None
    return analysis_ledger_hash(analysis), analysis.profile


class TestArrivalMatrix:
    def test_noop_rerun_reuses_everything(self, series, tmp_path):
        """Re-running an unchanged series must touch nothing: every pair
        reused, zero record pairs re-scored, zero cache entries seeded."""
        run_warm(tmp_path, series)
        incremental, profile = run_warm(tmp_path, series)
        assert incremental == scratch_hash(series)
        assert profile.value(SERIES_PAIRS_REUSED) == 3
        assert profile.value(SERIES_PAIRS_RELINKED) == 0
        assert profile.value(PAIRS_RESCORED) == 0
        assert profile.value(SERIES_SEED_ENTRIES) == 0
        assert profile.value(SERIES_KEYS_DIRTY) == 0
        assert profile.value(SERIES_KEYS_TOTAL) > 0

    def test_append_one_relinks_only_the_new_pair(self, series, tmp_path):
        run_warm(tmp_path, series[:3])
        incremental, profile = run_warm(tmp_path, series)
        assert incremental == scratch_hash(series)
        assert profile.value(SERIES_PAIRS_REUSED) == 2
        assert profile.value(SERIES_PAIRS_RELINKED) == 1

    def test_append_many_relinks_only_the_new_pairs(self, series, tmp_path):
        run_warm(tmp_path, series[:2])
        incremental, profile = run_warm(tmp_path, series)
        assert incremental == scratch_hash(series)
        assert profile.value(SERIES_PAIRS_REUSED) == 1
        assert profile.value(SERIES_PAIRS_RELINKED) == 2

    def test_revise_middle_relinks_adjacent_pairs(self, series, tmp_path):
        """Editing one record in snapshot 2 dirties exactly the two
        pairs that see it; the untouched first pair is reused and only
        the edited record's blocking keys are recomputed."""
        run_warm(tmp_path, series)
        revised = list(series)
        revised[2] = revise_middle_record(series[2])
        incremental, profile = run_warm(tmp_path, revised)
        assert incremental == scratch_hash(revised)
        # The edit may or may not flip a link decision (the ledger is
        # decisions-only); the dirty-key counters below prove the store
        # noticed it and re-linked exactly the two adjacent pairs.
        assert profile.value(SERIES_PAIRS_REUSED) == 1
        assert profile.value(SERIES_PAIRS_RELINKED) == 2
        dirty = profile.value(SERIES_KEYS_DIRTY)
        assert 0 < dirty < profile.value(SERIES_KEYS_TOTAL)
        # Clean similarity knowledge was carried over, so the re-link
        # re-scored strictly less than the full two pairs from scratch.
        assert profile.value(SERIES_SEED_ENTRIES) > 0

    def test_revise_then_append(self, series, tmp_path):
        """Revise the first snapshot while the fourth arrives: the only
        clean stored pair (2nd-3rd snapshots) is reused, everything the
        edit or arrival touched is re-linked."""
        run_warm(tmp_path, series[:3])
        revised = list(series)
        revised[0] = revise_middle_record(series[0])
        incremental, profile = run_warm(tmp_path, revised)
        assert incremental == scratch_hash(revised)
        assert profile.value(SERIES_PAIRS_REUSED) == 1
        assert profile.value(SERIES_PAIRS_RELINKED) == 2

    def test_rescore_economy_on_revision(self, series, tmp_path):
        """The cache seed does real work: a warm revise arrival scores
        strictly fewer record pairs over the two dirtied snapshot pairs
        than a cold (seedless) incremental run over those same pairs."""
        revised = list(series)
        revised[2] = revise_middle_record(series[2])

        run_warm(tmp_path, series)
        warm_hash, warm_profile = run_warm(tmp_path, revised)
        assert warm_hash == scratch_hash(revised)

        cold_store = tmp_path / "cold"
        _, cold_profile = run_warm(cold_store, revised[1:4])
        warm_rescored = warm_profile.value(PAIRS_RESCORED)
        cold_rescored = cold_profile.value(PAIRS_RESCORED)
        assert 0 < warm_rescored < cold_rescored
