"""Differential-equivalence harness: declared config equivalences hold."""

import dataclasses

import pytest

from repro.core.config import LinkageConfig
from repro.core.pipeline import link_datasets
from repro.datagen import generate_pair
from repro.validation.differential import (
    IDENTICAL,
    SUPERSET,
    EquivalenceViolation,
    MappingDiff,
    assert_equivalences,
    backend_default_vs_protocol,
    blocking_cross_covers_standard,
    blocking_standard_qgram_covers_standard,
    cache_bounded_vs_unbounded,
    compare_results,
    filtering_on_vs_off,
    indexed_vs_brute_force,
    run_differential,
    vectorized_vs_python,
)


@pytest.fixture(scope="module")
def workload():
    series = generate_pair(seed=7, initial_households=30)
    return series.datasets


class TestDeclaredEquivalences:
    def test_cache_bounded_vs_unbounded_identity(self, workload):
        old, new = workload
        outcome = cache_bounded_vs_unbounded(old, new, bound=64)
        assert outcome.ok, outcome.report()
        assert outcome.variant_config.max_lazy_cache_entries == 64
        assert outcome.base_config.max_lazy_cache_entries == 0

    def test_blocking_cross_covers_standard(self, workload):
        old, new = workload
        outcome = blocking_cross_covers_standard(old, new)
        assert outcome.ok, outcome.report()
        assert outcome.relation == SUPERSET

    def test_blocking_standard_qgram_covers_standard(self, workload):
        old, new = workload
        outcome = blocking_standard_qgram_covers_standard(old, new)
        assert outcome.ok, outcome.report()
        assert outcome.relation == SUPERSET

    def test_filtering_on_vs_off_identity(self, workload):
        """The pruning engine's acceptance check: pruning on produces
        mappings byte-identical to pruning off."""
        old, new = workload
        outcome = filtering_on_vs_off(old, new)
        assert outcome.ok, outcome.report()
        assert outcome.relation == IDENTICAL
        assert outcome.record_diff.is_identical
        assert outcome.group_diff.is_identical
        assert not outcome.base_config.filtering
        assert outcome.variant_config.filtering

    def test_indexed_vs_brute_force_identity(self, workload):
        """The group-stage acceptance check: inverted-index candidate
        enumeration matches the |G_i| x |G_{i+1}| reference scan byte for
        byte, down to the scoring effort."""
        old, new = workload
        outcome = indexed_vs_brute_force(old, new)
        assert outcome.ok, outcome.report()
        assert outcome.relation == IDENTICAL
        assert outcome.base_config.group_pair_indexing
        assert not outcome.variant_config.group_pair_indexing

    def test_vectorized_vs_python_identity(self, workload):
        """PR 6 acceptance check: the batch scoring kernel yields
        mappings, round structure and scoring effort byte-identical to
        the per-pair reference backend."""
        old, new = workload
        outcome = vectorized_vs_python(old, new)
        assert outcome.ok, outcome.report()
        assert outcome.relation == IDENTICAL
        assert outcome.base_config.scoring_backend == "python"
        assert outcome.variant_config.scoring_backend == "vectorized"
        assert not outcome.notes  # diagnostics (effort) matched too

    def test_backend_default_vs_protocol(self, workload):
        """PR 7 acceptance check: the group stage routed through the
        GroupMatcherBackend protocol is byte-identical — mappings, round
        structure and scoring effort — to the frozen pre-refactor
        engine."""
        old, new = workload
        outcome = backend_default_vs_protocol(old, new)
        assert outcome.ok, outcome.report()
        assert outcome.relation == IDENTICAL
        assert outcome.base_config.group_backend == "default"
        assert outcome.variant_config.group_backend == "prerefactor-reference"
        assert not outcome.notes  # diagnostics (effort) matched too

    def test_assert_equivalences_passes(self, workload):
        old, new = workload
        outcomes = assert_equivalences(old, new)
        assert all(outcome.ok for outcome in outcomes)
        # the cache check + filtering + scoring backend + the
        # indexed-vs-brute-force group-pair check + backend protocol
        # + three incremental-series variants (cold/no-op/revise; no
        # append: the default 2-snapshot series has no prefix) + two
        # sharded-vs-unsharded variants (shards 1, 4) + two
        # service-vs-inprocess variants (cache on, cache off)
        assert len(outcomes) == 12

    def test_incremental_vs_scratch_arrival_sequences(self, workload):
        """The tentpole's headline proof: incremental re-linkage over a
        3-snapshot series is decision-identical to from-scratch for the
        cold start, the no-op re-run (with zero pairs re-scored), the
        append arrival and the revised-middle-snapshot arrival."""
        from repro.datagen import GeneratorConfig, generate_series
        from repro.validation.differential import incremental_vs_scratch

        series = generate_series(
            GeneratorConfig(seed=7, num_snapshots=3, initial_households=18)
        )
        outcomes = incremental_vs_scratch(series.datasets)
        assert [outcome.name for outcome in outcomes] == [
            f"incremental-vs-scratch({scenario})"
            for scenario in ("cold", "no-op", "append", "revise")
        ]
        for outcome in outcomes:
            assert outcome.ok, outcome.report()


class TestFailurePaths:
    def test_identity_violation_reported_with_diff(self, workload):
        """A knob that genuinely changes the output must fail IDENTICAL
        with a mapping diff that names the divergent pairs."""
        old, new = workload
        base = LinkageConfig()
        # Raising delta_low prunes late low-confidence rounds, so the
        # variant links strictly less — a real behavioural difference.
        variant = dataclasses.replace(base, delta_low=0.69, remaining_threshold=0.95)
        outcome = run_differential(
            old, new, base, variant, relation=IDENTICAL, name="knob-differs"
        )
        assert not outcome.ok
        report = outcome.report()
        assert "VIOLATED" in report
        assert "only in" in report

    def test_equivalence_violation_raised(self, workload):
        old, new = workload
        base = LinkageConfig()
        base_result = link_datasets(old, new, base)
        variant = dataclasses.replace(base, delta_low=0.69, remaining_threshold=0.95)
        outcome = run_differential(
            old, new, base, variant, relation=IDENTICAL,
            name="forced-failure", base_result=base_result,
        )
        with pytest.raises(EquivalenceViolation) as excinfo:
            if not outcome.ok:
                raise EquivalenceViolation([outcome])
        assert "forced-failure" in str(excinfo.value)

    def test_diagnostics_mismatch_noted(self, workload):
        old, new = workload
        config = LinkageConfig()
        base_result = link_datasets(old, new, config)
        variant = dataclasses.replace(config, delta_low=0.69)
        variant_result = link_datasets(old, new, variant)
        outcome = compare_results(
            "diag", IDENTICAL, config, variant, base_result, variant_result,
            check_diagnostics=True,
        )
        assert any("iteration count" in note or "pairs scored" in note
                   for note in outcome.notes)


class TestMappingDiff:
    def test_superset_semantics(self):
        diff = MappingDiff(
            "record link", only_in_base=[], only_in_variant=[("o1", "n1")]
        )
        assert diff.satisfies(SUPERSET)
        assert not diff.satisfies(IDENTICAL)
        assert not diff.is_identical

    def test_identical_semantics(self):
        diff = MappingDiff("record link")
        assert diff.is_identical
        assert diff.satisfies(IDENTICAL)
        assert diff.satisfies(SUPERSET)

    def test_unknown_relation_rejected(self):
        with pytest.raises(ValueError):
            MappingDiff("record link").satisfies("subset")

    def test_report_truncates(self):
        pairs = [(f"o{i}", f"n{i}") for i in range(20)]
        diff = MappingDiff("record link", only_in_base=pairs)
        lines = diff.report(limit=15)
        assert any("... 5 more" in line for line in lines)
        assert "record link only in base: o0->n0" in lines[0]
