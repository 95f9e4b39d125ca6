"""Lockstep sharded driver: Algorithm 1, one shard at a time.

The in-RAM pipeline (:class:`repro.core.pipeline.IterativeGroupLinkage`)
runs each δ round over the whole dataset.  This driver runs the *same*
δ schedule, but inside every round it visits the shards of a
:class:`~repro.sharding.planner.ShardPlan` one by one, with only one
shard's records, candidate pairs, similarity cache and kernel encoding
resident at a time.  The result is **decision-identical** to the in-RAM
run (``repro.validation.differential.sharded_vs_unsharded``,
:func:`repro.checkpoint.decision_ledger_hash`), by construction:

* The planner closes shards over shared blocking keys *and* household
  co-membership, so candidate pairs, pre-matching clusters, candidate
  group pairs, common subgraphs and every Alg. 2 / remaining-pass
  conflict set are shard-local.  Restricting a greedy selection to a
  shard therefore removes no competitor it would have had globally, and
  the union of per-shard selections equals the global selection.
* The only *global* couplings of Alg. 1 — the ``stop_on_empty_round``
  test and the exhausted-frontier break — are evaluated by the driver
  over the **merged** round outcome, in lockstep: no shard advances to
  round r+1 until every shard finished round r.  Per-shard independent
  stopping would diverge from the global run; lockstep cannot.

What legitimately differs from the in-RAM run is *effort*: per-shard
caches, pruning warm-up and kernel batching change ``pairs_scored``,
hit/miss tallies and batch counts.  Hence the comparison document is the
decisions-only ledger, not :func:`repro.checkpoint.ledger_hash`.

Out-of-core profile: per shard the driver keeps only id lists, scores
and candidate-pair id sets across rounds; records, per-shard datasets,
enriched households, the group-pair index and the kernel encoding are
rebuilt from the record source at every visit and released after.  With
a :class:`ShardedRecordSource` backed by a
:class:`~repro.sharding.store.ShardStore`, records stream from
memory-mapped column files and the full datasets are never resident
(``benchmarks/bench_sharded.py`` measures the peak-RSS gap).

Checkpointing is per-shard (:mod:`repro.checkpoint.shard`): a state is
written after every shard merge, and ``resume=True`` re-enters the
interrupted round at the exact shard boundary.  Per-shard caches are not
persisted — a resumed run re-scores what the interrupted run had cached,
with identical decisions (the module docstring of
:mod:`repro.checkpoint.shard` records the trade-off).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..checkpoint.shard import (
    SHARD_PHASE_FINAL,
    SHARD_PHASE_ROUND,
    ShardRunState,
    ShardStateStore,
)
from ..checkpoint.state import CheckpointMismatch
from ..core.backends import GroupRoundContext, get_backend
from ..core.config import LinkageConfig
from ..core.enrichment import complete_groups
from ..core.pipeline import (
    IterationStats,
    LinkageResult,
    LinkOrigin,
    _provenance_from_rows,
    _provenance_rows,
)
from ..core.prematching import prematching
from ..core.remaining import match_remaining
from ..core.simcache import SimilarityCache
from ..core.subgraph import GroupPairIndex
from ..checkpoint.ledger import META_COUNTERS
from ..instrumentation import (
    CACHE_EVICTIONS,
    CACHE_HITS,
    CACHE_MISSES,
    PAIRS_SCORED,
    Instrumentation,
)
from ..model.dataset import CensusDataset
from ..model.mappings import (
    GroupMapping,
    RecordMapping,
    household_of_map,
    induced_group_mapping,
)
from ..model.records import PersonRecord
from .planner import ShardPlan, ShardSpec, plan_shards
from .store import ShardStore


class ShardedRecordSource:
    """Record access for the sharded driver: stream all, or load a subset.

    Two backings:

    * ``ShardedRecordSource.from_dataset(dataset)`` — in-RAM; ``load``
      subsets the resident dataset (useful for the differential harness
      and small data).
    * ``ShardedRecordSource.from_store(store, year)`` — out-of-core;
      ``load`` groups the requested ids by store shard (the region
      prefix) and materializes only those shards' memory-mapped columns.
    """

    def __init__(self, year: int) -> None:
        self.year = year

    @staticmethod
    def from_dataset(dataset: CensusDataset) -> "_DatasetSource":
        return _DatasetSource(dataset)

    @staticmethod
    def from_store(store: ShardStore, year: int) -> "_StoreSource":
        return _StoreSource(store, year)

    @staticmethod
    def coerce(source) -> "ShardedRecordSource":
        if isinstance(source, ShardedRecordSource):
            return source
        if isinstance(source, CensusDataset):
            return ShardedRecordSource.from_dataset(source)
        raise TypeError(
            f"expected a CensusDataset or ShardedRecordSource, got "
            f"{type(source).__name__}"
        )

    # Subclass protocol ------------------------------------------------------

    def iter_all(self):
        """Stream every record once (dataset iteration order)."""
        raise NotImplementedError

    def load(self, record_ids: Sequence[str]) -> List[PersonRecord]:
        """Materialize exactly the given records."""
        raise NotImplementedError


class _DatasetSource(ShardedRecordSource):
    def __init__(self, dataset: CensusDataset) -> None:
        super().__init__(dataset.year)
        self.dataset = dataset

    def iter_all(self):
        return self.dataset.iter_records()

    def load(self, record_ids: Sequence[str]) -> List[PersonRecord]:
        return self.dataset.subset(record_ids)


class _StoreSource(ShardedRecordSource):
    def __init__(self, store: ShardStore, year: int) -> None:
        super().__init__(year)
        self.store = store

    def iter_all(self):
        return self.store.iter_records(self.year)

    def load(self, record_ids: Sequence[str]) -> List[PersonRecord]:
        wanted = set(record_ids)
        # Group by store shard via the manifest's region tags, so only
        # the store shards actually referenced are materialized.
        by_region = {
            entry["region"]: entry["name"]
            for entry in self.store.shard_entries(self.year)
        }
        shards_needed: Dict[str, List[str]] = {}
        for record_id in record_ids:
            region = (
                record_id.split("::", 1)[0] if "::" in record_id else ""
            )
            shard_name = by_region.get(region)
            if shard_name is None:
                raise KeyError(
                    f"record {record_id!r} maps to no store shard of "
                    f"year {self.year}"
                )
            shards_needed.setdefault(shard_name, []).append(record_id)
        records: List[PersonRecord] = []
        for shard_name in sorted(shards_needed):
            records.extend(
                record
                for record in self.store.read_shard(self.year, shard_name)
                if record.record_id in wanted
            )
        if len(records) != len(wanted):
            found = {record.record_id for record in records}
            missing = sorted(wanted - found)[:5]
            raise KeyError(
                f"store year {self.year} is missing records {missing} "
                f"(and possibly more)"
            )
        return records


def _source_fingerprint(
    old_source: ShardedRecordSource, new_source: ShardedRecordSource
) -> str:
    """Streaming twin of :func:`repro.checkpoint.dataset_fingerprint`:
    identical digest for the same records, without requiring resident
    datasets."""
    digest = hashlib.sha256()
    for source in (old_source, new_source):
        digest.update(str(source.year).encode("utf-8"))
        for record in source.iter_all():
            row = (
                record.record_id,
                record.household_id,
                record.first_name,
                record.surname,
                record.sex,
                record.age,
                record.occupation,
                record.address,
                record.role,
            )
            digest.update(json.dumps(row).encode("utf-8"))
    return digest.hexdigest()[:16]


class _ShardContext:
    """Cross-round state of one shard — the out-of-core survivors.

    Everything here is id- or score-keyed (no record objects): the
    similarity cache, the blocked candidate-pair id set, the pruning
    engine, and the remaining-frontier id lists.  Record-bearing
    structures are rebuilt per visit by :func:`_shard_visit_data`.
    """

    def __init__(self, spec: ShardSpec, config: LinkageConfig) -> None:
        self.spec = spec
        self.cache = SimilarityCache(
            max_lazy_entries=config.max_lazy_cache_entries or None
        )
        self.candidate_filter = config.build_candidate_filter(
            config.build_sim_func()
        )
        self.cached_pairs: Optional[Set[Tuple[str, str]]] = None
        # Remaining frontiers as ordered id lists (dataset iteration
        # order), filtered after every merge like the in-RAM pipeline.
        self.remaining_old_ids: List[str] = list(spec.old_ids)
        self.remaining_new_ids: List[str] = list(spec.new_ids)


def link_datasets_sharded(
    old_source,
    new_source,
    config: Optional[LinkageConfig] = None,
    checkpoint_dir: Optional[Union[str, Path, ShardStateStore]] = None,
    resume: bool = False,
) -> LinkageResult:
    """Run Algorithm 1 shard-by-shard (see module docstring).

    ``old_source``/``new_source`` are :class:`CensusDataset` objects or
    :class:`ShardedRecordSource` instances (``from_store`` for
    out-of-core runs).  ``config.shards`` fixes the shard count
    (coerced to at least 1).  ``checkpoint_dir`` enables per-shard
    recovery states; ``resume=True`` continues from the newest one.
    """
    config = config or LinkageConfig()
    num_shards = max(1, config.shards)
    blocker = config.build_blocker()
    instrumentation = Instrumentation()
    validating = config.validate
    provenance: Optional[Dict[Tuple[str, str], LinkOrigin]] = (
        {} if validating else None
    )
    if validating:
        from ..validation.invariants import (
            validate_result,
            validate_selection,
        )

    old_source = ShardedRecordSource.coerce(old_source)
    new_source = ShardedRecordSource.coerce(new_source)

    store: Optional[ShardStateStore] = None
    if checkpoint_dir is not None:
        store = (
            checkpoint_dir
            if isinstance(checkpoint_dir, ShardStateStore)
            else ShardStateStore(checkpoint_dir)
        )
    config_fp = config.fingerprint() if store is not None else ""
    data_fp = (
        _source_fingerprint(old_source, new_source)
        if store is not None
        else ""
    )
    resumed: Optional[ShardRunState] = None
    if resume:
        if store is None:
            raise ValueError("resume=True requires a checkpoint directory")
        resumed = store.load_latest(instrumentation=instrumentation)
    if resumed is not None:
        if resumed.config_fingerprint != config_fp:
            raise CheckpointMismatch(
                f"shard state was recorded under configuration "
                f"{resumed.config_fingerprint}, current configuration is "
                f"{config_fp}"
            )
        if resumed.data_fingerprint != data_fp:
            raise CheckpointMismatch(
                f"shard state was recorded for input data "
                f"{resumed.data_fingerprint}, current input data is "
                f"{data_fp}"
            )
        if resumed.phase == SHARD_PHASE_FINAL:
            return _reconstruct_final(resumed, instrumentation)

    with instrumentation.stage("shard_planning"):
        plan = plan_shards(
            old_source.iter_all(), new_source.iter_all(), blocker, num_shards
        )
    if resumed is not None and resumed.plan_fingerprint != plan.fingerprint():
        raise CheckpointMismatch(
            f"shard state was recorded for plan {resumed.plan_fingerprint}, "
            f"current plan is {plan.fingerprint()} — the shard count or "
            f"input partitioning changed"
        )

    shard_contexts = [_ShardContext(spec, config) for spec in plan.shards]
    backend = get_backend(config.group_backend)

    record_mapping = RecordMapping()
    group_mapping = GroupMapping()
    iterations: List[IterationStats] = []
    # Lifetime hit/miss/eviction totals of retired shard caches: shard
    # caches live in _ShardContext across rounds, but resume discards
    # them, so completed work is carried through the checkpoint.
    cache_totals = {"hits": 0, "misses": 0, "evictions": 0}
    resumed_round = 0
    resumed_shards_done = 0
    resumed_accum: Optional[Dict[str, object]] = None
    rounds_finished = False
    if resumed is not None:
        record_mapping.update(
            RecordMapping(tuple(pair) for pair in resumed.record_pairs)
        )
        group_mapping.update(
            GroupMapping(tuple(pair) for pair in resumed.group_pairs)
        )
        iterations = [
            IterationStats(**stats) for stats in resumed.iterations
        ]
        if provenance is not None and resumed.provenance is not None:
            provenance.update(_provenance_from_rows(resumed.provenance))
        for name, value in resumed.counters.items():
            if name not in META_COUNTERS:
                instrumentation.set_counter(name, value)
        cache_totals.update(resumed.cache_totals)
        rounds_finished = resumed.rounds_finished
        if resumed.round_complete:
            resumed_round = resumed.round_index
        else:
            resumed_round = resumed.round_index - 1
            resumed_shards_done = resumed.shards_done
            resumed_accum = dict(resumed.round_accum or {})
        # Rebuild every shard's remaining frontier from the restored
        # mapping (same filter the uninterrupted run applied).
        for context in shard_contexts:
            context.remaining_old_ids = [
                record_id
                for record_id in context.remaining_old_ids
                if not record_mapping.contains_old(record_id)
            ]
            context.remaining_new_ids = [
                record_id
                for record_id in context.remaining_new_ids
                if not record_mapping.contains_new(record_id)
            ]

    def capture(
        phase: str,
        round_index: int,
        delta: Optional[float],
        shards_done: int,
        round_complete: bool,
        round_accum: Optional[Dict[str, object]],
        subgraph_links: Optional[int] = None,
        remaining_links: Optional[int] = None,
    ) -> ShardRunState:
        return ShardRunState(
            phase=phase,
            round_index=round_index,
            delta=delta,
            schedule=tuple(schedule),
            shards_total=plan.num_shards,
            shards_done=shards_done,
            round_complete=round_complete,
            rounds_finished=rounds_finished,
            record_pairs=record_mapping.as_jsonable(),
            group_pairs=group_mapping.as_jsonable(),
            iterations=[
                dataclasses.asdict(stats) for stats in iterations
            ],
            round_accum=round_accum,
            provenance=_provenance_rows(provenance),
            counters=dict(instrumentation.counters),
            cache_totals=dict(cache_totals),
            config_fingerprint=config_fp,
            data_fingerprint=data_fp,
            plan_fingerprint=plan.fingerprint(),
            subgraph_record_links=subgraph_links,
            remaining_record_links=remaining_links,
        )

    schedule = list(config.threshold_schedule())
    for round_index, delta in enumerate(schedule, start=1):
        if round_index <= resumed_round:
            continue
        if rounds_finished:
            break
        total_remaining_old = sum(
            len(context.remaining_old_ids) for context in shard_contexts
        )
        total_remaining_new = sum(
            len(context.remaining_new_ids) for context in shard_contexts
        )
        if not total_remaining_old or not total_remaining_new:
            break
        round_timer = Instrumentation()
        accum: Dict[str, object] = {
            "candidate_subgraphs": 0,
            "accepted_group_links": 0,
            "new_record_links": 0,
            "pairs_scored": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "seconds": 0.0,
        }
        start_shard = 0
        if round_index == resumed_round + 1 and resumed_accum is not None:
            accum.update(resumed_accum)
            start_shard = resumed_shards_done
            resumed_accum = None
        sim_func = config.build_sim_func(delta)
        for shard_pos in range(start_shard, plan.num_shards):
            context = shard_contexts[shard_pos]
            shard_start_scored = instrumentation.value(PAIRS_SCORED)
            shard_start_hits = context.cache.hits
            shard_start_misses = context.cache.misses
            if context.remaining_old_ids and context.remaining_new_ids:
                selection, candidate_units, prematch = _shard_round(
                    context,
                    old_source,
                    new_source,
                    sim_func,
                    blocker,
                    config,
                    backend,
                    record_mapping,
                    delta,
                    round_index,
                    instrumentation,
                    round_timer,
                )
                if validating:
                    with instrumentation.stage("validation"):
                        validate_selection(
                            selection,
                            record_mapping,
                            prematch,
                            delta,
                            config,
                            instrumentation=instrumentation,
                        ).raise_if_failed()
                partial_records = selection.extract_record_mapping()
                record_mapping.update(partial_records)
                group_mapping.update(selection.group_mapping)
                if provenance is not None:
                    for pair in partial_records:
                        provenance[pair] = LinkOrigin(
                            "subgraph", round_index, delta
                        )
                context.remaining_old_ids = [
                    record_id
                    for record_id in context.remaining_old_ids
                    if not record_mapping.contains_old(record_id)
                ]
                context.remaining_new_ids = [
                    record_id
                    for record_id in context.remaining_new_ids
                    if not record_mapping.contains_new(record_id)
                ]
                accum["candidate_subgraphs"] += candidate_units
                accum["accepted_group_links"] += len(selection.group_mapping)
                accum["new_record_links"] += len(partial_records)
            accum["pairs_scored"] += (
                instrumentation.value(PAIRS_SCORED) - shard_start_scored
            )
            accum["cache_hits"] += context.cache.hits - shard_start_hits
            accum["cache_misses"] += (
                context.cache.misses - shard_start_misses
            )
            if store is not None and shard_pos < plan.num_shards - 1:
                accum["seconds"] = round_timer.seconds("round")
                store.write_state(
                    capture(
                        SHARD_PHASE_ROUND,
                        round_index,
                        delta,
                        shards_done=shard_pos + 1,
                        round_complete=False,
                        round_accum=dict(accum),
                    ),
                    instrumentation=instrumentation,
                )

        iterations.append(
            IterationStats(
                iteration=round_index,
                delta=delta,
                candidate_subgraphs=int(accum["candidate_subgraphs"]),
                accepted_group_links=int(accum["accepted_group_links"]),
                new_record_links=int(accum["new_record_links"]),
                remaining_old=sum(
                    len(context.remaining_old_ids)
                    for context in shard_contexts
                ),
                remaining_new=sum(
                    len(context.remaining_new_ids)
                    for context in shard_contexts
                ),
                pairs_scored=int(accum["pairs_scored"]),
                cache_hits=int(accum["cache_hits"]),
                cache_misses=int(accum["cache_misses"]),
                seconds=round_timer.seconds("round"),
            )
        )
        # The global stopping rule, over the merged round — the lockstep
        # heart of the identity argument (Alg. 1 line 16).
        stopping = bool(
            not int(accum["accepted_group_links"])
            and config.stop_on_empty_round
        )
        if stopping:
            rounds_finished = True
        if store is not None:
            store.write_state(
                capture(
                    SHARD_PHASE_ROUND,
                    round_index,
                    delta,
                    shards_done=plan.num_shards,
                    round_complete=True,
                    round_accum=None,
                ),
                instrumentation=instrumentation,
            )
        if stopping:
            break

    subgraph_links = len(record_mapping)

    # Final remaining pass, shard by shard (Alg. 1 lines 17-19).
    remaining_total = RecordMapping()
    sim_func_rem = config.build_remaining_sim_func()
    with instrumentation.stage("remaining"):
        for context in shard_contexts:
            if not context.remaining_old_ids and not context.remaining_new_ids:
                continue
            remaining_mapping = _shard_remaining(
                context,
                old_source,
                new_source,
                sim_func_rem,
                blocker,
                config,
                group_mapping,
                instrumentation,
            )
            record_mapping.update(remaining_mapping)
            remaining_total.update(remaining_mapping)
            if provenance is not None:
                for pair in remaining_mapping:
                    provenance[pair] = LinkOrigin(
                        "remaining", None, config.remaining_threshold
                    )

    for context in shard_contexts:
        cache_totals["hits"] += context.cache.hits
        cache_totals["misses"] += context.cache.misses
        cache_totals["evictions"] += context.cache.evictions
    instrumentation.set_counter(CACHE_HITS, cache_totals["hits"])
    instrumentation.set_counter(CACHE_MISSES, cache_totals["misses"])
    instrumentation.set_counter(CACHE_EVICTIONS, cache_totals["evictions"])

    result = LinkageResult(
        record_mapping=record_mapping,
        group_mapping=group_mapping,
        iterations=iterations,
        remaining_record_links=len(remaining_total),
        subgraph_record_links=subgraph_links,
        profile=instrumentation,
        provenance=provenance,
    )
    if validating:
        # The full-result invariant registry needs resident datasets;
        # materialize them once, after all shard work is done.  Out-of-
        # core runs that cannot afford this should validate a sampled
        # sibling run instead.
        with instrumentation.stage("validation"):
            old_dataset = CensusDataset.from_records(
                old_source.year, list(old_source.iter_all())
            )
            new_dataset = CensusDataset.from_records(
                new_source.year, list(new_source.iter_all())
            )
            validate_result(
                result,
                old_dataset,
                new_dataset,
                config,
                instrumentation=instrumentation,
            ).raise_if_failed()
    if store is not None:
        store.write_state(
            capture(
                SHARD_PHASE_FINAL,
                iterations[-1].iteration if iterations else 0,
                iterations[-1].delta if iterations else None,
                shards_done=plan.num_shards,
                round_complete=True,
                round_accum=None,
                subgraph_links=subgraph_links,
                remaining_links=len(remaining_total),
            ),
            instrumentation=instrumentation,
        )
    return result


def _shard_visit_data(
    context: _ShardContext,
    old_source: ShardedRecordSource,
    new_source: ShardedRecordSource,
    config: LinkageConfig,
):
    """Materialize one shard's record-bearing structures for one visit."""
    old_records = CensusDataset.from_records(
        old_source.year, old_source.load(context.spec.old_ids)
    )
    new_records = CensusDataset.from_records(
        new_source.year, new_source.load(context.spec.new_ids)
    )
    return old_records, new_records


def _shard_round(
    context: _ShardContext,
    old_source: ShardedRecordSource,
    new_source: ShardedRecordSource,
    sim_func,
    blocker,
    config: LinkageConfig,
    backend,
    record_mapping: RecordMapping,
    delta: float,
    round_index: int,
    instrumentation: Instrumentation,
    round_timer: Instrumentation,
):
    """One shard's contribution to one δ round.

    Mirrors the per-round block of the in-RAM pipeline with the shard's
    persistent cache/pairs/filter and per-visit records/kernel.  Returns
    (selection, candidate_units, prematch).
    """
    old_dataset, new_dataset = _shard_visit_data(
        context, old_source, new_source, config
    )
    all_old = list(old_dataset.iter_records())
    all_new = list(new_dataset.iter_records())
    with instrumentation.stage("enrichment"):
        enriched_old = complete_groups(old_dataset)
        enriched_new = complete_groups(new_dataset)
    if context.cached_pairs is None:
        with instrumentation.stage("blocking"):
            context.cached_pairs = blocker.candidate_pairs(all_old, all_new)
    with instrumentation.stage("kernel_encoding"):
        kernel = config.build_scoring_kernel(
            config.build_sim_func(),
            all_old,
            all_new,
            candidate_filter=context.candidate_filter,
        )
    remaining_old = [
        record
        for record in all_old
        if not record_mapping.contains_old(record.record_id)
    ]
    remaining_new = [
        record
        for record in all_new
        if not record_mapping.contains_new(record.record_id)
    ]
    with round_timer.stage("round"), instrumentation.stage("prematching"):
        prematch = prematching(
            remaining_old,
            remaining_new,
            sim_func,
            blocker,
            cached_scores=context.cache,
            cached_pairs=context.cached_pairs,
            clustering=config.clustering,
            instrumentation=instrumentation,
            candidate_filter=context.candidate_filter,
            kernel=kernel,
        )
    outcome = backend.match_round(
        GroupRoundContext(
            prematch=prematch,
            old_households=enriched_old,
            new_households=enriched_new,
            config=config,
            record_mapping=record_mapping,
            group_index=GroupPairIndex(enriched_old, enriched_new),
            delta=delta,
            round_index=round_index,
            kernel=kernel,
            instrumentation=instrumentation,
            round_timer=round_timer,
        )
    )
    return outcome.selection, outcome.candidate_units, prematch


def _shard_remaining(
    context: _ShardContext,
    old_source: ShardedRecordSource,
    new_source: ShardedRecordSource,
    sim_func_rem,
    blocker,
    config: LinkageConfig,
    group_mapping: GroupMapping,
    instrumentation: Instrumentation,
) -> RecordMapping:
    """One shard's remaining pass; merges induced group links in place."""
    old_dataset, new_dataset = _shard_visit_data(
        context, old_source, new_source, config
    )
    remaining_old = old_dataset.subset(context.remaining_old_ids)
    remaining_new = new_dataset.subset(context.remaining_new_ids)
    # The cache/filter sharing rule of the in-RAM pipeline: identical
    # weights let the shard cache and pruning engine carry over; custom
    # remaining weights get private ones (scores are incomparable).
    shared_cache = (
        context.cache if config.remaining_weights is None else None
    )
    remaining_filter = (
        context.candidate_filter
        if config.remaining_weights is None
        else config.build_candidate_filter(sim_func_rem)
    )
    if config.remaining_weights is None:
        with instrumentation.stage("kernel_encoding"):
            kernel = config.build_scoring_kernel(
                config.build_sim_func(),
                list(old_dataset.iter_records()),
                list(new_dataset.iter_records()),
                candidate_filter=context.candidate_filter,
            )
    else:
        with instrumentation.stage("kernel_encoding"):
            kernel = config.build_scoring_kernel(
                sim_func_rem,
                remaining_old,
                remaining_new,
                candidate_filter=remaining_filter,
            )
    remaining_mapping = match_remaining(
        remaining_old,
        remaining_new,
        sim_func_rem,
        blocker,
        config.year_gap,
        config.max_normalised_age_difference,
        config.remaining_ambiguity_margin,
        cached_scores=shared_cache,
        instrumentation=instrumentation,
        candidate_filter=remaining_filter,
        kernel=kernel,
    )
    group_mapping.update(
        induced_group_mapping(
            remaining_mapping,
            household_of_map(old_dataset),
            household_of_map(new_dataset),
        )
    )
    return remaining_mapping


def _reconstruct_final(
    state: ShardRunState, instrumentation: Instrumentation
) -> LinkageResult:
    """Rebuild a completed sharded run's result from its final state."""
    for name, value in state.counters.items():
        if name not in META_COUNTERS:
            instrumentation.set_counter(name, value)
    provenance = (
        None
        if state.provenance is None
        else _provenance_from_rows(state.provenance)
    )
    return LinkageResult(
        record_mapping=RecordMapping(
            tuple(pair) for pair in state.record_pairs
        ),
        group_mapping=GroupMapping(
            tuple(pair) for pair in state.group_pairs
        ),
        iterations=[IterationStats(**stats) for stats in state.iterations],
        remaining_record_links=state.remaining_record_links or 0,
        subgraph_record_links=state.subgraph_record_links or 0,
        profile=instrumentation,
        provenance=provenance,
    )
