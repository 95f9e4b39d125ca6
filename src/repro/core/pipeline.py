"""Iterative record and group linkage — Algorithm 1 end to end.

:class:`IterativeGroupLinkage` wires together group enrichment,
pre-matching, subgraph matching, group-link selection and the final
remaining-record pass, relaxing the pre-matching threshold δ from
``δ_high`` down to ``δ_low`` so that safe matches anchor the harder ones.

Performance plumbing: one :class:`~repro.core.simcache.SimilarityCache`
serves every stage that needs ``agg_sim`` (Eq. 3) — candidate pairs are
scored at most once across the whole δ schedule, subsequent rounds only
re-test cached values against the new threshold, and (when the remaining
pass uses the main attribute weights) the final pass reuses the same
scores.  Bulk scoring runs in sorted pair order, and an
:class:`~repro.instrumentation.Instrumentation` collector times every
stage (see ``result.profile``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Set, Tuple, Union

from ..checkpoint import (
    PHASE_FINAL,
    PHASE_ROUND,
    CheckpointMismatch,
    CheckpointStore,
    RunState,
    coerce_store,
    dataset_fingerprint,
)
from ..checkpoint.ledger import META_COUNTERS
from ..instrumentation import (
    CACHE_EVICTIONS,
    CACHE_HITS,
    CACHE_MISSES,
    PAIRS_SCORED,
    SERIES_SEED_ENTRIES,
    Instrumentation,
)
from ..model.dataset import CensusDataset
from ..model.mappings import (
    GroupMapping,
    RecordMapping,
    household_of_map,
    induced_group_mapping,
)
from .backends import GroupRoundContext, get_backend
from .config import LinkageConfig
from .enrichment import complete_groups
from .prematching import prematching
from .remaining import match_remaining
from .simcache import SimilarityCache
from .subgraph import GroupPairIndex


@dataclass
class IterationStats:
    """Diagnostics of one δ round of the iterative loop (Alg. 1)."""

    iteration: int
    delta: float
    candidate_subgraphs: int
    accepted_group_links: int
    new_record_links: int
    remaining_old: int
    remaining_new: int
    #: ``agg_sim`` computations performed during this round (bulk and
    #: lazy); 0 from round 2 on proves the cross-round cache works.
    pairs_scored: int = 0
    #: Similarity-cache lookups served / missed during this round.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Wall-clock seconds of the round.
    seconds: float = 0.0


class LinkOrigin(NamedTuple):
    """Where a record link came from: which pass, round and threshold.

    Recorded per link when ``LinkageConfig(validate=True)`` so that the
    validation layer can check every link against the threshold of the
    pass that accepted it (``link-scores-reach-threshold``).
    """

    #: ``"subgraph"`` (a δ round of Alg. 1) or ``"remaining"`` (line 17).
    source: str
    #: 1-based δ round, or ``None`` for the remaining pass.
    round: Optional[int]
    #: The δ (or remaining threshold) in force when the link was accepted.
    threshold: float


@dataclass
class LinkageResult:
    """Output of Algorithm 1 plus per-round diagnostics."""

    record_mapping: RecordMapping
    group_mapping: GroupMapping
    iterations: List[IterationStats] = field(default_factory=list)
    remaining_record_links: int = 0
    #: Record links found via subgraph matching (before the remaining pass).
    subgraph_record_links: int = 0
    #: Per-stage timers and event counters of the whole run.
    profile: Optional[Instrumentation] = None
    #: Per-link :class:`LinkOrigin`, populated only when the run was
    #: validated (``LinkageConfig.validate``); ``None`` otherwise.
    provenance: Optional[Dict[Tuple[str, str], LinkOrigin]] = None
    #: The run's similarity cache, kept only when the caller passed
    #: ``keep_cache=True`` (the incremental series engine harvests its
    #: pinned scores and pruning bounds); ``None`` otherwise.
    cache: Optional[SimilarityCache] = None

    @property
    def num_record_links(self) -> int:
        return len(self.record_mapping)

    @property
    def num_group_links(self) -> int:
        return len(self.group_mapping)


class IterativeGroupLinkage:
    """Temporal record and group linkage between two census snapshots.

    Usage::

        linker = IterativeGroupLinkage(LinkageConfig())
        result = linker.link(census_1871, census_1881)
        result.record_mapping   # 1:1 person links
        result.group_mapping    # N:M household links
        print(result.profile.report())  # stage timers + counters
    """

    def __init__(self, config: Optional[LinkageConfig] = None) -> None:
        self.config = config or LinkageConfig()

    # -- main entry point -----------------------------------------------------

    def link(
        self,
        old_dataset: CensusDataset,
        new_dataset: CensusDataset,
        checkpoint_dir: Optional[Union[str, Path, CheckpointStore]] = None,
        resume: bool = False,
        cache_seed=None,
        keep_cache: bool = False,
    ) -> LinkageResult:
        """Run Algorithm 1 on two successive census datasets.

        With ``checkpoint_dir`` set, a :class:`RunState` snapshot is
        atomically persisted after every ``config.checkpoint_every``-th
        δ round (always after a stopping round) and once more after the
        final remaining pass.  With ``resume=True`` the run continues
        from the newest loadable snapshot in that directory — producing
        byte-identical mappings, per-round ledgers and event counters to
        an uninterrupted run (``repro.checkpoint.ledger_hash``).  A
        checkpoint recorded under a different configuration or different
        input data is rejected with :class:`CheckpointMismatch`.

        ``cache_seed`` (a :class:`repro.checkpoint.series.CacheSeed`)
        pre-populates the similarity cache with scores and bounds a
        previous run settled for unchanged records — the decisions are
        provably unaffected (see :meth:`SimilarityCache.seed`), only the
        re-scoring work is skipped.  ``keep_cache=True`` exposes the
        final cache on ``result.cache`` so the incremental series engine
        can persist it.
        """
        config = self.config
        blocker = config.build_blocker()
        instrumentation = Instrumentation()
        validating = config.validate
        provenance: Optional[Dict[Tuple[str, str], LinkOrigin]] = (
            {} if validating else None
        )

        store = coerce_store(checkpoint_dir)
        config_fp = config.fingerprint() if store is not None else ""
        data_fp = (
            dataset_fingerprint(old_dataset, new_dataset)
            if store is not None
            else ""
        )
        resumed: Optional[RunState] = None
        if resume:
            if store is None:
                raise ValueError(
                    "resume=True requires a checkpoint directory"
                )
            resumed = store.load_latest(instrumentation=instrumentation)
        if resumed is not None:
            if resumed.config_fingerprint != config_fp:
                raise CheckpointMismatch(
                    f"checkpoint was recorded under configuration "
                    f"{resumed.config_fingerprint}, current configuration "
                    f"is {config_fp}"
                )
            if resumed.data_fingerprint != data_fp:
                raise CheckpointMismatch(
                    f"checkpoint was recorded for input data "
                    f"{resumed.data_fingerprint}, current input data is "
                    f"{data_fp}"
                )
            if resumed.phase == PHASE_FINAL:
                # The run already completed (and, when configured, was
                # validated — the final snapshot is written only after
                # validation passes): reconstruct the result outright.
                return _reconstruct_final(resumed, instrumentation)

        if validating:
            # Imported lazily: core must stay importable without the
            # validation package, and the checks cost nothing when off.
            from ..validation.invariants import (
                validate_result,
                validate_selection,
            )

        with instrumentation.stage("enrichment"):
            enriched_old = complete_groups(old_dataset)
            enriched_new = complete_groups(new_dataset)
        old_household_of = household_of_map(old_dataset)
        new_household_of = household_of_map(new_dataset)

        all_old = list(old_dataset.iter_records())
        all_new = list(new_dataset.iter_records())

        # Candidate pairs and their scores are δ-independent: generate
        # and score once, reuse in every round.  Candidate scores are
        # pinned in the cache; lazy pair_sim additions go through its
        # bounded LRU (see repro.core.simcache).
        with instrumentation.stage("blocking"):
            cached_pairs: Set[Tuple[str, str]] = blocker.candidate_pairs(
                all_old, all_new
            )
        cache = SimilarityCache(
            max_lazy_entries=config.max_lazy_cache_entries or None
        )
        if cache_seed is not None:
            # Seeded before journalling so round-boundary checkpoints of
            # a seeded run capture the seed rows too.
            cache.seed(cache_seed.pinned, cache_seed.bounds)
            instrumentation.count(
                SERIES_SEED_ENTRIES, cache_seed.num_entries
            )
        if store is not None and config.checkpoint_cache:
            # Journalled exports: rows are serialized as they are pinned
            # or bounded, so per-round checkpoints don't rebuild the
            # whole cache document.
            cache.enable_export_journal()
        # One pruning engine for the whole schedule: it is δ-agnostic
        # (δ is an argument of each evaluation) and its per-string
        # length statistics warm up across rounds.  ``None`` = off.
        candidate_filter = config.build_candidate_filter(
            config.build_sim_func()
        )
        # One batch scoring kernel for the whole schedule (``None`` =
        # python backend or no numpy): attribute columns of *all*
        # records are encoded once here, so every round's shrinking
        # frontier just gathers rows from the same tables.  The
        # kernel replays the pruning engine's exact FilteringConfig.
        with instrumentation.stage("kernel_encoding"):
            kernel = config.build_scoring_kernel(
                config.build_sim_func(),
                all_old,
                all_new,
                candidate_filter=candidate_filter,
            )

        record_mapping = RecordMapping()
        group_mapping = GroupMapping()
        remaining_old = all_old
        remaining_new = all_new
        iterations: List[IterationStats] = []
        resumed_round = 0
        rounds_finished = False
        if resumed is not None:
            # Restore everything the interrupted run had decided at the
            # boundary.  The frontier is recomputed by filtering the full
            # record lists against the restored mapping — identical to
            # the incremental filtering of the original rounds, since
            # both preserve dataset iteration order.
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
                # checkpoint_* counters stay per-process: they meter this
                # run's own I/O, not the interrupted run's.
                if name not in META_COUNTERS:
                    instrumentation.set_counter(name, value)
            if resumed.cache is not None:
                cache = SimilarityCache.from_export(
                    resumed.cache,
                    max_lazy_entries=config.max_lazy_cache_entries or None,
                )
            resumed_round = resumed.round_index
            rounds_finished = resumed.rounds_finished
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

        # The record→household maps behind candidate group-pair
        # enumeration (§3.3) are δ-independent: build the inverted index
        # once and reuse it in every round.
        group_index = GroupPairIndex(enriched_old, enriched_new)
        # The group-matching slot (§3.3–§3.4) is pluggable: the paper's
        # subgraph engine is the "default" registered backend, selected
        # like any alternative via config.group_backend (see
        # repro.core.backends).  Everything around the slot — prematching,
        # validation, link merging, stats, checkpoints — is shared.
        backend = get_backend(config.group_backend)

        schedule = list(config.threshold_schedule())
        for round_index, delta in enumerate(schedule, start=1):
            if round_index <= resumed_round:
                continue  # already completed before the interruption
            if rounds_finished:
                break  # the interrupted run had already stopped the loop
            if not remaining_old or not remaining_new:
                break
            round_start_scored = instrumentation.value(PAIRS_SCORED)
            round_start_hits = cache.hits
            round_start_misses = cache.misses
            round_timer = Instrumentation()
            sim_func = config.build_sim_func(delta)
            with round_timer.stage("round"), instrumentation.stage("prematching"):
                prematch = prematching(
                    remaining_old,
                    remaining_new,
                    sim_func,
                    blocker,
                    cached_scores=cache,
                    cached_pairs=cached_pairs,
                    clustering=config.clustering,
                    instrumentation=instrumentation,
                    candidate_filter=candidate_filter,
                    kernel=kernel,
                )

            outcome = backend.match_round(
                GroupRoundContext(
                    prematch=prematch,
                    old_households=enriched_old,
                    new_households=enriched_new,
                    config=config,
                    record_mapping=record_mapping,
                    group_index=group_index,
                    delta=delta,
                    round_index=round_index,
                    kernel=kernel,
                    instrumentation=instrumentation,
                    round_timer=round_timer,
                )
            )
            selection = outcome.selection

            if validating:
                # Check the round's selection against the Alg. 2 contracts
                # *before* merging its links; a violation aborts the run.
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
                    provenance[pair] = LinkOrigin("subgraph", round_index, delta)

            remaining_old = [
                record
                for record in remaining_old
                if not record_mapping.contains_old(record.record_id)
            ]
            remaining_new = [
                record
                for record in remaining_new
                if not record_mapping.contains_new(record.record_id)
            ]
            iterations.append(
                IterationStats(
                    iteration=round_index,
                    delta=delta,
                    candidate_subgraphs=outcome.candidate_units,
                    accepted_group_links=len(selection.group_mapping),
                    new_record_links=len(partial_records),
                    remaining_old=len(remaining_old),
                    remaining_new=len(remaining_new),
                    pairs_scored=instrumentation.value(PAIRS_SCORED)
                    - round_start_scored,
                    cache_hits=cache.hits - round_start_hits,
                    cache_misses=cache.misses - round_start_misses,
                    seconds=round_timer.seconds("round"),
                )
            )
            stopping = bool(
                not selection.group_mapping and config.stop_on_empty_round
            )
            if store is not None and (
                stopping or round_index % config.checkpoint_every == 0
            ):
                store.write_state(
                    _capture_state(
                        phase=PHASE_ROUND,
                        round_index=round_index,
                        delta=delta,
                        schedule=schedule,
                        rounds_finished=stopping,
                        record_mapping=record_mapping,
                        group_mapping=group_mapping,
                        iterations=iterations,
                        provenance=provenance,
                        instrumentation=instrumentation,
                        cache=cache,
                        config=config,
                        config_fingerprint=config_fp,
                        data_fingerprint=data_fp,
                    ),
                    instrumentation=instrumentation,
                )
            if stopping:
                break  # Alg. 1 line 16: stop when a round finds nothing

        subgraph_links = len(record_mapping)

        # Final attribute-only pass over leftover records (lines 17-19).
        # Sim_func_rem shares agg_sim with Sim_func when the weights (and
        # missing policy) are identical, so the cache carries over; with
        # custom remaining weights the scores are incomparable and the
        # pass gets a private store.
        shared_cache = cache if config.remaining_weights is None else None
        sim_func_rem = config.build_remaining_sim_func()
        # The pruning engine follows the same sharing rule as the cache:
        # with the main weights its bounds and statistics carry over;
        # custom remaining weights need their own engine.
        remaining_filter = (
            candidate_filter
            if config.remaining_weights is None
            else config.build_candidate_filter(sim_func_rem)
        )
        # So does the kernel: its encoded weights/comparators must match
        # the similarity function it scores for, so custom remaining
        # weights get a private kernel (encoded over just the leftover
        # records — the only ones this pass can pair).
        if config.remaining_weights is None:
            remaining_kernel = kernel
        else:
            with instrumentation.stage("kernel_encoding"):
                remaining_kernel = config.build_scoring_kernel(
                    sim_func_rem,
                    remaining_old,
                    remaining_new,
                    candidate_filter=remaining_filter,
                )
        with instrumentation.stage("remaining"):
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
                kernel=remaining_kernel,
            )
        record_mapping.update(remaining_mapping)
        group_mapping.update(
            induced_group_mapping(
                remaining_mapping, old_household_of, new_household_of
            )
        )
        if provenance is not None:
            for pair in remaining_mapping:
                provenance[pair] = LinkOrigin(
                    "remaining", None, config.remaining_threshold
                )

        instrumentation.set_counter(CACHE_HITS, cache.hits)
        instrumentation.set_counter(CACHE_MISSES, cache.misses)
        instrumentation.set_counter(CACHE_EVICTIONS, cache.evictions)

        result = LinkageResult(
            record_mapping=record_mapping,
            group_mapping=group_mapping,
            iterations=iterations,
            remaining_record_links=len(remaining_mapping),
            subgraph_record_links=subgraph_links,
            profile=instrumentation,
            provenance=provenance,
            cache=cache if keep_cache else None,
        )
        if validating:
            # Full-result pass over the invariant registry (Eq. 1/2,
            # δ schedule, witness and threshold checks).
            with instrumentation.stage("validation"):
                validate_result(
                    result,
                    old_dataset,
                    new_dataset,
                    config,
                    instrumentation=instrumentation,
                ).raise_if_failed()
        if store is not None:
            # Written only after validation passed, so a final snapshot
            # certifies a complete validated run; resuming from it is a
            # pure reconstruction (see _reconstruct_final).
            store.write_state(
                _capture_state(
                    phase=PHASE_FINAL,
                    round_index=(
                        iterations[-1].iteration if iterations else 0
                    ),
                    delta=iterations[-1].delta if iterations else None,
                    schedule=schedule,
                    rounds_finished=True,
                    record_mapping=record_mapping,
                    group_mapping=group_mapping,
                    iterations=iterations,
                    provenance=provenance,
                    instrumentation=instrumentation,
                    cache=cache,
                    config=config,
                    config_fingerprint=config_fp,
                    data_fingerprint=data_fp,
                    subgraph_record_links=subgraph_links,
                    remaining_record_links=len(remaining_mapping),
                ),
                instrumentation=instrumentation,
            )
        return result


def _provenance_rows(
    provenance: Optional[Dict[Tuple[str, str], LinkOrigin]],
) -> Optional[List[List[object]]]:
    """Provenance table as canonical sorted JSON-safe rows."""
    if provenance is None:
        return None
    return [
        [old_id, new_id, origin.source, origin.round, origin.threshold]
        for (old_id, new_id), origin in sorted(provenance.items())
    ]


def _provenance_from_rows(
    rows: List[List[object]],
) -> Dict[Tuple[str, str], LinkOrigin]:
    """Inverse of :func:`_provenance_rows`."""
    return {
        (old_id, new_id): LinkOrigin(source, round_index, threshold)
        for old_id, new_id, source, round_index, threshold in rows
    }


def _capture_state(
    *,
    phase: str,
    round_index: int,
    delta: Optional[float],
    schedule: List[float],
    rounds_finished: bool,
    record_mapping: RecordMapping,
    group_mapping: GroupMapping,
    iterations: List[IterationStats],
    provenance: Optional[Dict[Tuple[str, str], LinkOrigin]],
    instrumentation: Instrumentation,
    cache: Optional[SimilarityCache],
    config: LinkageConfig,
    config_fingerprint: str,
    data_fingerprint: str,
    subgraph_record_links: Optional[int] = None,
    remaining_record_links: Optional[int] = None,
) -> RunState:
    """Snapshot the pipeline's decided state at a round boundary.

    Everything is captured in canonical form (sorted mapping rows,
    plain-dict iteration ledgers, sorted provenance rows) so the
    checkpoint bytes are deterministic for a given run prefix.
    """
    return RunState(
        round_index=round_index,
        phase=phase,
        delta=delta,
        schedule=tuple(schedule),
        rounds_finished=rounds_finished,
        record_pairs=record_mapping.as_jsonable(),
        group_pairs=group_mapping.as_jsonable(),
        iterations=[dataclasses.asdict(stats) for stats in iterations],
        provenance=_provenance_rows(provenance),
        counters=dict(instrumentation.counters),
        cache=(
            cache.export_state()
            if cache is not None and config.checkpoint_cache
            else None
        ),
        config_fingerprint=config_fingerprint,
        data_fingerprint=data_fingerprint,
        subgraph_record_links=subgraph_record_links,
        remaining_record_links=remaining_record_links,
    )


def _reconstruct_final(
    state: RunState, instrumentation: Instrumentation
) -> LinkageResult:
    """Rebuild a completed run's :class:`LinkageResult` from its final
    checkpoint without recomputing anything.

    Counters are restored wholesale (minus the per-process
    ``checkpoint_*`` meta counters), so the reconstructed result's
    ledger hashes equal to the uninterrupted run's.
    """
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


def link_datasets(
    old_dataset: CensusDataset,
    new_dataset: CensusDataset,
    config: Optional[LinkageConfig] = None,
    checkpoint_dir: Optional[Union[str, Path, CheckpointStore]] = None,
    resume: bool = False,
    cache_seed=None,
    keep_cache: bool = False,
) -> LinkageResult:
    """Convenience wrapper: run Algorithm 1 on two datasets with the
    given (or default) configuration, optionally checkpointing each
    round boundary to ``checkpoint_dir`` and resuming from the newest
    snapshot there (``resume=True``).  ``cache_seed``/``keep_cache``
    feed the incremental series engine (see
    :meth:`IterativeGroupLinkage.link`).

    ``config.shards >= 1`` dispatches to the sharded out-of-core driver
    (:func:`repro.sharding.link_datasets_sharded`), which produces the
    same decisions shard by shard; ``cache_seed``/``keep_cache`` are
    in-RAM-only and rejected there.
    """
    if config is not None and config.shards > 0:
        if cache_seed is not None or keep_cache:
            raise ValueError(
                "cache_seed/keep_cache require the in-RAM pipeline; "
                "sharded runs (LinkageConfig.shards >= 1) rebuild caches "
                "per shard and cannot seed or export them"
            )
        from ..sharding.pipeline import link_datasets_sharded

        return link_datasets_sharded(
            old_dataset,
            new_dataset,
            config,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
        )
    return IterativeGroupLinkage(config).link(
        old_dataset,
        new_dataset,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        cache_seed=cache_seed,
        keep_cache=keep_cache,
    )
