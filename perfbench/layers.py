"""Which public attributes of the program are wrapped, and as which layer.

Each layer name below is a repo module (``core.prematching`` is
``repro.core.prematching``).  A function is wrapped at the attribute its
caller looks it up through, so a call site that moves to another module
drops the span — and :func:`missing_spans` turns that into a loud
failure of the traced run instead of a silently thinner breakdown.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Spans every traced run of a workload must record at least once.
EXPECTED_SPANS: Dict[str, Tuple[str, ...]] = {
    "pair-200": (
        "model.io", "core.pipeline", "blocking", "core.kernel.encode",
        "core.kernel", "core.prematching", "core.subgraph", "core.scoring",
        "core.selection", "core.remaining",
    ),
    "country-sharded": (
        "sharding.driver", "sharding.plan", "sharding.store_read",
        "sharding.source_load", "blocking", "core.kernel.encode",
        "core.kernel", "core.prematching", "core.subgraph", "core.scoring",
        "core.selection", "core.remaining",
    ),
    "series-arrival": (
        "evolution.analysis", "evolution.patterns", "checkpoint.series.load",
        "checkpoint.series.write", "core.pipeline", "blocking",
        "core.prematching", "core.subgraph", "core.scoring",
        "core.selection", "core.remaining", "service.store.publish",
    ),
    "service-query": ("service.store.load", "service.core"),
}


def _blocker_classes() -> List[type]:
    from repro.blocking.pairs import UnionBlocker
    from repro.blocking.qgram_index import QGramIndexBlocker
    from repro.blocking.region import RegionBlocker
    from repro.blocking.sorted_neighbourhood import SortedNeighbourhoodBlocker
    from repro.blocking.standard import CrossProductBlocker, StandardBlocker

    return [StandardBlocker, CrossProductBlocker, RegionBlocker,
            UnionBlocker, QGramIndexBlocker, SortedNeighbourhoodBlocker]


def _max_records_per_shard(plan) -> int:
    return max((shard.num_records for shard in plan.shards), default=0)


def install_linkage(tracer) -> None:
    """Wrap the linkage, sharding, series and store layers."""
    import repro.checkpoint.series as series
    import repro.core.backends as backends
    import repro.core.config as config
    import repro.core.kernel.batch as batch
    import repro.core.pipeline as pipeline
    import repro.evolution.analysis as analysis
    import repro.model.io as model_io
    import repro.service.store as service_store
    import repro.sharding.pipeline as sharded
    import repro.sharding.store as shard_store

    tracer.patch(model_io, "read_dataset", "model.io")
    for blocker in _blocker_classes():
        tracer.patch(blocker, "candidate_pairs", "blocking", on_result=len)
    tracer.patch(config.LinkageConfig, "build_scoring_kernel",
                 "core.kernel.encode")
    tracer.patch(batch.BatchScoringKernel, "evaluate_chunk", "core.kernel")
    tracer.patch(batch.BatchScoringKernel, "agg_sim_chunk", "core.kernel")
    for module in (pipeline, sharded):
        tracer.patch(module, "prematching", "core.prematching")
        tracer.patch(module, "match_remaining", "core.remaining")
    tracer.patch(backends, "build_all_subgraphs", "core.subgraph")
    tracer.patch(backends, "score_subgraphs", "core.scoring")
    tracer.patch(backends, "select_group_matches", "core.selection")
    tracer.patch(pipeline.IterativeGroupLinkage, "link", "core.pipeline")
    tracer.patch(sharded, "link_datasets_sharded", "sharding.driver")
    tracer.patch(sharded, "plan_shards", "sharding.plan",
                 on_result=_max_records_per_shard)
    tracer.patch(shard_store.ShardStore, "read_shard", "sharding.store_read")
    for source in sharded.ShardedRecordSource.__subclasses__():
        tracer.patch(source, "load", "sharding.source_load")
    tracer.patch(series.SeriesStore, "load_pair", "checkpoint.series.load")
    tracer.patch(series.SeriesStore, "write_pair", "checkpoint.series.write")
    tracer.patch(analysis, "analyse_series", "evolution.analysis")
    tracer.patch(analysis, "extract_patterns", "evolution.patterns")
    tracer.patch(service_store.EvolutionStore, "publish",
                 "service.store.publish",
                 on_result=lambda report: len(report.segments_written))
    tracer.patch(service_store.EvolutionStore, "load_graph",
                 "service.store.load")


def install_service(tracer) -> None:
    """Wrap the store load and the sans-IO request handler (server side)."""
    import repro.service.core as service_core
    import repro.service.store as service_store

    tracer.patch(service_store.EvolutionStore, "load_graph",
                 "service.store.load")
    tracer.patch(service_core.EvolutionQueryService, "handle_request",
                 "service.core")


def missing_spans(workload: str, calls: Dict[str, int]) -> List[str]:
    return [name for name in EXPECTED_SPANS[workload] if not calls.get(name)]
