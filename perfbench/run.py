"""The repository's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload pair-200 --seed 1 --seconds 18 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``pair-200`` — in-RAM Alg. 1 linkage of census pairs of 200 households;
* ``country-sharded`` — sharded out-of-core linkage of a multi-region
  country read from a ``ShardStore``;
* ``series-arrival`` — one-record revisions arriving into a warm
  incremental series, re-analysed and published to an ``EvolutionStore``;
* ``service-query`` — open-loop HTTP queries against the evolution-graph
  service running in its own process.

Inputs are generated here from ``--seed`` and handed to the process
under test as files; the generator is never timed.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` runs the ops with span wrappers
around each layer and prints the per-layer metrics instead.  Every
output is checked: pinned hashes where ``pins.json`` has the input (every
pair-200 input is pinned), and the repository's own oracles otherwise.
The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Human-readable reports go to standard error; a full
record (environment included) and, for traced runs, a Trace Event
Format file go under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BENCH_DIR,
    WORK_ROOT,
    BenchError,
    child_env,
    environment,
    median,
    percentile,
    pin_to_cpu,
    read_json,
    require_program,
    run_child,
    steal_ticks,
    wait_with_rusage,
    write_json,
)
import speed  # noqa: E402

clock = time.perf_counter

WORKLOADS = ("pair-200", "country-sharded", "series-arrival", "service-query")

#: End-to-end metrics (every workload reports every one) and units.
END_TO_END = {"op_latency_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metrics of traced runs and units; a layer a workload does
#: not exercise reads 0 there.
PER_LAYER = {
    "model.io.read_s": "s",
    "blocking.self_s": "s",
    "blocking.candidate_pairs": "count",
    "core.kernel.encode_s": "s",
    "core.kernel.self_s": "s",
    "core.kernel.pairs": "count",
    "core.prematching.self_s": "s",
    "core.prematching.pairs_scored": "count",
    "core.prematching.prune_ratio": "ratio",
    "core.simcache.hit_ratio": "ratio",
    "core.subgraph.self_s": "s",
    "core.subgraph.built": "count",
    "core.subgraph.group_pairs": "count",
    "core.scoring.self_s": "s",
    "core.selection.self_s": "s",
    "core.selection.queue_pops": "count",
    "core.remaining.self_s": "s",
    "core.pipeline.self_s": "s",
    "sharding.driver.self_s": "s",
    "sharding.plan_s": "s",
    "sharding.store_read_s": "s",
    "sharding.visits": "count",
    "sharding.records_per_shard_max": "count",
    "checkpoint.series.load_s": "s",
    "checkpoint.series.write_s": "s",
    "checkpoint.series.pairs_relinked": "count",
    "checkpoint.series.pairs_reused": "count",
    "checkpoint.series.pairs_rescored": "count",
    "checkpoint.series.seed_entries": "count",
    "checkpoint.series.keys_dirty": "count",
    "evolution.analysis.self_s": "s",
    "evolution.patterns.self_s": "s",
    "service.store.publish_s": "s",
    "service.store.segments_written": "count",
    "service.store.load_s": "s",
    "service.core.handle_hit_ms": "ms",
    "service.core.handle_miss_ms": "ms",
    "service.core.cache_hit_ratio": "ratio",
    "service.http.overhead_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

#: Self-time metrics and the span each one sums.
SELF_TIME_SPANS = {
    "blocking.self_s": "blocking",
    "core.kernel.encode_s": "core.kernel.encode",
    "core.kernel.self_s": "core.kernel",
    "core.prematching.self_s": "core.prematching",
    "core.subgraph.self_s": "core.subgraph",
    "core.scoring.self_s": "core.scoring",
    "core.selection.self_s": "core.selection",
    "core.remaining.self_s": "core.remaining",
    "core.pipeline.self_s": "core.pipeline",
    "sharding.driver.self_s": "sharding.driver",
    "sharding.plan_s": "sharding.plan",
    "sharding.store_read_s": "sharding.store_read",
    "checkpoint.series.load_s": "checkpoint.series.load",
    "checkpoint.series.write_s": "checkpoint.series.write",
    "evolution.analysis.self_s": "evolution.analysis",
    "evolution.patterns.self_s": "evolution.patterns",
    "service.store.publish_s": "service.store.publish",
}

#: Counter metrics and the ``result.profile`` / ``analysis.profile``
#: counter each one reads.
PROFILE_COUNTERS = {
    "core.prematching.pairs_scored": "pairs_scored",
    "core.kernel.pairs": "kernel_pairs",
    "core.subgraph.built": "subgraphs_built",
    "core.subgraph.group_pairs": "group_pairs_candidates",
    "core.selection.queue_pops": "queue_pops",
    "checkpoint.series.pairs_relinked": "series_pairs_relinked",
    "checkpoint.series.pairs_reused": "series_pairs_reused",
    "checkpoint.series.pairs_rescored": "pairs_rescored",
    "checkpoint.series.seed_entries": "series_seed_entries",
    "checkpoint.series.keys_dirty": "series_keys_dirty",
    "service.store.segments_written": "segments_written",
}

PRUNE_COUNTERS = ("pairs_pruned_length", "pairs_pruned_qgram",
                  "pairs_pruned_early_exit")

# -- workload sizes ----------------------------------------------------------

#: Inputs of a fixed size: candidates are generated from successive
#: sub-seeds until one's work proxy lies within the tolerance of the
#: target.  One population of a given household count can have 1.3x the
#: records of another, and op cost follows the records paired up: old x
#: new records for pair-200 and country-sharded (per region), and the
#: blocking candidate pairs of the two linked pairs for series-arrival,
#: where a common surname in a small series moves the cost most.
MAX_DRAWS = 200
#: pair-200: census pairs per run, each a different population, so one
#: run averages over several.  They are drawn by the seed from the
#: catalogue of populations pinned in ``pins.json`` (``pin.py``), so
#: every op of every seed is checked against a pinned hash.
PAIR_POOL = 6
#: pair-200 populations ``pin.py`` adds to the catalogue per seed.
PAIR_CATALOGUE_PER_SEED = 8
PAIR_HOUSEHOLDS = 200
PAIR_WORK = (1_180_000, 0.03)
#: Populations of that size still differ by up to 1.8x in op cost.
#: Their blocking candidate pairs explain part of it (correlation 0.64
#: over 38 catalogue populations), so a run takes, in the seed's order,
#: only catalogue populations with candidate pairs within this of the
#: target: about two in five.
PAIR_CANDIDATES = (131_000, 0.05)
#: country-sharded: countries per run (op cost still differs by up to
#: 1.3x between countries of equal size, so a run averages over
#: several), regions x households each, four shards.
COUNTRY_POOL = 3
COUNTRY_REGIONS = 8
COUNTRY_HOUSEHOLDS = 25
COUNTRY_SHARDS = 4
COUNTRY_WORK = (148_000, 0.04)
#: series-arrival: independent series per run, snapshots x initial
#: households each, and the records of each revised in turn.
SERIES_POOL = 4
SERIES_SNAPSHOTS = 4
SERIES_HOUSEHOLDS = 50
SERIES_REVISED_RECORDS = 1
SERIES_WORK = (24_000, 0.04)
#: service-query: the served graph (sized by its records, which set the
#: number of targets and so the cache hit ratio) and the open-loop load.
SERVICE_SNAPSHOTS = 4
SERVICE_HOUSEHOLDS = 80
SERVICE_WORK = (1_950, 0.03)
REFERENCE_RATE = 300.0
#: The reference rate runs in slices of this many seconds, with the speed
#: reference (:mod:`speed`) between each two.
SLICE_S = 2.0
WARM_RATE = 800.0
WARM_REQUESTS = 1600
#: Server starts per run (``setup_s`` is their median): half before the
#: load and half after it, so the samples span the run.
SERVICE_STARTS = 12

CHILD_TIMEOUT_S = 160.0
#: Finished runs kept before one bulk delete (see :func:`retire`); a
#: series of ~100 runs leaves one to two GB (a country-sharded run keeps
#: every set-up's store, ~60 MB).
RETIRED_RUNS = 100

PINS = BENCH_DIR / "pins.json"


def draw_sized(seed: int, index: int, generate, work, size):
    """``(sub-seed, inputs)`` of the first candidate, drawn from the
    sub-seeds of ``(seed, index)``, whose ``work(inputs)`` lies within
    ``size = (target, tolerance)``."""
    target, tolerance = size
    for attempt in range(MAX_DRAWS):
        member_seed = seed * 10_000 + index * 100 + attempt
        inputs = generate(member_seed)
        if abs(work(inputs) / target - 1) <= tolerance:
            return member_seed, inputs
    raise BenchError(f"no input of work {target} +/- {tolerance:.0%} in "
                     f"{MAX_DRAWS} draws for seed {seed}")


def load_pins() -> Dict[str, Dict[str, object]]:
    return read_json(PINS) if PINS.is_file() else {}


def pooled(samples: Sequence[Tuple[int, float]]) -> float:
    """Mean over the run's inputs of each input's median sample: every
    input weighs the same however many ops it got."""
    by_member: Dict[int, List[float]] = defaultdict(list)
    for member, value in samples:
        by_member[member].append(value)
    return sum(median(values) for values in by_member.values()) / len(by_member)


# -- fixtures (inputs, generated here and never timed) -----------------------


def draw_pair(seed: int, index: int):
    """``(sub-seed, (old, new))`` of a census pair of the pair-200 size;
    ``pin.py`` adds these to the catalogue."""
    from repro.datagen import generate_pair

    return draw_sized(
        seed, index,
        lambda s: generate_pair(
            seed=s, initial_households=PAIR_HOUSEHOLDS
        ).datasets,
        lambda pair: len(pair[0]) * len(pair[1]),
        PAIR_WORK,
    )


def pair_fixtures(seed: int, workdir: Path) -> Dict[str, object]:
    """``PAIR_POOL`` populations of the pinned catalogue, taken in the
    seed's order among those of ``PAIR_CANDIDATES`` blocking candidate
    pairs, each written as a pair of CSVs."""
    from repro.core.config import LinkageConfig
    from repro.datagen import generate_pair
    from repro.model.io import write_dataset

    catalogue = sorted(int(s) for s in load_pins().get("pair-200", {}))
    blocker = LinkageConfig().build_blocker()
    target, tolerance = PAIR_CANDIDATES
    seeds, pairs = [], []
    for member_seed in random.Random(seed).sample(catalogue, len(catalogue)):
        datasets = generate_pair(seed=member_seed,
                                 initial_households=PAIR_HOUSEHOLDS).datasets
        old, new = (list(dataset.iter_records()) for dataset in datasets)
        if abs(len(blocker.candidate_pairs(old, new)) / target - 1) > tolerance:
            continue
        paths = []
        for dataset in datasets:
            path = workdir / f"pair{len(pairs)}_{dataset.year}.csv"
            write_dataset(dataset, path)
            paths.append(str(path))
        pairs.append(paths)
        seeds.append(member_seed)
        if len(pairs) == PAIR_POOL:
            return {"pairs": pairs, "member_seeds": seeds}
    raise BenchError(f"{PINS} pins {len(seeds)} pair-200 populations of "
                     f"{target} +/- {tolerance:.0%} candidate pairs, fewer "
                     f"than the {PAIR_POOL} a run links; run perfbench/pin.py")


def country_fixtures(seed: int, workdir: Path) -> Dict[str, object]:
    """A pool of independent countries (one per sub-seed), each written
    as one CSV per snapshot.  Op ``m`` links country ``m``."""
    from repro.datagen.country import (
        CountryConfig,
        generate_country,
        region_of,
    )
    from repro.model.io import write_dataset

    def region_work(country) -> int:
        old, new = country.datasets[:2]
        new_sizes = Counter(region_of(record_id)
                            for record_id in new.record_ids)
        return sum(count * new_sizes[region] for region, count in Counter(
            region_of(record_id) for record_id in old.record_ids
        ).items())

    pool = []
    for index in range(COUNTRY_POOL):
        country_seed, country = draw_sized(
            seed, index,
            lambda s: generate_country(CountryConfig(
                seed=s, regions=COUNTRY_REGIONS,
                households_per_region=COUNTRY_HOUSEHOLDS,
            )),
            region_work,
            COUNTRY_WORK,
        )
        snapshots = []
        for dataset in country.datasets:
            path = workdir / f"country{index}_{dataset.year}.csv"
            write_dataset(dataset, path)
            snapshots.append(str(path))
        pool.append({"snapshots": snapshots, "country": country,
                     "country_seed": country_seed})
    return {"countries": pool, "shards": COUNTRY_SHARDS,
            "workdir": str(workdir)}


def series_fixtures(seed: int, workdir: Path) -> Dict[str, object]:
    """A pool of independent series (one per sub-seed).  Op ``m`` is an
    arrival on series ``m % SERIES_POOL``; each series steps through its
    own cycle of revision states, one record changed per step."""
    from repro.core.config import LinkageConfig
    from repro.datagen.generator import GeneratorConfig, generate_series
    from repro.model.io import write_dataset

    blocker = LinkageConfig().build_blocker()

    def arrival_work(datasets):
        """Candidate pairs of the pairs an arrival in the middle
        snapshot re-links."""
        middle = len(datasets) // 2
        return sum(
            len(blocker.candidate_pairs(list(datasets[i].iter_records()),
                                        list(datasets[i + 1].iter_records())))
            for i in (middle - 1, middle) if 0 <= i < len(datasets) - 1
        )

    pool = []
    for index in range(SERIES_POOL):
        member_seed, datasets = draw_sized(
            seed, index,
            lambda s: generate_series(GeneratorConfig(
                seed=s, num_snapshots=SERIES_SNAPSHOTS,
                initial_households=SERIES_HOUSEHOLDS,
            )).datasets,
            arrival_work,
            SERIES_WORK,
        )
        snapshots = []
        for dataset in datasets:
            path = workdir / f"series{index}_census_{dataset.year}.csv"
            write_dataset(dataset, path)
            snapshots.append(str(path))
        position = len(datasets) // 2
        middle = datasets[position]
        records = random.Random(member_seed).sample(
            middle.record_ids, SERIES_REVISED_RECORDS
        )
        # The records take fresh names in turn, then go back.  Names no
        # other record has change most records' links, so the pinned
        # hashes of successive states differ and a stale re-use shows.
        states, current = [], {}
        for revert in (False, True):
            for record_id in records:
                current = dict(current)
                if revert:
                    current.pop(record_id)
                else:
                    record = middle.record(record_id)
                    current[record_id] = {
                        "first_name": "qx" + (record.first_name or "")[::-1],
                        "surname": "qx" + (record.surname or "")[::-1],
                    }
                states.append(current)
        pool.append({"snapshots": snapshots, "position": position,
                     "states": states, "datasets": datasets})
    return {"series": pool, "workdir": str(workdir)}


def series_members(pool) -> List[Tuple[int, int]]:
    """``(series, state)`` of op member ``m``, interleaving the series."""
    return [(index, state)
            for state in range(len(pool[0]["states"]))
            for index in range(len(pool))]


# -- oracles for seeds without pins ------------------------------------------


def country_oracle(country) -> str:
    """Sharded runs must decide exactly like the in-RAM pipeline."""
    from repro.checkpoint import decision_ledger_hash
    from repro.core.config import LinkageConfig
    from repro.core.pipeline import link_datasets

    old, new = country.datasets[:2]
    return decision_ledger_hash(
        link_datasets(old, new, LinkageConfig(blocking="region"))
    )


def series_oracle(fixture) -> List[str]:
    """Incremental analyses must decide exactly like from-scratch ones:
    the expected hash of every op member, from scratch."""
    from repro.checkpoint import analysis_ledger_hash
    from repro.core.config import LinkageConfig
    from repro.datagen import revise_records
    from repro.evolution.analysis import analyse_series

    hashes = []
    for index, state in series_members(fixture["series"]):
        series = fixture["series"][index]
        base, position = series["datasets"], series["position"]
        datasets = list(base)
        datasets[position] = revise_records(
            base[position], series["states"][state]
        )
        hashes.append(analysis_ledger_hash(
            analyse_series(datasets, config=LinkageConfig())
        ))
    return hashes


# -- batch workloads ---------------------------------------------------------


def run_batch(workload: str, seed: int, seconds: float, trace: bool,
              workdir: Path) -> Dict[str, object]:
    pins = load_pins().get(workload, {})
    if workload == "pair-200":
        fixture = pair_fixtures(seed, workdir)
        expected = [pins[str(s)] for s in fixture["member_seeds"]]
        pinned = True
    elif workload == "country-sharded":
        fixture = country_fixtures(seed, workdir)
        keys = [str(member["country_seed"])
                for member in fixture["countries"]]
        pinned = all(key in pins for key in keys)
        expected = [pins[key] if key in pins
                    else country_oracle(member.pop("country"))
                    for key, member in zip(keys, fixture["countries"])]
        for member in fixture["countries"]:
            member.pop("country", None)
    else:
        fixture = series_fixtures(seed, workdir)
        pinned = str(seed) in pins
        expected = pins[str(seed)] if pinned else series_oracle(fixture)
        for series in fixture["series"]:
            del series["datasets"]
    spec = dict(fixture, workload=workload, seconds=seconds, trace=trace)
    write_json(workdir / "spec.json", spec)
    rss_mb = run_child([str(BENCH_DIR / "child.py"), str(workdir)],
                       CHILD_TIMEOUT_S)
    record = read_json(workdir / "result.json")

    problems = []
    checked = record["ops"] + record.get("traced_ops", [])
    failed = 0
    for member, _, output, *_ in checked:
        wrong = []
        if output["hash"] != expected[member]:
            wrong.append(f"hash {output['hash'][:12]} != expected "
                         f"{expected[member][:12]}")
        if workload == "series-arrival":
            wrong.extend(arrival_effort(output["counters"]))
        failed += bool(wrong)
        problems.extend(f"input {member}: {problem}" for problem in wrong)
    ops = record["ops"]
    setups = record["setups"]
    outcome = {
        "attempted": len(checked),
        "failed": failed,
        "problems": problems,
        "pinned": pinned,
        # [seconds, speed factor] of every set-up; [input, seconds, speed
        # factor] of every untraced op.
        "setup_samples_s": setups,
        "op_samples_s": [[m, t, f] for m, t, _, _, f in ops],
        "process_peak_rss_mb": rss_mb,
        "raw": {
            "op_latency_ms": 1000 * pooled([(m, t) for m, t, *_ in ops]),
            "setup_s": median([t for t, _ in setups]),
        },
        "end_to_end": {
            "op_latency_ms": 1000 * pooled(
                [(m, t / f) for m, t, _, _, f in ops]
            ),
            "setup_s": median([t / f for t, f in setups]),
            # The op's own high-water mark where the kernel can reset it
            # per op, else the whole process's.
            "peak_rss_mb": pooled([(m, r) for m, _, _, r, _ in ops])
            if all(r is not None for _, _, _, r, _ in ops)
            else rss_mb,
        },
    }
    if trace:
        outcome["per_layer"], outcome["trace"] = batch_layers(
            workload, record
        )
    return outcome


def arrival_effort(counters: Dict[str, int]) -> List[str]:
    """What one arrival in the middle snapshot must cost the incremental
    run, whatever the hash: exactly the two adjacent pairs re-linked from
    seeded caches with dirty blocking keys, every other pair re-used.
    A run that ignored the arrival, or re-linked the whole series, would
    still produce the right hashes."""
    pairs = SERIES_SNAPSHOTS - 1
    want = {"series_pairs_relinked": 2, "series_pairs_reused": pairs - 2}
    problems = [f"{name} {counters.get(name, 0)} != {value}"
                for name, value in want.items()
                if counters.get(name, 0) != value]
    problems.extend(f"{name} is 0" for name in ("series_keys_dirty",
                                                "series_seed_entries")
                    if not counters.get(name))
    return problems


def batch_layers(workload: str, record) -> Tuple[Dict[str, float], dict]:
    import layers

    missing = layers.missing_spans(workload, record["calls"])
    if missing:
        raise BenchError(
            f"traced {workload} run recorded no call of {missing}: a call "
            f"site moved away from the wrapped attribute"
        )
    traced = record["traced_ops"]
    selfs = record["self_by_op"]
    metrics = {name: 0.0 for name in PER_LAYER}
    for name, span in SELF_TIME_SPANS.items():
        metrics[name] = pooled([
            (member, selfs[str(op)].get(span, 0.0))
            for op, (member, *_) in enumerate(traced)
        ])

    def counter(name, op_output):
        return op_output["counters"].get(name, 0)

    for name, source in PROFILE_COUNTERS.items():
        metrics[name] = pooled([(m, counter(source, out))
                                for m, _, out, *_ in traced])
    pruned = pooled([(m, sum(counter(c, out) for c in PRUNE_COUNTERS))
                     for m, _, out, *_ in traced])
    candidates = pooled([(m, counter("candidate_pairs", out))
                         for m, _, out, *_ in traced])
    hits = pooled([(m, counter("cache_hits", out)) for m, _, out, *_ in traced])
    misses = pooled([(m, counter("cache_misses", out))
                     for m, _, out, *_ in traced])
    metrics["core.prematching.prune_ratio"] = (
        pruned / candidates if candidates else 0.0
    )
    metrics["core.simcache.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0
    )

    def per_op(span: str, reduce) -> List[Tuple[int, float]]:
        values: Dict[int, List[float]] = defaultdict(list)
        for op, value in record["results"].get(span, []):
            values[op].append(value)
        return [(member, reduce(values.get(op, [0])))
                for op, (member, *_) in enumerate(traced)]

    metrics["blocking.candidate_pairs"] = pooled(per_op("blocking", sum))
    metrics["sharding.records_per_shard_max"] = pooled(
        per_op("sharding.plan", max)
    )
    loads = defaultdict(int)
    for event in record["events"]:
        if event["name"] == "sharding.source_load" and event["args"]["op"] >= 0:
            loads[event["args"]["op"]] += 1
    metrics["sharding.visits"] = pooled([
        (member, loads[op] / 2) for op, (member, *_) in enumerate(traced)
    ])
    metrics["model.io.read_s"] = (
        record["setup_self"].get("model.io", 0.0) / record["traced_setups"]
    )
    untraced = pooled([(m, t / f) for m, t, _, _, f in record["ops"]])
    metrics["trace.overhead_ratio"] = (
        pooled([(m, t / f) for m, t, _, _, f in traced]) / untraced - 1
    )
    return metrics, {"events": record["events"]}


# -- service-query -------------------------------------------------------------


def service_fixtures(seed: int, workdir: Path):
    from repro.core.config import LinkageConfig
    from repro.datagen.generator import GeneratorConfig, generate_series
    from repro.evolution.analysis import analyse_series
    from repro.service import EvolutionQueryService, EvolutionStore

    _, datasets = draw_sized(
        seed, 0,
        lambda s: generate_series(GeneratorConfig(
            seed=s, num_snapshots=SERVICE_SNAPSHOTS,
            initial_households=SERVICE_HOUSEHOLDS,
        )).datasets,
        lambda datasets: sum(len(dataset) for dataset in datasets),
        SERVICE_WORK,
    )
    store_dir = workdir / "evolution_store"
    report = EvolutionStore(store_dir).publish(
        analyse_series(datasets, config=LinkageConfig())
    )
    # The in-process answer of every target, computed before any timing.
    local = EvolutionQueryService(EvolutionStore(store_dir),
                                  cache_enabled=False)
    targets = []
    for kind, year, identifier in sorted(local.graph.vertices):
        if kind == "group":
            targets.append(f"/households/{year}/{identifier}/lineage")
            targets.append(
                f"/households/{year}/{identifier}/neighborhood?radius=2"
            )
        elif kind == "record":
            targets.append(f"/persons/{year}/{identifier}/timeline")
    expected = {}
    for target in targets:
        status, body = local.handle_request("GET", target)
        if status != 200:
            raise BenchError(f"in-process {target} answered {status}")
        expected[target] = body
    return store_dir, report.graph_version, targets, expected


class ServerProcess:
    """The service in its own process, started by the benchmark's
    launcher; ``started_s`` runs from process start to the first 200."""

    def __init__(self, store_dir: Path, spans_out: str = "") -> None:
        args = [sys.executable, str(BENCH_DIR / "server.py"), str(store_dir)]
        if spans_out:
            args.append(spans_out)
        began = clock()
        self.process = subprocess.Popen(
            args, env=child_env(), stdout=subprocess.PIPE,
            stderr=sys.stderr, text=True,
        )
        try:
            line = self.process.stdout.readline()
            if not line.startswith("PORT "):
                raise BenchError(f"service did not start: {line!r}")
            self.port = int(line.split()[1])
            status, body = self.get("/health")
            if status != 200:
                raise BenchError(f"/health answered {status}")
        except BaseException:
            self.stop()
            raise
        self.started_s = clock() - began
        self.graph_version = json.loads(body)["graph_version"]

    def get(self, target: str):
        from loadgen import fetch

        return fetch("127.0.0.1", self.port, target)

    def stop(self) -> float:
        """SIGTERM, wait, and return the process's peak RSS in MB."""
        if self.process.returncode is None:
            self.process.send_signal(signal.SIGTERM)
        _, rss_mb = wait_with_rusage(self.process, 30)
        self.process.stdout.close()
        return rss_mb


def speed_on_each_cpu() -> float:
    """The speed reference run once on each CPU this process may use,
    as one factor (geometric mean): the generator and the server each
    have a CPU of their own, and a request crosses both.  The process
    ends pinned where it started."""
    try:
        allowed = sorted(os.sched_getaffinity(0))
    except AttributeError:
        return speed.factor()
    factors = []
    for cpu in allowed:
        os.sched_setaffinity(0, {cpu})
        factors.append(speed.factor())
    os.sched_setaffinity(0, allowed)
    return math.exp(sum(math.log(f) for f in factors) / len(factors))


def load_phases(server: ServerProcess, rng: random.Random, targets,
                expected, reference_s: float):
    """Cache warm-up, then the reference rate in slices of
    ``SLICE_S``, with the speed reference run between each two slices.
    Each open-loop slice has its own fresh connections.

    Returns ``(warm-up, reference, scaled latencies, window)``: the
    slices merged into one phase, and every reference-rate latency over
    its slice's speed factor."""
    from loadgen import merge, open_loop

    def phase(rate, count):
        return open_loop("127.0.0.1", server.port,
                         [rng.choice(targets) for _ in range(count)], rate,
                         expected)

    warm = phase(WARM_RATE, WARM_REQUESTS)
    slices = max(1, round(reference_s / SLICE_S))
    per_slice = int(REFERENCE_RATE * reference_s / slices)
    bracket = speed.Bracket(speed_on_each_cpu)
    results, scaled = [], []
    window = [clock()]
    for _ in range(slices):
        # The generator polls a CPU flat out; keep it off the server's.
        previous = pin_to_cpu(0)
        try:
            result = phase(REFERENCE_RATE, per_slice)
        finally:
            if previous is not None:
                os.sched_setaffinity(0, previous)
        factor = bracket.after()
        results.append(result)
        scaled.extend(latency / factor for latency in result.latencies_s)
    window.append(clock())
    return warm, merge(results), scaled, window


def timed_start(store_dir: Path):
    """``(server, [seconds, speed factor])``: a started service, timed
    from process start to the first 200 and bracketed by two runs of the
    speed reference."""
    bracket = speed.Bracket()
    server = ServerProcess(store_dir)
    return server, [server.started_s, bracket.after()]


def time_starts(store_dir: Path, count: int, versions: set) -> List[list]:
    """Start and stop the service ``count`` times: ``[seconds, speed
    factor]`` of each start."""
    starts = []
    for _ in range(count):
        server, start = timed_start(store_dir)
        starts.append(start)
        versions.add(server.graph_version)
        server.stop()
    return starts


def run_service(seed: int, seconds: float, trace: bool,
                workdir: Path) -> Dict[str, object]:
    store_dir, published, targets, expected = service_fixtures(seed, workdir)
    pinned = load_pins().get("service-query", {}).get(str(seed))
    want_version = pinned or published
    rng = random.Random(seed)

    versions: set = set()
    starts = time_starts(store_dir, SERVICE_STARTS // 2 - 1, versions)
    server, start = timed_start(store_dir)
    starts.append(start)
    try:
        reference_s = seconds / 2 if trace else seconds * 0.8
        warm, reference, scaled, _ = load_phases(server, rng, targets,
                                                 expected, reference_s)
        versions.add(server.graph_version)
        stats = json.loads(server.get("/stats")[1])
    finally:
        rss_mb = server.stop()
    starts += time_starts(store_dir, SERVICE_STARTS - len(starts), versions)

    traced = None
    if trace:
        spans_out = workdir / "server_spans.json"
        server = ServerProcess(store_dir, str(spans_out))
        try:
            before = json.loads(server.get("/stats")[1])
            _, traced, traced_scaled, window = load_phases(
                server, rng, targets, expected, reference_s
            )
            after = json.loads(server.get("/stats")[1])
            versions.add(server.graph_version)
        finally:
            server.stop()
        spans = read_json(spans_out)

    problems = [f"graph_version {version} != {want_version}"
                for version in sorted(versions) if version != want_version]
    phases = [warm, reference] + ([traced] if traced else [])
    failures = [f for phase in phases for f in phase.failures]
    failed = len(failures) + len(problems)
    problems.extend(failures[:10])
    report = {
        "reference_rate_rps": REFERENCE_RATE,
        "requests_at_reference": reference.completed,
        "latency_p50_ms": 1000 * median(reference.latencies_s),
        "latency_p99_ms": 1000 * percentile(reference.latencies_s, 0.99),
        "generator_lateness_p99_ms":
            1000 * percentile(reference.lateness_s, 0.99),
        "generator_lateness_max_ms": 1000 * max(reference.lateness_s),
        "cache_hits": stats["cache_hits"],
        "cache_misses": stats["cache_misses"],
        "targets": len(targets),
    }
    outcome = {
        "attempted": sum(phase.sent for phase in phases),
        "failed": failed,
        "problems": problems,
        "pinned": pinned is not None,
        "setup_samples_s": starts,
        "service": report,
        "raw": {
            "op_latency_ms": report["latency_p50_ms"],
            "setup_s": median([t for t, _ in starts]),
        },
        "end_to_end": {
            "op_latency_ms": 1000 * median(scaled),
            "setup_s": median([t / f for t, f in starts]),
            "peak_rss_mb": rss_mb,
        },
    }
    if trace:
        outcome["per_layer"], outcome["trace"] = service_layers(
            spans, traced, traced_scaled, scaled, window, before, after
        )
    return outcome


def service_layers(spans, traced, traced_scaled, untraced_scaled, window,
                   before, after):
    import layers

    missing = layers.missing_spans("service-query", spans["calls"])
    if missing:
        raise BenchError(f"traced service-query run recorded no call of "
                         f"{missing}")
    inside = [(duration, hit) for start, duration, hit in spans["handle"]
              if window[0] <= start <= window[1]]
    hit_s = [duration for duration, hit in inside if hit]
    miss_s = [duration for duration, hit in inside if not hit]
    hits = after["cache_hits"] - before["cache_hits"]
    misses = after["cache_misses"] - before["cache_misses"]
    metrics = {name: 0.0 for name in PER_LAYER}
    mean = lambda values: sum(values) / len(values)  # noqa: E731
    metrics.update({
        "service.store.load_s": median(spans["load_s"]),
        "service.core.handle_hit_ms": 1000 * median(hit_s) if hit_s else 0.0,
        "service.core.handle_miss_ms": 1000 * median(miss_s),
        "service.core.cache_hit_ratio": hits / (hits + misses),
        "service.http.overhead_ms": 1000 * (
            mean(traced.latencies_s) - mean([d for d, _ in inside])
        ),
        "trace.overhead_ratio": median(traced_scaled)
        / median(untraced_scaled) - 1,
    })
    return metrics, {"events": spans["events"]}


# -- entry point ---------------------------------------------------------------


def retire(workdir: Path) -> None:
    """Move a finished run's inputs and stores aside instead of deleting
    them.  Deleting thousands of files made file creation and fsync in
    the next runs' timed set-ups 2-4x slower for a while (ext4 mounted
    with online discard), so the retired runs are deleted only in bulk,
    once ``RETIRED_RUNS`` have piled up."""
    retired = WORK_ROOT / "retired"
    retired.mkdir(exist_ok=True)
    workdir.rename(retired / workdir.name)
    if len(list(retired.iterdir())) > RETIRED_RUNS:
        shutil.rmtree(retired, ignore_errors=True)



def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_program()
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    steal_before = steal_ticks()
    workdir = WORK_ROOT / (f"run-{args.workload}-{args.seed}-{os.getpid()}"
                           f"-{time.time_ns()}")
    workdir.mkdir(parents=True)
    try:
        if args.workload == "service-query":
            outcome = run_service(args.seed, args.seconds, bool(args.trace),
                                  workdir)
        else:
            outcome = run_batch(args.workload, args.seed, args.seconds,
                                bool(args.trace), workdir)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        retire(workdir)

    if args.trace:
        values = outcome["per_layer"]
        units = PER_LAYER
    else:
        values = outcome["end_to_end"]
        units = END_TO_END
    metrics = {
        name: {"value": float(values[name]), "unit": units[name]}
        for name in units
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(steal_before),
        "metrics": metrics,
        **{key: value for key, value in outcome.items()
           if key not in ("per_layer", "end_to_end", "trace")},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK_ROOT / "records").mkdir(parents=True, exist_ok=True)
    write_json(WORK_ROOT / "records" / f"{stem}.json", record)
    if args.trace:
        from tracer import write_trace

        (WORK_ROOT / "traces").mkdir(parents=True, exist_ok=True)
        write_trace(WORK_ROOT / "traces" / f"{stem}.json",
                    outcome["trace"]["events"],
                    {"workload": args.workload, "seed": args.seed})
    for problem in outcome["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({k: v for k, v in record.items() if k != "metrics"},
                     sort_keys=True), file=sys.stderr)
    print(json.dumps({
        "correct": outcome["failed"] == 0 and not outcome["problems"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
