"""The process under test for the batch workloads.

``python3 perfbench/child.py WORKDIR`` reads ``WORKDIR/spec.json``
(written by ``run.py`` next to the generated inputs), runs the system's
own set-up, one untimed warm-up op, then timed ops for the given number
of seconds with the set-up timed again between them, and writes
``WORKDIR/result.json``.  It never
generates inputs: everything it links comes from files.

With ``trace`` set, every other op runs with the :mod:`layers` wrappers
installed, so the run reports both the span breakdown and what tracing
itself costs.
"""

from __future__ import annotations

import gc
import itertools
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

import layers
import speed
from common import read_json, write_json
from tracer import Tracer

clock = time.perf_counter
STATUS = Path("/proc/self/status")
CLEAR_REFS = Path("/proc/self/clear_refs")


def reset_peak_rss() -> bool:
    """Reset the kernel's resident high-water mark (Linux); False where
    that is not possible."""
    try:
        CLEAR_REFS.write_text("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    for line in STATUS.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")


#: Share of the time in set-ups and ops spent re-running the set-up
#: between ops.
#: The machine's speed drifts over tens of seconds, so ``setup_s``
#: samples the whole run instead of timing its first few seconds.
SETUP_SHARE = 0.2


def run_ops(op: Callable, output: Callable, members: int, seconds: float,
            resample: Callable[[], float], bracket: speed.Bracket,
            tracer=None):
    """Timed ops: at least one full pass over the inputs (two when
    tracing), then keep cycling until ``seconds`` have passed.  The op
    after the warm-up starts at input 1, so consecutive ops never repeat
    an input (a repeated series arrival would be a no-op).  Whenever
    set-ups have taken less than ``SETUP_SHARE`` of the time in set-ups
    and ops so far, ``resample()`` runs one untraced set-up and returns
    its seconds.

    Every op and set-up is followed by a run of the speed reference
    (``bracket.after()``), so each is bracketed by two.

    Returns ``(untraced, traced, set-ups)``; the op lists hold
    ``[member, op seconds, output, op peak RSS MB or None, speed
    factor]`` and the set-ups ``[seconds, speed factor]``.  With a
    tracer, ops alternate between untraced and traced, flipping each
    pass so every input gets both and both halves see the same machine.
    Each op's result is reduced by ``output`` outside the timing and
    then dropped, so no result stays alive into the next op."""
    plain, traced, setups = [], [], []
    setup_s = op_s = 0.0
    passes = 1 if tracer is None else 2
    start = clock()
    done = 0
    while done < passes * members or clock() - start < seconds:
        if setup_s < SETUP_SHARE * (setup_s + op_s):
            took = resample()
            setup_s += took
            setups.append([took, bracket.after()])
            continue
        member = (done + 1) % members
        tracing = tracer is not None and (
            done % members + done // members
        ) % 2 == 1
        gc.collect()
        tracks_rss = reset_peak_rss()
        if tracing:
            layers.install_linkage(tracer)
            with tracer.op("op") as span:
                result = op(member)
            tracer.uninstall()
            took = tracer.spans[span.index].duration_s
        else:
            began = clock()
            result = op(member)
            took = clock() - began
        op_s += took
        factor = bracket.after()
        rss = peak_rss_mb() if tracks_rss else None
        (traced if tracing else plain).append(
            [member, took, output(result), rss, factor]
        )
        del result
        done += 1
    return plain, traced, setups


# -- workloads ---------------------------------------------------------------
#
# Each returns ``(setup, op, output, members, initial set-ups)``.
# ``setup(repeat, install)`` is the system's own start-up; the first set-ups
# install what the ops use, later ones (``install`` false) redo the same
# work into scratch targets.


def pair_workload(spec: Dict[str, object]):
    from repro.checkpoint import decision_ledger_hash
    from repro.core import pipeline
    from repro.core.config import LinkageConfig
    from repro.model import io as model_io

    pool: List = []

    def setup(repeat: int, install: bool) -> None:
        loaded = [
            (model_io.read_dataset(old), model_io.read_dataset(new))
            for old, new in spec["pairs"]
        ]
        if install:
            pool[:] = loaded

    def op(member: int):
        old, new = pool[member]
        return pipeline.link_datasets(old, new, LinkageConfig())

    def output(result):
        return {"hash": decision_ledger_hash(result),
                "counters": dict(result.profile.counters)}

    return setup, op, output, len(spec["pairs"]), 1


def country_workload(spec: Dict[str, object]):
    from repro.checkpoint import decision_ledger_hash
    from repro.core.config import LinkageConfig
    from repro.model import io as model_io
    from repro.sharding import ShardStore, ShardedRecordSource
    from repro.sharding import pipeline as sharded

    workdir = Path(spec["workdir"])
    pool = spec["countries"]

    def setup(repeat: int, install: bool) -> None:
        """Read the CSVs of country ``repeat % pool`` and ingest them into
        a fresh store, one snapshot in memory at a time; ops read the
        installed ones.  The store fsyncs what it writes, and freed
        blocks make later fsyncs wait for their discards (ext4 with
        online discard): re-ingesting into an existing store took twice
        as long, and removing each re-run's store as soon as it was
        timed raised the median set-up by 40% and doubled its spread.
        So re-run stores stay until the run is retired (~1 MB each)."""
        store = ShardStore(workdir / f"store{repeat}")
        store.write_datasets(
            model_io.read_dataset(path)
            for path in pool[repeat % len(pool)]["snapshots"]
        )

    def op(member: int):
        store = ShardStore(workdir / f"store{member}")
        old_year, new_year = store.years()[:2]
        return sharded.link_datasets_sharded(
            ShardedRecordSource.from_store(store, old_year),
            ShardedRecordSource.from_store(store, new_year),
            LinkageConfig(blocking="region", shards=spec["shards"]),
        )

    def output(result):
        return {"hash": decision_ledger_hash(result),
                "counters": dict(result.profile.counters)}

    return setup, op, output, len(pool), len(pool)


def series_workload(spec: Dict[str, object]):
    from repro.checkpoint import analysis_ledger_hash
    from repro.core.config import LinkageConfig
    from repro.datagen import revise_records
    from repro.evolution import analysis as analysis_mod
    from repro.model.io import read_dataset
    from repro.service import EvolutionStore

    workdir = Path(spec["workdir"])
    pool = spec["series"]
    bases = [[read_dataset(path) for path in series["snapshots"]]
             for series in pool]
    # Arrivals are inputs: built here, before any timing.  Member m is
    # state m // len(pool) of series m % len(pool).
    arrivals = []
    for state in range(len(pool[0]["states"])):
        for index, series in enumerate(pool):
            datasets = list(bases[index])
            position = series["position"]
            datasets[position] = revise_records(
                bases[index][position], series["states"][state]
            )
            arrivals.append((index, datasets))
    stores: List[Dict[str, object]] = [{} for _ in pool]
    config = LinkageConfig()

    def setup(repeat: int, install: bool) -> None:
        """Cold build plus first publish of series ``repeat % pool``, into
        directories of its own: the pool's series are equally sized, so
        each build is one set-up sample."""
        index = repeat % len(pool)
        series_dir = workdir / f"series_state_{repeat}"
        store = EvolutionStore(workdir / f"evolution_store_{repeat}")
        store.publish(analysis_mod.analyse_series(
            bases[index], config=config, series_state=series_dir
        ))
        if install:
            stores[index] = {"series_dir": series_dir, "store": store}

    def op(member: int):
        index, datasets = arrivals[member]
        analysis = analysis_mod.analyse_series(
            datasets, config=config,
            series_state=stores[index]["series_dir"],
        )
        report = stores[index]["store"].publish(analysis)
        return analysis, report

    def output(outcome):
        analysis, report = outcome
        counters = dict(analysis.profile.counters)
        counters["segments_written"] = len(report.segments_written)
        return {"hash": analysis_ledger_hash(analysis),
                "graph_version": report.graph_version,
                "counters": counters}

    return setup, op, output, len(arrivals), len(pool)


WORKLOADS = {
    "pair-200": pair_workload,
    "country-sharded": country_workload,
    "series-arrival": series_workload,
}


def main(workdir: str) -> int:
    spec = read_json(Path(workdir) / "spec.json")
    workload = spec["workload"]
    seconds = float(spec["seconds"])
    trace = bool(spec["trace"])
    setup, op, output, members, initial = WORKLOADS[workload](spec)
    repeats = itertools.count()

    def timed_setup(install: bool) -> float:
        gc.collect()
        began = clock()
        setup(next(repeats), install)
        return clock() - began

    tracer = Tracer() if trace else None
    if tracer is not None:
        layers.install_linkage(tracer)
    bracket = speed.Bracket()
    setups = []
    for _ in range(initial):
        took = timed_setup(True)
        setups.append([took, bracket.after()])
    if tracer is not None:
        tracer.uninstall()

    output(op(0))  # warm-up: imports, lazy initialisation
    bracket.after()
    # The whole input pool stays alive for the run; a user holds one
    # input.  Freezing it keeps the pool's objects out of every garbage
    # collection during the ops, as one input's would barely register.
    gc.collect()
    gc.freeze()
    plain, traced, resampled = run_ops(
        op, output, members, seconds, lambda: timed_setup(False), bracket,
        tracer,
    )
    record: Dict[str, object] = {"setups": setups + resampled,
                                 "traced_setups": initial, "ops": plain}
    if tracer is not None:
        record["traced_ops"] = traced
        record["self_by_op"] = {
            str(key): value for key, value in tracer.self_by_op().items()
        }
        record["setup_self"] = tracer.self_outside_ops()
        record["calls"] = tracer.calls()
        record["results"] = {k: list(v) for k, v in tracer.results.items()}
        record["events"] = tracer.trace_events()
    write_json(Path(workdir) / "result.json", record)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
