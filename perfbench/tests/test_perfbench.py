"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import io
import json
import socketserver
import sys
import threading
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402
import loadgen  # noqa: E402
import pin  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = {
    "PAIR_POOL": 2,
    "PAIR_CATALOGUE_PER_SEED": 1,
    "PAIR_HOUSEHOLDS": 15,
    "PAIR_WORK": (1, 1e9),
    "PAIR_CANDIDATES": (1, 1e9),
    "SERIES_WORK": (1, 1e9),
    "COUNTRY_POOL": 2,
    "COUNTRY_REGIONS": 2,
    "COUNTRY_HOUSEHOLDS": 8,
    "COUNTRY_WORK": (1, 1e9),
    "SERIES_POOL": 2,
    "SERIES_SNAPSHOTS": 3,
    "SERIES_HOUSEHOLDS": 12,
    "SERIES_REVISED_RECORDS": 2,
    "SERVICE_SNAPSHOTS": 3,
    "SERVICE_HOUSEHOLDS": 12,
    "SERVICE_WORK": (1, 1e9),
    "WARM_REQUESTS": 40,
    "SERVICE_STARTS": 2,
}


def shrink(monkeypatch) -> None:
    if not (common.SRC_DIR / "repro").is_dir():
        pytest.skip("run from the repository root")
    for name, value in TINY.items():
        monkeypatch.setattr(run, name, value)


@pytest.fixture(scope="session")
def tiny_pins(tmp_path_factory):
    """Pins of the tiny inputs of seeds 1-2, written by ``pin.py``: the
    pair-200 catalogue, and pinned seeds of the other workloads (other
    seeds use the oracles)."""
    path = tmp_path_factory.mktemp("pins") / "pins.json"
    with pytest.MonkeyPatch.context() as monkeypatch:
        shrink(monkeypatch)
        monkeypatch.setattr(run, "PINS", path)
        assert pin.main(["--seeds", "1-2"]) == 0
    return path


@pytest.fixture
def tiny(monkeypatch, tiny_pins):
    shrink(monkeypatch)
    monkeypatch.setattr(run, "PINS", tiny_pins)
    return run


def bench(module, workload, trace, seed=3, seconds=0.5):
    out = io.StringIO()
    with redirect_stdout(out):
        code = module.main(["--workload", workload, "--seed", str(seed),
                            "--seconds", str(seconds),
                            "--trace", str(trace)])
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_reports_every_metric_with_its_unit(tiny, workload):
    for trace, catalogue in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        result = bench(tiny, workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {name: metric["unit"]
                for name, metric in result["metrics"].items()} == catalogue
    for metric in bench(tiny, workload, 0)["metrics"].values():
        assert metric["value"] > 0
    # A seed with pins checks against them, others against the oracles.
    assert bench(tiny, workload, 0, seed=1)["correct"] is True


def test_a_wrong_pin_fails_the_op_it_checks(tiny, monkeypatch, tmp_path):
    pins = json.loads(tiny.PINS.read_text("utf-8"))
    pins["pair-200"] = {seed: "0" * 64 for seed in pins["pair-200"]}
    wrong = tmp_path / "pins.json"
    wrong.write_text(json.dumps(pins), "utf-8")
    monkeypatch.setattr(run, "PINS", wrong)
    result = bench(tiny, "pair-200", 0)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_arrival_effort_rejects_a_stale_or_whole_series_rerun(tiny):
    right = {"series_pairs_relinked": 2, "series_pairs_reused": 0,
             "series_keys_dirty": 5, "series_seed_entries": 40}
    assert run.arrival_effort(right) == []
    stale = dict(right, series_pairs_relinked=0, series_pairs_reused=2,
                 series_keys_dirty=0, series_seed_entries=0)
    assert len(run.arrival_effort(stale)) == 4


def test_each_item_is_scaled_by_the_references_around_it(monkeypatch):
    references = iter([1.0, 4.0, 2.25, 1.0])
    monkeypatch.setattr(speed, "factor", lambda: next(references))
    bracket = speed.Bracket()
    # Items share the reference between them: factors sqrt(1*4),
    # sqrt(4*2.25), sqrt(2.25*1).
    assert [bracket.after() for _ in range(3)] == [2.0, 3.0, 1.5]


def test_speed_factor_is_positive_and_finite():
    value = speed.factor()
    assert 0 < value < 100


def test_self_times_sum_to_op_span():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    def middle():
        return wrapped_leaf() + wrapped_leaf()

    wrapped_leaf = tracer.wrap("leaf", leaf)
    wrapped_middle = tracer.wrap("middle", middle)
    for _ in range(2):
        with tracer.op():
            wrapped_middle()
            wrapped_leaf()
    spans = tracer.self_by_op()
    for op, seconds in tracer.op_seconds().items():
        assert sum(spans[op].values()) == pytest.approx(seconds)
        assert spans[op]["leaf"] == 3.0  # three leaf calls, one tick each


def test_traced_run_self_times_account_for_each_op(tiny):
    bench(tiny, "pair-200", 1, seed=5)
    trace = json.loads(
        (common.WORK_ROOT / "traces" / "pair-200-seed5-trace1.json")
        .read_text(encoding="utf-8")
    )
    events = trace["traceEvents"]
    assert events and all(e["ph"] == "X" for e in events)
    ops = {e["args"]["op"]: e["dur"] for e in events if e["cat"] == "op"}
    selfs = {}
    for event in events:
        if event["args"]["op"] >= 0:
            selfs[event["args"]["op"]] = (
                selfs.get(event["args"]["op"], 0) + event["args"]["self_us"]
            )
    assert ops
    for op, duration in ops.items():
        assert selfs[op] == pytest.approx(duration, abs=1.0)


def test_deterministic_counters_repeat_exactly(tiny):
    first = bench(tiny, "pair-200", 1, seed=4)["metrics"]
    second = bench(tiny, "pair-200", 1, seed=4)["metrics"]
    counts = [name for name, unit in run.PER_LAYER.items() if unit == "count"]
    assert any(first[name]["value"] for name in counts)
    for name in counts:
        assert first[name]["value"] == second[name]["value"], name


def test_missing_span_fails_loudly():
    record = {"calls": {"core.pipeline": 3}}
    with pytest.raises(common.BenchError, match="core.prematching"):
        run.batch_layers("pair-200", record)


class _Ok(socketserver.StreamRequestHandler):
    delay_s = 0.0

    def handle(self):
        import time

        while True:
            line = self.rfile.readline()
            if not line:
                return
            while self.rfile.readline() not in (b"\r\n", b""):
                pass
            time.sleep(self.delay_s)
            self.wfile.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
            self.wfile.flush()


@pytest.fixture
def stub_server():
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _Ok)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address[1]
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_open_loop_reports_its_own_lateness(stub_server):
    targets = ["/a", "/b"] * 100
    result = loadgen.open_loop("127.0.0.1", stub_server, targets, rate=500.0,
                               expected={"/a": b"ok", "/b": b"ok"})
    assert not result.failures
    assert result.sent == result.completed == len(targets)
    assert len(result.lateness_s) == len(targets)
    assert min(result.lateness_s) >= 0
    # Far beyond what one sender can offer: it must say it ran late, and
    # latency (timed from the due time) must include that lateness.
    late = loadgen.open_loop("127.0.0.1", stub_server, targets * 10,
                             rate=1_000_000.0)
    assert max(late.lateness_s) > 0.001
    assert max(late.latencies_s) >= max(late.lateness_s)


def test_wrong_answers_count_as_failures(stub_server):
    result = loadgen.open_loop("127.0.0.1", stub_server, ["/a"] * 10,
                               rate=200.0, expected={"/a": b"no"})
    assert len(result.failures) == 10


def test_benchmark_json_matches_the_metric_catalogues():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text("utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
