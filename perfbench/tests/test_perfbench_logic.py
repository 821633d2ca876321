"""Tests for the benchmark's own logic (no workload is run here)."""
from __future__ import annotations

import threading
import time
from concurrent.futures import Future

import pytest

from perfbench import contract, layers, stats, workloads
from perfbench.spans import Tracer, covered_time, instrument, self_times


# ------------------------------------------------ percentiles / sample count
def test_percentile_is_nearest_rank():
    data = list(range(1, 101))  # 1..100
    assert stats.percentile(data, 50) == 50
    assert stats.percentile(data, 99) == 99
    assert stats.percentile(data, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0
    assert stats.percentile(reversed(data), 90) == 90
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize("n, expected", [
    (19, None),     # the median would have 9 samples beyond it
    (20, 50.0),
    (100, 90.0),
    (199, 90.0),    # p95 has 199 - 190 = 9 beyond
    (200, 95.0),
    (999, 95.0),
    (1000, 99.0),   # exactly 10 beyond the 990th value
    (10000, 99.9),
])
def test_supported_percentile_needs_ten_samples_beyond(n, expected):
    assert stats.supported_percentile(n) == expected


def test_latency_summary_reports_the_supported_tail_and_count():
    s = stats.latency_summary(float(i) for i in range(1, 1001))
    assert s == {"n": 1000, "p50": 500.0, "tail_q": 99.0, "tail": 990.0}
    s = stats.latency_summary([1.0] * 15)
    assert s["tail_q"] is None and s["tail"] is None and s["p50"] == 1.0


def test_quartile_spread_matches_statistics_quantiles():
    med, iqr, spread = stats.quartile_spread([10, 11, 12, 13, 14])
    assert med == 12
    assert iqr == pytest.approx(13.5 - 10.5)
    assert spread == pytest.approx(3.0 / 12)


# ------------------------------------------------------------ ladder rule
def _step(rate, n=300, latency=10.0, **kw):
    return stats.LadderStep(rate, [latency] * n, **kw)


def test_ladder_step_meets_only_with_enough_samples_and_no_failures():
    assert _step(100).meets(50.0, 95.0)
    assert not _step(100, latency=60.0).meets(50.0, 95.0)
    assert not _step(100, n=150).meets(50.0, 95.0)     # p95 unsupported
    assert not _step(100, failed=1).meets(50.0, 95.0)
    assert not _step(100, backlog_growing=True).meets(50.0, 95.0)


def test_max_rate_is_highest_step_below_the_first_failure():
    steps = [_step(300, latency=90.0), _step(100), _step(400), _step(200)]
    assert stats.max_sustained_rate(steps, 50.0, 95.0) == 200
    assert stats.max_sustained_rate([_step(100, failed=2)], 50.0, 95.0) == 0.0
    assert stats.max_sustained_rate([_step(100), _step(200)], 50.0, 95.0) == 200


def test_backlog_growing_detects_a_rising_latency_trend():
    class R:
        def __init__(self, due, lat):
            self.due, self.done, self.error = due, due + lat / 1e3, None

    flat = [R(i * 0.01, 5.0) for i in range(40)]
    rising = [R(i * 0.01, 5.0 + 4.0 * i) for i in range(40)]
    assert not workloads.backlog_growing(0.0, flat, stopped=False)
    assert workloads.backlog_growing(0.0, rising, stopped=False)
    assert workloads.backlog_growing(0.0, flat, stopped=True)


# --------------------------------------------- open loop, timed from due
class StalledService:
    """Serves requests in order on one thread; the first one stalls."""

    def __init__(self, stall_s: float, work_s: float = 0.001):
        self.stall_s, self.work_s = stall_s, work_s
        self.queue: list = []
        self.cv = threading.Condition()
        self.closed = False
        self.thread = threading.Thread(target=self._loop, daemon=True)
        self.thread.start()

    def _loop(self):
        first = True
        while True:
            with self.cv:
                while not self.queue and not self.closed:
                    self.cv.wait()
                if not self.queue:
                    return
                fut, value = self.queue.pop(0)
            time.sleep(self.stall_s if first else self.work_s)
            first = False
            fut.set_result(value)

    def _submit(self, value):
        fut = Future()
        with self.cv:
            self.queue.append((fut, value))
            self.cv.notify()
        return fut

    def submit_log_amplitudes(self, bits, timeout=None):
        return self._submit(bits)

    def submit_sample(self, n, seed, timeout=None):
        return self._submit(seed)

    def close(self):
        with self.cv:
            self.closed = True
            self.cv.notify()
        self.thread.join(timeout=5)


def test_open_loop_charges_a_stall_to_the_requests_behind_it():
    stall = 0.3
    service = StalledService(stall)
    reqs = [workloads.Request(rid=i, op="amps", due=0.02 * i, payload=i)
            for i in range(10)]
    try:
        start, sent, stopped = workloads.open_loop(service, reqs,
                                                   drain_timeout=10)
    finally:
        service.close()
    assert not service.thread.is_alive()
    assert not stopped and len(sent) == 10
    assert all(r.error is None and r.value == r.rid for r in sent)
    lat = workloads.latencies_ms(start, sent, "amps")
    # Request i is due at 20*i ms but cannot finish before the stall ends:
    # its latency counts from its due time, so it carries the stall's rest.
    for i, ms in enumerate(lat):
        assert ms >= 1e3 * stall - 20 * i - 5
    # The generator itself kept to schedule (submission is non-blocking).
    late = [r.submitted - (start + r.due) for r in sent]
    assert max(late) < 0.1


def test_open_loop_stops_issuing_when_the_backlog_passes_the_cap(monkeypatch):
    monkeypatch.setattr(workloads, "SERVE_MAX_OUTSTANDING", 3)
    service = StalledService(0.3)
    reqs = [workloads.Request(rid=i, op="amps", due=0.0, payload=i)
            for i in range(10)]
    try:
        _, sent, stopped = workloads.open_loop(service, reqs, drain_timeout=10)
    finally:
        service.close()
    assert stopped and len(sent) == 3


def test_saturation_keeps_the_cap_in_flight_and_stops_on_time(monkeypatch):
    monkeypatch.setattr(workloads, "SERVE_SATURATE_OUTSTANDING", 2)
    service = StalledService(0.0, work_s=0.01)
    in_flight, peak = [0], [0]
    submit = service._submit

    def counting_submit(value):
        in_flight[0] += 1
        peak[0] = max(peak[0], in_flight[0])
        fut = submit(value)
        fut.add_done_callback(lambda f: in_flight.__setitem__(0, in_flight[0] - 1))
        return fut

    service._submit = counting_submit
    reqs = [workloads.Request(rid=i, op="amps", due=0.0, payload=i)
            for i in range(1000)]
    try:
        start, sent, stopped = workloads.open_loop(service, reqs,
                                                   drain_timeout=10,
                                                   saturate_s=0.2)
    finally:
        service.close()
    assert not stopped and peak[0] == 2
    # One server thread at 10 ms a request: about 20 requests in 0.2 s.
    assert 10 <= len(sent) <= 30
    assert all(r.error is None and r.value == r.rid for r in sent)
    assert max(r.done for r in sent) - start < 0.5


def test_rank_memory_sums_each_ranks_growth_past_the_fork(monkeypatch):
    import repro.parallel.multiprocess as multiprocess

    # (at fork, at exit) per rank: launch 1 grows 30 + 10, launch 2 grows 5 + 1
    readings = iter([100, 130, 100, 110, 100, 105, 100, 101])
    monkeypatch.setattr(workloads, "_maxrss_kb", lambda: next(readings))

    def fake_spmd(size, fn, *args, **kwargs):
        return [fn(rank) for rank in range(size)], "stats"

    monkeypatch.setattr(multiprocess, "run_spmd_processes", fake_spmd)
    with workloads.RankMemory() as ranks:
        for _ in range(2):
            results, stats = multiprocess.run_spmd_processes(
                2, lambda comm: {"rank": comm})
            assert results == [{"rank": 0}, {"rank": 1}] and stats == "stats"
    assert ranks.peak_kb == 40
    assert multiprocess.run_spmd_processes is fake_spmd


def test_requests_are_a_function_of_the_seed():
    import numpy as np

    pool = np.arange(40, dtype=np.uint8).reshape(10, 4)

    def gen(seed):
        return workloads.make_requests(np.random.default_rng(seed), pool,
                                       rate=200.0, duration=1.0, rid0=0)

    a, b, c = gen(5), gen(5), gen(6)
    assert len(a) == 200
    assert [r.due for r in a] == sorted(r.due for r in a)
    assert all(0.0 <= r.due < 1.0 for r in a)
    key = [(r.op, r.due, str(r.payload)) for r in a]
    assert key == [(r.op, r.due, str(r.payload)) for r in b]
    assert key != [(r.op, r.due, str(r.payload)) for r in c]


# ------------------------------------------------------------ spans
def test_covered_time_takes_the_union_clipped_to_the_parent():
    assert covered_time(0, 10, [(1, 5), (3, 8)]) == 7
    assert covered_time(0, 10, [(-5, 2), (9, 20)]) == 3
    assert covered_time(0, 10, [(11, 12)]) == 0


def test_self_time_with_children_on_two_threads():
    tracer = Tracer()
    parent = tracer.record("parent", 0.0, 10.0)
    # Overlapping children recorded by two different threads.  Both stay
    # alive until both have recorded, so the second cannot reuse the first
    # one's thread id.
    out = {}
    both_recorded = threading.Barrier(2, timeout=5)

    def child(name, a, b):
        out[name] = tracer.record(name, a, b, parent=parent.sid)
        both_recorded.wait()

    threads = [threading.Thread(target=child, args=("a", 1.0, 5.0)),
               threading.Thread(target=child, args=("b", 3.0, 8.0))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
    assert out["a"].tid != out["b"].tid
    grandchild = tracer.record("c", 4.0, 4.5, parent=out["a"].sid)
    selfs = self_times(tracer.spans)
    assert selfs[parent.sid] == pytest.approx(10.0 - 7.0)
    assert selfs[out["a"].sid] == pytest.approx(4.0 - 0.5)
    assert selfs[out["b"].sid] == pytest.approx(5.0)
    assert selfs[grandchild.sid] == pytest.approx(0.5)


def test_nested_begin_end_links_parents_per_thread():
    tracer = Tracer()
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    seen = {}

    def other():
        seen["span"] = tracer.end(tracer.begin("other"))

    t = threading.Thread(target=other)
    t.start()
    t.join(timeout=5)
    tracer.end(inner)
    tracer.end(outer)
    assert inner.parent == outer.sid
    assert outer.parent is None
    assert seen["span"].parent is None  # a fresh stack on the other thread
    assert tracer.current() is None


def test_instrument_wraps_and_restores_every_entry_point():
    import repro.core.engine as engine
    from repro.autograd import Tensor
    from repro.nn.module import Module

    originals = (engine.stage_backward, Module.__call__, Tensor.gelu)
    inst = instrument(Tracer())
    try:
        assert inst.missing == []
        assert engine.stage_backward is not originals[0]
        assert Module.__call__ is not originals[1]
    finally:
        inst.uninstall()
    assert (engine.stage_backward, Module.__call__, Tensor.gelu) == originals


# ------------------------------------------------ per-layer derivation
def test_stage_spans_plus_unaccounted_add_up_to_the_iteration():
    tracer = Tracer()
    tracer.iteration = 1
    it = tracer.record("bench.iteration", 0.0, 1.0)
    for name, a, b in [("engine.sample", 0.0, 0.1),
                       ("engine.gather_table", 0.1, 0.3),
                       ("engine.partition", 0.3, 0.31),
                       ("engine.local_energy", 0.31, 0.4),
                       ("engine.backward", 0.45, 0.9),
                       ("engine.update", 0.92, 0.97)]:
        tracer.record(name, a, b, parent=it.sid, rows=10)
    tracer.record("comm.collective", 0.4, 0.41, parent=it.sid,
                  op="allreduce_sum")
    tracer.record("comm.collective", 0.9, 0.92, parent=it.sid,
                  op="allreduce_ndarray")
    m = {k: v for k, (v, _) in layers.train_layer_metrics(tracer, 1).items()}
    parts = [m[f"engine.{k}_s"] for k in (
        "stage1_sample", "stage2_gather_table", "stage3_eloc",
        "stage4_reduce", "stage5_backward", "stage6_reduce", "update",
        "unaccounted")]
    assert sum(parts) == pytest.approx(m["engine.iter_s"]) == pytest.approx(1.0)
    # 1.0 s wall - 0.93 s of stages and update (gaps between the spans).
    assert m["engine.unaccounted_s"] == pytest.approx(0.07)
    assert m["comm.calls"] == 2
    assert m["eloc.rows"] == 10


def test_rank_imbalance_is_max_over_mean():
    tracer = Tracer()
    tracer.iteration = 1
    it = tracer.record("bench.iteration", 0.0, 1.0)
    for rank, rows, secs in ((0, 2, 0.01), (1, 1350, 0.5)):
        tracer.rank = rank
        tracer.record("engine.local_energy", 0.1, 0.1 + secs, parent=it.sid,
                      rows=rows)
    m = {k: v for k, (v, _) in layers.train_layer_metrics(tracer, 2).items()}
    assert m["parallel.eloc_rows_imbalance"] == pytest.approx(1350 / 676)
    assert m["parallel.rank0.eloc_rows"] == 2
    assert m["parallel.rank1.eloc_rows"] == 1350


# ------------------------------------------------- names and the contract
def test_metric_name_regex():
    for good in ("p50_ms", "comm.stage2_amps.wire_bytes", "a-b.c_d", "9x"):
        assert stats.check_metric_name(good) == good
    for bad in ("", "_lead", ".lead", "has space", "slash/no", "x" * 65,
                "semi;colon"):
        with pytest.raises(ValueError):
            stats.check_metric_name(bad)


def test_benchmark_json_follows_the_contract():
    bench = contract.load()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert set(contract.workload_names()) == set(workloads.WORKLOADS)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + contract.workload_names():
        stats.check_metric_name(name)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
