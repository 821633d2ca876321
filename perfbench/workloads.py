"""The three benchmark workloads: set-up, timed phase and correctness checks.

Every workload is built from a RunSpec dict through the public
``repro.api.materialize_*`` functions, so it measures the program as a user
composes it.  Inputs are generated from the workload seed only.
"""
from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench.layers import serve_layer_metrics, train_layer_metrics
from perfbench.spans import Tracer, instrument
from perfbench.stats import (
    LadderStep,
    latency_summary,
    max_sustained_rate,
    percentile,
)

__all__ = ["WORKLOADS", "E_FCI_N2", "record_reference"]

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

E_FCI_N2 = -107.65282793818832     # FCI of N2/STO-3G at the default geometry
N_SAMPLES = 200_000                # N_s per training iteration (Fig. 11)
SETUP_REPEATS = 5                  # set-ups per run; setup_s is their median
ANSATZ_SEED = 13                   # the Fig. 11 bench's model seed
REFERENCE_SEED = 14                # ... and its sampling seed
REFERENCE_ITERATIONS = 3
SERIAL_TOL_HA = 1e-6               # serial run vs the recorded trajectory
TWO_RANK_TOL_HA = 1e-3             # floor of the 2-rank tolerance
TWO_RANK_SIGMAS = 5.0              # ... widened to 5 standard errors

# Serving: open loop, Poisson arrivals, one generator thread.
SERVE_NOMINAL_RPS = 100.0
SERVE_LADDER_RPS = (100.0, 200.0, 600.0)
SERVE_LIMIT_MS = 150.0             # latency limit on the ladder percentile
SERVE_LIMIT_Q = 95.0               # ... which every ladder step supports
SERVE_AMPS_ROWS = 4
SERVE_SAMPLE_N = 1000
SERVE_SAMPLE_FRAC = 0.10
SERVE_POOL_SAMPLES = 4096
SERVE_MAX_OUTSTANDING = 256        # a step stops here: its backlog grows
SERVE_SATURATE_OUTSTANDING = 32    # requests kept in flight at saturation
SERVE_SATURATE_MAX_RPS = 2000.0    # sizes the saturation step's stream
SERVE_NOMINAL_SHARE = 0.40         # of the run: nominal rate,
SERVE_LADDER_SHARE = 0.30          # ... the ladder, and the saturation
SERVE_AMPS_TOL = 1e-10


# --------------------------------------------------------------------- specs
def train_spec(seed: int, two_rank: bool) -> dict:
    """The Fig. 11 problem as a RunSpec dict.

    The model is fixed (the Fig. 11 bench's ansatz seed); the workload seed
    drives the sample stream, so every seed measures the same network.
    """
    spec = {
        "name": "perfbench-n2-train",
        "problem": {"molecule": "N2", "basis": "sto-3g"},
        "ansatz": {"name": "transformer", "seed": ANSATZ_SEED},
        "sampling": {"eloc_mode": "sample_aware", "ns_pretrain": N_SAMPLES,
                     "ns_max": N_SAMPLES},
        "train": {"pretrain_steps": 60, "pretrain_target": 0.2, "seed": seed},
        "parallel": {"backend": "serial"},
    }
    if two_rank:
        spec["parallel"] = {"backend": "process", "n_ranks": 2,
                            "nu_star_per_rank": 32}
    return spec


def serve_spec(seed: int) -> dict:
    spec = train_spec(seed, two_rank=False)
    spec["name"] = "perfbench-n2-serve"
    return spec


# ------------------------------------------------------------------ set-up
@dataclass
class Result:
    """What one workload run reports (before JSON formatting)."""

    metrics: dict = field(default_factory=dict)       # name -> (value, unit)
    display: dict = field(default_factory=dict)       # extra printed figures
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)        # (name, ok, detail)
    tracer: Tracer | None = None                      # traced runs only

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record one correctness check; a failed check is a failed op."""
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        return ok


class FreshCache:
    """An empty, private ``NNQS_CACHE_DIR`` under ``root`` for one set-up."""

    def __init__(self, root: Path):
        self.root = root

    def __enter__(self):
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="cache-", dir=self.root)
        self.previous = os.environ.get("NNQS_CACHE_DIR")
        os.environ["NNQS_CACHE_DIR"] = self.path
        return self

    def __exit__(self, *exc):
        if self.previous is None:
            os.environ.pop("NNQS_CACHE_DIR", None)
        else:
            os.environ["NNQS_CACHE_DIR"] = self.previous
        shutil.rmtree(self.path, ignore_errors=True)


def materialize(spec_dict: dict):
    """RunSpec dict -> (spec, problem, pretrained wf, phase times)."""
    from repro.api import RunSpec, materialize_ansatz, materialize_problem
    from repro.core.pretrain import pretrain_to_reference

    spec = RunSpec.from_dict(spec_dict)
    t0 = time.perf_counter()
    problem = materialize_problem(spec.problem)
    t1 = time.perf_counter()
    wf = materialize_ansatz(spec.ansatz, problem)
    pretrain_to_reference(wf, problem.hf_bits,
                          n_steps=spec.train.pretrain_steps,
                          target_prob=spec.train.pretrain_target)
    t2 = time.perf_counter()
    return spec, problem, wf, {"problem_s": t1 - t0, "pretrain_s": t2 - t1}


def build_vmc(spec, problem, wf):
    """The VMC engine the spec describes, components by registry name."""
    from repro.api import materialize_backend, materialize_sampler
    from repro.api.driver import materialize_array_backend, materialize_eloc_kernel
    from repro.core.vmc import VMC, VMCConfig

    s, o, p = spec.sampling, spec.optimizer, spec.parallel
    config = VMCConfig(
        n_samples=s.ns_pretrain, eloc_mode=s.eloc_mode, lr_scale=o.lr_scale,
        warmup=o.warmup, weight_decay=o.weight_decay, grad_clip=o.grad_clip,
        seed=spec.train.seed, sampler=materialize_sampler(spec, problem),
        group_chunk=p.group_chunk, sample_chunk=p.sample_chunk,
        eloc_memory_budget_mb=p.eloc_memory_budget_mb,
        eloc_kernel=materialize_eloc_kernel(spec),
    )
    return VMC(wf, problem.hamiltonian, config,
               backend=materialize_backend(spec),
               array_backend=materialize_array_backend(spec))


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class RankMemory:
    """Peak RSS the forked rank processes add, as the ranks report it.

    Each rank reports its peak RSS minus its RSS at the fork (a forked
    child's peak starts at its parent's RSS, whose pages it shares): the
    memory the rank allocates, not the shared pages it copies on write.
    ``peak_kb`` is the largest sum over the ranks of one launch.
    """

    KEY = "perfbench_rank_rss_growth_kb"

    def __init__(self):
        self.peak_kb = 0

    def __enter__(self):
        import repro.parallel.multiprocess as multiprocess

        original = multiprocess.run_spmd_processes
        self._restore = (multiprocess, original)

        def run_spmd_processes(size, fn, *args, **kwargs):
            def rank_fn(comm):
                at_fork = _maxrss_kb()
                out = fn(comm)
                if isinstance(out, dict):
                    out[self.KEY] = _maxrss_kb() - at_fork
                return out

            results, stats = original(size, rank_fn, *args, **kwargs)
            grown = sum(r.pop(self.KEY, 0) for r in results
                        if isinstance(r, dict))
            self.peak_kb = max(self.peak_kb, grown)
            return results, stats

        multiprocess.run_spmd_processes = run_spmd_processes
        return self

    def __exit__(self, *exc):
        module, original = self._restore
        module.run_spmd_processes = original


def peak_rss_mb(ranks: RankMemory | None = None) -> float:
    """Peak RSS of this process plus what its rank processes added (MB)."""
    return (_maxrss_kb() + (ranks.peak_kb if ranks else 0)) / 1024.0


def _median_phases(phases: list[dict]) -> dict:
    return {k: statistics.median(p[k] for p in phases) for k in phases[0]}


# ---------------------------------------------------------------- training
def setup_train(spec_dict: dict, work: Path):
    """From an empty cache through the first iteration; returns the engine
    of the last set-up and the median phase times of all of them."""
    phases, vmc = [], None
    for _ in range(SETUP_REPEATS):
        with FreshCache(work):
            t0 = time.perf_counter()
            spec, problem, wf, times = materialize(spec_dict)
            t1 = time.perf_counter()
            vmc = build_vmc(spec, problem, wf)
            stats = vmc.step()
            t2 = time.perf_counter()
        times.update(first_iter_s=t2 - t1, total_s=t2 - t0)
        phases.append(times)
        if not math.isfinite(stats.energy):
            raise RuntimeError(f"set-up iteration energy {stats.energy}")
    return vmc, _median_phases(phases)


def closed_loop(vmc, seconds: float, tracer=None):
    """Iterate until ``seconds`` have passed; one record per iteration."""
    records = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not records:
        if tracer is not None:
            tracer.iteration = vmc.iteration + 1
            span = tracer.begin("bench.iteration")
        t0 = time.perf_counter()
        stats = vmc.step()
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.end(span)
        records.append({"wall": wall, "sampling": stats.time_sampling,
                        "energy": stats.energy, "variance": stats.variance,
                        "n_samples": stats.n_samples,
                        "n_unique": stats.n_unique,
                        "per_rank_unique": stats.per_rank_unique})
    return records, time.perf_counter() - start


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def reference_trajectory(two_rank: bool, problem_cache: Path) -> list[dict]:
    """The fixed-seed reference run: set-up, then REFERENCE_ITERATIONS."""
    spec_dict = train_spec(REFERENCE_SEED, two_rank)
    with FreshCache(problem_cache):
        spec, problem, wf, _ = materialize(spec_dict)
        vmc = build_vmc(spec, problem, wf)
        out = []
        for _ in range(REFERENCE_ITERATIONS):
            s = vmc.step()
            out.append({"energy": s.energy, "variance": s.variance,
                        "n_samples": s.n_samples, "n_unique": s.n_unique})
    return out


def record_reference(work: Path) -> dict:
    """Write the serial reference trajectory the checks compare against."""
    payload = {
        "spec": train_spec(REFERENCE_SEED, False),
        "e_fci": E_FCI_N2,
        "serial": reference_trajectory(False, work),
    }
    REFERENCE_FILE.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def check_trajectory(result: Result, records: list[dict], label: str) -> None:
    energies = [r["energy"] for r in records]
    finite = all(math.isfinite(e) for e in energies)
    result.check(f"{label}: energies finite", finite)
    above = [e for e in energies if not e > E_FCI_N2]
    result.check(f"{label}: energies above E_FCI", finite and not above,
                 f"{len(above)} at or below {E_FCI_N2}")
    counts = [r["n_samples"] for r in records]
    result.check(f"{label}: N_s per iteration", set(counts) == {N_SAMPLES},
                 f"saw {sorted(set(counts))}")
    split = [r for r in records if r["per_rank_unique"] is not None
             and sum(r["per_rank_unique"]) != r["n_unique"]]
    result.check(f"{label}: rank subtrees disjoint", not split,
                 f"{len(split)} iterations with sum(per-rank N_u) != N_u")


def check_reference(result: Result, two_rank: bool, work: Path) -> None:
    """Serial: the recorded trajectory to 1e-6 Ha.  2-rank: the serial
    trajectory to max(1 mHa, 5 standard errors) — the ranks draw their own
    sample streams, so the two estimates differ by sampling noise."""
    ref = load_reference()["serial"]
    got = reference_trajectory(two_rank, work)
    for i, (r, g) in enumerate(zip(ref, got), start=1):
        diff = abs(g["energy"] - r["energy"])
        if two_rank:
            sigma = math.sqrt((r["variance"] + g["variance"]) / N_SAMPLES)
            tol = max(TWO_RANK_TOL_HA, TWO_RANK_SIGMAS * sigma)
        else:
            tol = SERIAL_TOL_HA
        result.check(f"reference iteration {i}", diff <= tol,
                     f"|dE| = {diff:.3e} Ha, tolerance {tol:.3e} Ha")
    result.attempted += len(got)  # the reference iterations themselves


def train_workload(seed: int, seconds: float, two_rank: bool, work: Path,
                   trace: bool) -> Result:
    with RankMemory() as ranks:
        result = _train_workload(seed, seconds, two_rank, work, trace)
    if not trace:
        result.metrics["peak_rss_mb"] = (peak_rss_mb(ranks), "MB")
    return result


def _train_workload(seed: int, seconds: float, two_rank: bool, work: Path,
                    trace: bool) -> Result:
    result = Result()
    vmc, setup = setup_train(train_spec(seed, two_rank), work)
    result.attempted += SETUP_REPEATS
    if trace:
        # Half the time untraced, half traced: their ratio is the overhead.
        records, _ = closed_loop(vmc, seconds / 2)
        untraced_iter_s = statistics.median(r["wall"] for r in records)
        result.tracer = Tracer()
        inst = instrument(result.tracer)
        try:
            traced, _ = closed_loop(vmc, seconds / 2, result.tracer)
        finally:
            inst.uninstall()
        result.display["trace_missing_entry_points"] = inst.missing
        records += traced
        result.metrics = train_layer_metrics(result.tracer,
                                             n_ranks=vmc.backend.n_ranks)
        traced_iter_s = statistics.median(r["wall"] for r in traced)
        result.metrics["trace.overhead_frac"] = (
            traced_iter_s / untraced_iter_s - 1.0, "ratio")
        result.metrics.update(setup_layer_metrics(setup))
    else:
        records, loop_wall = closed_loop(vmc, seconds)
        walls = [r["wall"] for r in records]
        result.metrics.update({
            "setup_s": (setup["total_s"], "s"),
            "p50_ms": (1e3 * statistics.median(walls), "ms"),
            "sample_p50_ms": (1e3 * statistics.median(
                r["sampling"] for r in records), "ms"),
            "throughput_per_s": (N_SAMPLES * len(records) / loop_wall, "1/s"),
        })
        result.display.update({
            "iter_s": statistics.median(walls),
            "iterations": len(records),
            "n_samples_per_iter": N_SAMPLES,
            "setup_phases_s": setup,
        })
    result.attempted += len(records)
    check_trajectory(result, records, "timed iterations")
    check_reference(result, two_rank, work)
    return result


def setup_layer_metrics(setup: dict) -> dict:
    return {
        "setup.problem_s": (setup["problem_s"], "s"),
        "setup.pretrain_s": (setup["pretrain_s"], "s"),
        "setup.first_iter_s": (setup["first_iter_s"], "s"),
    }


# ----------------------------------------------------------------- serving
@dataclass
class Request:
    rid: int
    op: str                 # "amps" | "sample"
    due: float              # offset from the phase start, seconds
    payload: object
    submitted: float = math.nan
    done: float = math.nan
    value: object = None
    error: str | None = None


def make_requests(rng, pool: np.ndarray, rate: float, duration: float,
                  rid0: int, saturating: bool = False) -> list[Request]:
    """A Poisson arrival stream of ``rate * duration`` requests.

    Arrival times are sorted uniforms on ``[0, duration)``: a Poisson process
    conditioned on its count, so each step offers exactly its nominal load.
    With ``saturating`` every request is due at the start and exactly one in
    ``1 / SERVE_SAMPLE_FRAC`` samples: a sample costs a few amplitude
    requests, so a drawn mix would move the saturated rate with the seed.
    """
    n = max(1, int(round(rate * duration)))
    dues = (np.zeros(n) if saturating
            else np.sort(rng.uniform(0.0, duration, size=n)))
    every = round(1 / SERVE_SAMPLE_FRAC)
    reqs = []
    for i, due in enumerate(dues):
        if (i % every == every - 1 if saturating
                else rng.random() < SERVE_SAMPLE_FRAC):
            op, payload = "sample", int(rng.integers(0, 2**31 - 1))
        else:
            rows = rng.choice(len(pool), size=SERVE_AMPS_ROWS, replace=True)
            op, payload = "amps", pool[rows]
        reqs.append(Request(rid=rid0 + i, op=op, due=float(due),
                            payload=payload))
    return reqs


def open_loop(service, reqs: list[Request], drain_timeout: float = 60.0,
              tracer: Tracer | None = None, saturate_s: float | None = None):
    """Send each request at its due time regardless of completions.

    Latency is completion minus *due* time, so a stall also charges the
    requests queued behind it.  Returns ``(start, sent, stopped)``: the phase
    start, the requests issued, and whether issuing stopped early because
    the outstanding backlog reached SERVE_MAX_OUTSTANDING.

    With ``saturate_s`` the loop is closed instead: it keeps
    SERVE_SATURATE_OUTSTANDING requests in flight, issuing the next as soon
    as one completes, and stops issuing after ``saturate_s`` seconds.
    """
    from repro.serve.scheduler import ServiceClosedError, ServiceOverloadedError

    cap = (SERVE_MAX_OUTSTANDING if saturate_s is None
           else SERVE_SATURATE_OUTSTANDING)
    cv = threading.Condition()
    outstanding = 0

    def settle() -> None:  # caller holds cv
        nonlocal outstanding
        outstanding -= 1
        cv.notify_all()

    def on_done(req, fut):
        req.done = time.perf_counter()
        try:
            req.value = fut.result()
        except Exception as exc:  # noqa: BLE001 - recorded as a failed op
            req.error = repr(exc)
        with cv:
            settle()

    stopped = False
    start = time.perf_counter()
    sent = []
    for req in reqs:
        if saturate_s is not None and time.perf_counter() - start > saturate_s:
            break
        delay = start + req.due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        with cv:
            if saturate_s is not None:
                cv.wait_for(lambda: outstanding < cap)
            elif outstanding >= cap:
                stopped = True
                break
            outstanding += 1
        sent.append(req)
        if tracer is not None:
            tracer.set_request(req.rid)
        req.submitted = time.perf_counter()
        try:
            if req.op == "amps":
                fut = service.submit_log_amplitudes(req.payload, timeout=0.0)
            else:
                fut = service.submit_sample(SERVE_SAMPLE_N, req.payload,
                                            timeout=0.0)
        except (ServiceOverloadedError, ServiceClosedError) as exc:
            req.done, req.error = time.perf_counter(), repr(exc)
            with cv:
                settle()
            continue
        fut.add_done_callback(lambda f, r=req: on_done(r, f))
    with cv:
        if not cv.wait_for(lambda: outstanding == 0, drain_timeout):
            raise RuntimeError("service did not drain its backlog in time")
    return start, sent, stopped


def saturate(service, rng, pool, seconds: float, all_reqs: list) -> float:
    """Completion rate (requests/s) with the service kept saturated.

    The nominal mix, fixed instead of drawn; SERVE_SATURATE_OUTSTANDING
    requests stay in flight for ``seconds``, so the rate is the service's
    capacity at that backlog, not an offered rate.
    """
    reqs = make_requests(rng, pool, SERVE_SATURATE_MAX_RPS, seconds,
                         len(all_reqs), saturating=True)
    start, sent, _ = open_loop(service, reqs, saturate_s=seconds)
    all_reqs += sent
    return len(sent) / (max(r.done for r in sent) - start)


def latencies_ms(start: float, reqs: list[Request], op: str) -> list[float]:
    return [1e3 * (r.done - (start + r.due)) for r in reqs
            if r.op == op and r.error is None]


def backlog_growing(start: float, reqs: list[Request], stopped: bool) -> bool:
    """A step's backlog grows when it hit the outstanding cap, or when the
    last quarter of its requests waited over twice as long as the first
    (plus 25 ms of slack for the bursts a Poisson stream brings)."""
    if stopped:
        return True
    lat = [1e3 * (r.done - (start + r.due)) for r in reqs if r.error is None]
    if len(lat) < 8:
        return False
    q = len(lat) // 4
    return statistics.median(lat[-q:]) > 2 * statistics.median(lat[:q]) + 25.0


def setup_serve(spec_dict: dict, work: Path):
    """From an empty cache through the first request of each op."""
    from repro.serve import WavefunctionService

    phases, service, wf = [], None, None
    for _ in range(SETUP_REPEATS):
        if service is not None:
            service.close()
        with FreshCache(work):
            t0 = time.perf_counter()
            spec, problem, wf, times = materialize(spec_dict)
            t1 = time.perf_counter()
            service = WavefunctionService(
                wf, hamiltonian=problem.hamiltonian,
                config=spec.serve.to_serve_config(),
            ).start()
            service.log_amplitudes(problem.hf_bits[None, :])
            service.sample(SERVE_SAMPLE_N, 0)
            t2 = time.perf_counter()
        times.update(first_iter_s=t2 - t1, total_s=t2 - t0)
        phases.append(times)
    return service, wf, _median_phases(phases)


def check_served(result: Result, wf, reqs: list[Request]) -> None:
    """Served amplitudes equal direct evaluation to 1e-10; served samples
    equal the direct seeded call bit for bit."""
    from repro.core.sampler import batch_autoregressive_sample

    amps = [r for r in reqs if r.op == "amps" and r.error is None]
    if amps:
        rows = np.concatenate([r.payload for r in amps], axis=0)
        direct = np.concatenate([wf.log_amplitudes(rows[i:i + 4096])
                                 for i in range(0, len(rows), 4096)])
        served = np.concatenate([np.asarray(r.value) for r in amps])
        err = np.abs(served - direct).reshape(len(amps), SERVE_AMPS_ROWS)
        bad = int(np.sum(err.max(axis=1) > SERVE_AMPS_TOL))
        result.check("served log_amplitudes == direct (1e-10)", bad == 0,
                     f"{bad}/{len(amps)} requests off, max |d| "
                     f"{float(err.max()):.2e}")
    bad = 0
    samples = [r for r in reqs if r.op == "sample" and r.error is None]
    for r in samples:
        ref = batch_autoregressive_sample(wf, SERVE_SAMPLE_N,
                                          np.random.default_rng(r.payload))
        if not (np.array_equal(ref.bits, r.value.bits)
                and np.array_equal(ref.weights, r.value.weights)):
            bad += 1
    if samples:
        result.check("served samples == direct seeded call (bitwise)",
                     bad == 0, f"{bad}/{len(samples)} differ")
    errors = [r for r in reqs if r.error is not None]
    result.attempted += len(reqs)
    result.failed += len(errors)


def serve_workload(seed: int, seconds: float, work: Path, trace: bool):
    from repro.core.sampler import batch_autoregressive_sample

    result = Result()
    service, wf, setup = setup_serve(serve_spec(seed), work)
    result.attempted += 2 * SETUP_REPEATS
    rng = np.random.default_rng(seed)
    pool = batch_autoregressive_sample(
        wf, SERVE_POOL_SAMPLES, np.random.default_rng(seed)).bits
    all_reqs: list[Request] = []
    try:
        if trace:
            traced_serve(result, service, rng, pool, seconds, all_reqs)
            result.metrics.update(setup_layer_metrics(setup))
        else:
            nominal = make_requests(rng, pool, SERVE_NOMINAL_RPS,
                                    SERVE_NOMINAL_SHARE * seconds, 0)
            start, sent, _ = open_loop(service, nominal)
            all_reqs += sent
            amps = latency_summary(latencies_ms(start, sent, "amps"))
            samp = latency_summary(latencies_ms(start, sent, "sample"))
            steps, best = ladder(service, rng, pool,
                                 SERVE_LADDER_SHARE * seconds, all_reqs)
            capacity = saturate(
                service, rng, pool,
                (1 - SERVE_NOMINAL_SHARE - SERVE_LADDER_SHARE) * seconds,
                all_reqs)
    finally:
        service.close()
    check_served(result, wf, all_reqs)
    if trace:
        return result
    result.metrics.update({
        "setup_s": (setup["total_s"], "s"),
        "p50_ms": (amps["p50"], "ms"),
        "sample_p50_ms": (samp["p50"], "ms"),
        "throughput_per_s": (capacity, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    })
    result.display.update({
        "nominal_rps": SERVE_NOMINAL_RPS,
        "amps_p50_ms": amps["p50"],
        f"amps_p{amps['tail_q']:g}_ms" if amps["tail_q"] else "amps_tail_ms":
            amps["tail"],
        "amps_n": amps["n"],
        "sample_p50_ms": samp["p50"],
        f"sample_p{samp['tail_q']:g}_ms" if samp["tail_q"] else
        "sample_tail_ms": samp["tail"],
        "sample_n": samp["n"],
        "ladder": steps,
        "serve_max_rps": best,
        "saturated_rps": capacity,
        "saturated_outstanding": SERVE_SATURATE_OUTSTANDING,
        "latency_limit": f"p{SERVE_LIMIT_Q:g} <= {SERVE_LIMIT_MS} ms",
        "setup_phases_s": setup,
    })
    return result


def ladder(service, rng, pool, seconds: float, all_reqs: list):
    """Offer each ladder rate in turn; stop after the first failing step.

    Returns (per-step summaries, the highest rate that meets the limit).
    """
    step_s = seconds / len(SERVE_LADDER_RPS)
    steps, summaries = [], []
    for rate in SERVE_LADDER_RPS:
        reqs = make_requests(rng, pool, rate, step_s, len(all_reqs))
        start, sent, stopped = open_loop(service, reqs)
        all_reqs += sent
        lat = [1e3 * (r.done - (start + r.due)) for r in sent
               if r.error is None]
        step = LadderStep(rate, lat,
                          failed=sum(r.error is not None for r in sent),
                          backlog_growing=backlog_growing(start, sent,
                                                          stopped))
        steps.append(step)
        ok = step.meets(SERVE_LIMIT_MS, SERVE_LIMIT_Q)
        summaries.append({
            "rps": rate, "n": len(lat), "ok": ok,
            "p50_ms": percentile(lat, 50) if lat else None,
            f"p{SERVE_LIMIT_Q:g}_ms": (percentile(lat, SERVE_LIMIT_Q)
                                       if lat else None),
            "backlog_growing": step.backlog_growing,
        })
        if not ok:
            break
    return summaries, max_sustained_rate(steps, SERVE_LIMIT_MS, SERVE_LIMIT_Q)


def traced_serve(result: Result, service, rng, pool, seconds: float,
                 all_reqs: list) -> None:
    """Nominal rate, half untraced and half traced; per-request metrics."""
    nominal = make_requests(rng, pool, SERVE_NOMINAL_RPS, seconds / 2, 0)
    start, sent, _ = open_loop(service, nominal)
    all_reqs += sent
    untraced_p50 = statistics.median(latencies_ms(start, sent, "amps"))
    before = service.stats()
    reqs = make_requests(rng, pool, SERVE_NOMINAL_RPS, seconds / 2,
                         len(all_reqs))
    result.tracer = Tracer()
    inst = instrument(result.tracer)
    try:
        start, sent, _ = open_loop(service, reqs, tracer=result.tracer)
    finally:
        inst.uninstall()
    result.display["trace_missing_entry_points"] = inst.missing
    all_reqs += sent
    traced_p50 = statistics.median(latencies_ms(start, sent, "amps"))
    result.metrics = serve_layer_metrics(result.tracer, start, sent, before,
                                         service.stats())
    result.metrics["trace.overhead_frac"] = (traced_p50 / untraced_p50 - 1.0,
                                             "ratio")


# ---------------------------------------------------------------- registry
WORKLOADS = {
    "n2-train-serial": lambda seed, seconds, work, trace: train_workload(
        seed, seconds, False, work, trace),
    "n2-train-2rank": lambda seed, seconds, work, trace: train_workload(
        seed, seconds, True, work, trace),
    "n2-serve-mixed": serve_workload,
}
