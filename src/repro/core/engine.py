"""The unified VMC execution engine: one staged iteration, many backends.

Every execution backend — serial, thread ranks, forked process ranks — runs
the *same* per-iteration stage functions, in the data-centric order of
Fig. 4 (Sec. 3.2):

  stage 1  sample           parallel BAS (Fig. 5) for N_p > 1: identical
                            seeded prefix sweep to the dynamic split step k,
                            then each rank finishes its weight-balanced share
                            of the layer-k nodes; a single rank runs the
                            plain serial sweep on the engine's persistent RNG
                            (bit-identical to the serial backend).
  stage 2  forward/table    the iteration's only full amplitude forward:
                            each rank lexsorts its own unique rows and runs
                            log pi / phi on them *taped*; Allgather of
                            (packed unique samples, weights, log amplitudes)
                            lexsorted into the global amplitude table
                            (Algorithm 2's id_lut/wf_lut).
  stage 3  eloc             each rank evaluates local energies on its own
                            sorted rows (the data locality of Fig. 4)
                            against the global table.
  stage 4  energy reduce    Allreduce of the weighted energy sums.
  stage 5  backward         Eq. 7 surrogate loss back-propagated through the
                            stage-2 tensors (no second forward); the tape
                            lives from stage 2 to here.
  stage 6  gradient reduce  one Allreduce carries the gradient *and* the
                            centered second moment (variance), so parallel
                            histories report variance/eloc_imag exactly like
                            serial ones.

The reduced gradient flows back to the engine, which applies the single
clip -> schedule -> optimizer update (exactly one implementation of the
Eq. 7 update, shared by all backends).  Reductions are rank-ordered and
therefore deterministic: ``n_ranks=1`` is bit-identical to the serial
backend, and ``n_ranks>1`` is run-to-run reproducible.

Backends are thin schedulers over the stages:

* :class:`SerialBackend`  — the stages inline, on a size-1 communicator.
* :class:`ThreadBackend`  — FakeMPI thread ranks (numpy kernels release the
  GIL, so stages 1/3/5 genuinely overlap on multicore hosts).
* :class:`ProcessBackend` — forked OS processes over
  :func:`repro.parallel.multiprocess.run_spmd_processes`.

The "engine" object the backends drive is any object with the VMC state
surface (``wf``, ``comp``, ``config``, ``rng``, ``optimizer``, ``schedule``,
``iteration``, ``backend``) — in practice :class:`repro.core.vmc.VMC`, which
keeps the checkpoint/resume format unchanged.
"""
from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from repro.autograd import Tensor
from repro.backend import active_backend, counter_delta, get_backend, use_backend, xp
from repro.backend.dtypes import float64, int64, uint32, uint64
from repro.backend.host import host_np
from repro.core.local_energy import (
    AmplitudeTable,
    ElocPlan,
    extend_amplitude_table,
    resolve_batch_kernel,
)
from repro.core.sampler import (
    SampleBatch,
    bas_prefix_sweep,
    batch_autoregressive_sample,
)
from repro.utils.bitstrings import lexsort_keys, pack_bits

__all__ = [
    "ELOC_MODES",
    "VMCConfig",
    "VMCStats",
    "stats_record",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "stage_sample",
    "stage_sample_parallel",
    "stage_gather_table",
    "GatheredTable",
    "stage_local_energy",
    "stage_backward",
    "stage_update",
    "execute_iteration",
]

ELOC_MODES = ("exact", "sample_aware")


@dataclass
class VMCConfig:
    n_samples: int | Callable[[int], int] = 10**5
    eloc_mode: str = "exact"          # 'exact' | 'sample_aware'
    lr_scale: float = 1.0             # rescales the Eq. 13 schedule
    warmup: int = 4000
    weight_decay: float = 0.01
    grad_clip: float | None = 1.0     # max-norm clip (stabilizes small batches)
    seed: int = 0
    # Pluggable sampler fn(wf, n_samples, rng) -> SampleBatch; None keeps the
    # default batch autoregressive sweep (see repro.api sampler registry).
    # Parallel backends (n_ranks > 1) require the default: a custom sampler
    # cannot be split across ranks by the Fig. 5 prefix-sweep scheme.
    sampler: Callable | None = None
    # Local-energy kernel chunking (Sec. 3.4 / Fig. 9 memory story): the
    # batch kernels materialize (sample_chunk x group_chunk) packed keys
    # at a time; eloc_memory_budget_mb caps that materialization, shrinking
    # sample_chunk automatically on wide Hamiltonians.
    group_chunk: int = 512
    sample_chunk: int = 4096
    eloc_memory_budget_mb: float | None = None
    # Which batch kernel evaluates stage 3, by eloc_kernel-registry name.
    # 'planned' (default) = compiled ElocPlan + coupled-key dedup;
    # 'vectorized' = the unplanned reference kernel.  Bit-identical values.
    eloc_kernel: str = "planned"

    def __post_init__(self) -> None:
        if not callable(self.n_samples) and self.n_samples <= 0:
            raise ValueError(
                f"VMCConfig.n_samples must be positive, got {self.n_samples!r}"
            )
        if self.eloc_mode not in ELOC_MODES:
            raise ValueError(
                f"VMCConfig.eloc_mode must be one of {ELOC_MODES}, "
                f"got {self.eloc_mode!r}"
            )
        if self.lr_scale <= 0:
            raise ValueError(
                f"VMCConfig.lr_scale must be positive, got {self.lr_scale!r}"
            )
        if self.warmup <= 0:
            raise ValueError(
                f"VMCConfig.warmup must be positive, got {self.warmup!r}"
            )
        if self.weight_decay < 0:
            raise ValueError(
                f"VMCConfig.weight_decay must be >= 0, got {self.weight_decay!r}"
            )
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ValueError(
                f"VMCConfig.grad_clip must be None or positive, "
                f"got {self.grad_clip!r}"
            )
        if not isinstance(self.group_chunk, int) or self.group_chunk <= 0:
            raise ValueError(
                f"VMCConfig.group_chunk must be a positive int, "
                f"got {self.group_chunk!r}"
            )
        if not isinstance(self.sample_chunk, int) or self.sample_chunk <= 0:
            raise ValueError(
                f"VMCConfig.sample_chunk must be a positive int, "
                f"got {self.sample_chunk!r}"
            )
        if self.eloc_memory_budget_mb is not None and self.eloc_memory_budget_mb <= 0:
            raise ValueError(
                "VMCConfig.eloc_memory_budget_mb must be None or positive, "
                f"got {self.eloc_memory_budget_mb!r}"
            )
        if not isinstance(self.eloc_kernel, str) or not self.eloc_kernel:
            raise ValueError(
                "VMCConfig.eloc_kernel must name a registered batch kernel, "
                f"got {self.eloc_kernel!r}"
            )

    def eloc_memory_budget_bytes(self) -> int | None:
        if self.eloc_memory_budget_mb is None:
            return None
        return int(self.eloc_memory_budget_mb * 2**20)


@dataclass
class VMCStats:
    """One iteration's record — the same shape on every backend.

    The parallel fields default to their serial values (``comm_bytes`` /
    ``per_rank_unique`` are ``None`` on the serial backend), so one history
    type feeds ``best_energy``, the Trainer's metrics log, checkpoints and
    the scaling benches regardless of how the iteration executed.  Equality
    compares the *trajectory* (energies, counts, comm volume) — wall-clock
    timings are excluded, so bit-identical runs compare equal.
    """

    iteration: int
    energy: float
    variance: float
    n_unique: int
    n_samples: int
    lr: float
    eloc_imag: float  # residual imaginary part of the energy (sanity signal)
    wall_time: float = field(default=0.0, compare=False)
    time_sampling: float = field(default=0.0, compare=False)  # max over ranks
    # Stage 2: the taped amplitude forward plus the table allgather.
    time_table: float = field(default=0.0, compare=False)
    time_local_energy: float = field(default=0.0, compare=False)
    # Stage 5 only: the backward through stage 2's tape (no forward).
    time_gradient: float = field(default=0.0, compare=False)
    comm_bytes: int | None = None     # None: no communicator (serial backend)
    per_rank_unique: list[int] | None = field(default=None)
    # Wire bytes actually moved (<= comm_bytes with the codec on); None on
    # serial iterations and on histories recorded before the split existed.
    comm_bytes_wire: int | None = None
    # Array-backend transfer/allocation counters (instrumented backends only;
    # None on the numpy backend).  Observability data: excluded from equality,
    # from stats_record (metrics.jsonl stays bit-identical across backends)
    # and from checkpoints; surfaced through report.json's backend section.
    transfers: dict | None = field(default=None, compare=False)


def stats_record(stats: VMCStats) -> dict:
    """The metrics.jsonl form of one iteration's stats.

    Serial iterations keep the historical six-field record; iterations that
    ran on a communicating backend additionally carry the comm volume and the
    per-rank decomposition (asserted by the CI parallel smoke step).
    """
    rec = {
        "iteration": stats.iteration,
        "energy": stats.energy,
        "variance": stats.variance,
        "n_unique": stats.n_unique,
        "n_samples": stats.n_samples,
        "lr": stats.lr,
    }
    if stats.comm_bytes is not None:
        rec.update(
            comm_bytes=stats.comm_bytes,
            comm_bytes_wire=(
                stats.comm_bytes_wire
                if stats.comm_bytes_wire is not None
                else stats.comm_bytes
            ),
            wall_time=stats.wall_time,
            time_sampling=stats.time_sampling,
            time_table=stats.time_table,
            time_local_energy=stats.time_local_energy,
            time_gradient=stats.time_gradient,
            per_rank_unique=list(stats.per_rank_unique or []),
        )
    return rec


# --------------------------------------------------------------------------
# Stage functions (the one implementation every backend schedules)
# --------------------------------------------------------------------------
def stage_sample(wf, n_samples: int, rng: host_np.random.Generator,
                 sampler: Callable | None = None) -> SampleBatch:
    """Stage 1, single rank: one BAS sweep (or a custom sampler hook)."""
    sample = sampler or batch_autoregressive_sample
    return sample(wf, n_samples, rng)


def stage_sample_parallel(wf, n_samples: int, seed: int, iteration: int,
                          nu_star: int, comm) -> SampleBatch:
    """Stage 1, N_p ranks: the parallel BAS of Fig. 5.

    Every rank replays the identical seeded prefix sweep up to the dynamic
    split step k (first layer holding >= N_u^* unique prefixes), takes its
    weight-balanced share of the layer-k nodes, and finishes the subtree with
    a rank-private stream.  Streams are derived from (seed, iteration, rank),
    so the iteration is reproducible from the checkpointed iteration counter
    alone — no RNG state crosses ranks.
    """
    from repro.parallel.partition import split_tree_state

    rank, size = comm.Get_rank(), comm.Get_size()
    shared_rng = host_np.random.default_rng((seed, iteration, 0xBA5))
    state = bas_prefix_sweep(wf, n_samples, shared_rng, nu_star)
    my_state = split_tree_state(state, size)[rank]
    cont_rng = host_np.random.default_rng((seed, iteration, rank + 1))
    return batch_autoregressive_sample(wf, 0, cont_rng, start=my_state)


def _counts_array(weights):
    """Integer multiplicities at natural width: uint32 when they fit (the
    common case — counts are bounded by the per-rank sample budget), uint64
    for the paper's N_s -> 1e12 tail."""
    if weights.size and int(weights.max()) > 0xFFFFFFFF:
        return weights.astype(uint64)
    return weights.astype(uint32)


class GatheredTable(NamedTuple):
    """Stage 2's output: the global table plus this rank's taped rows."""

    table: AmplitudeTable    # global unique set (lexsorted keys) -> log Psi
    weights: object          # its int64 multiplicities, same order
    rows: SampleBatch        # this rank's unique rows, lexsorted
    logp: Tensor             # taped log pi(rows)
    phi: Tensor              # taped phi(rows)


def stage_gather_table(comm, wf, local: SampleBatch, *, codec: bool = True,
                       baseline=None) -> GatheredTable:
    """Stage 2: the taped forward on this rank's rows; the global table.

    The rank lexsorts its own unique rows and runs ``log_prob`` /
    ``phase_of`` on them *with* the tape — the iteration's only full
    amplitude forward.  Stages 3 and 5 work on exactly these rows, and stage
    5 back-propagates through the returned tensors, so the graph lives from
    here to the end of stage 5.

    The table's keys are the global unique set, lexsorted — the
    rank-independent canonical order.  The multi-rank payload is split into
    two typed channels:

    * ``stage2_samples`` — packed keys + integer counts.  With ``codec``
      on, each rank ships a delta/varint payload of its sorted keys
      (:mod:`repro.parallel.codec`), diffed against ``baseline`` (the
      previous iteration's global unique set) when one is available; with
      ``codec`` off the keys and uint32 counts travel as raw typed arrays.
    * ``stage2_amps`` — the complex128 log-amplitudes, always raw (lossless
      float compression is not worth the cycles).

    The global set is unique across ranks (disjoint BAS subtrees), hence the
    final lexsort yields the same table bit-for-bit regardless of the wire
    encoding.
    """
    local_keys = pack_bits(local.bits)
    order = lexsort_keys(local_keys)
    skeys = local_keys[order]
    sweights = local.weights.astype(int64)[order]
    rows = SampleBatch(bits=local.bits[order], weights=sweights)
    logp = wf.log_prob(rows.bits)
    phi = wf.phase_of(rows.bits)
    # The stage-2 comm boundary: log-amplitudes leave the device exactly once
    # per rank and iteration, entering the host-resident global table (and,
    # multi-rank, the stage2_amps collective).
    local_amps = active_backend().to_host(
        0.5 * logp.data + 1j * phi.data, tag="stage2.amps"
    )
    if comm.Get_size() == 1:
        table = AmplitudeTable(keys=skeys, log_amps=local_amps)
        return GatheredTable(table, sweights, rows, logp, phi)

    rank = comm.Get_rank()
    if codec and hasattr(comm, "allgather_blob"):
        from repro.parallel.codec import (
            decode_sample_payload,
            encode_sample_payload,
        )

        blob = encode_sample_payload(skeys, sweights, baseline=baseline)
        logical = skeys.nbytes + _counts_array(sweights).nbytes
        blobs = comm.allgather_blob(blob, logical_bytes=logical,
                                    channel="stage2_samples")
        key_parts, weight_parts = [], []
        for r, b in enumerate(blobs):
            if r == rank:  # own payload: skip the (lossless) decode
                key_parts.append(skeys)
                weight_parts.append(sweights)
            else:
                k, c = decode_sample_payload(b, baseline=baseline)
                key_parts.append(k)
                weight_parts.append(c)
    else:
        counts = _counts_array(sweights)
        key_parts = comm.allgather_ndarray(skeys, channel="stage2_samples")
        weight_parts = [
            c.astype(int64)
            for c in comm.allgather_ndarray(counts, channel="stage2_samples")
        ]
    amp_parts = comm.allgather_ndarray(local_amps, channel="stage2_amps")
    keys = xp.concatenate(key_parts, axis=0)
    weights = xp.concatenate(weight_parts)
    amps = xp.concatenate(amp_parts)
    order = lexsort_keys(keys)
    keys, weights, amps = keys[order], weights[order], amps[order]
    table = AmplitudeTable(keys=keys, log_amps=amps)
    return GatheredTable(table, weights, rows, logp, phi)


def stage_partition(*_args, **_kwargs):
    """Retired: there is no E_loc partition any more.

    Stages 3 and 5 run on each rank's own rows (``GatheredTable.rows``), so
    nothing calls this.  The name stays only because the repository
    benchmark's instrumentation (``perfbench/spans.py``) wraps it and its
    tests require every wrapped entry point to exist; drop it together with
    that span.
    """
    raise NotImplementedError(
        "the E_loc partition is gone: each rank evaluates its own rows"
    )


def stage_local_energy(wf, comp, rows: SampleBatch, table: AmplitudeTable,
                       config: VMCConfig,
                       plan: ElocPlan | None = None,
                       kernel: Callable | None = None):
    """Stage 3: local energies of this rank's own rows vs. the global table.

    The batch kernel is resolved by name from the eloc_kernel registry
    (``config.eloc_kernel``) unless the engine hands in its once-per-run
    resolved callable; ``plan`` is the engine's compiled
    :class:`~repro.core.local_energy.ElocPlan`, built once per run and
    shared by every rank of every backend (unplanned kernels ignore it).
    """
    tbl = table
    if config.eloc_mode == "exact":
        tbl = extend_amplitude_table(
            wf, comp, rows, table,
            memory_budget_bytes=config.eloc_memory_budget_bytes(),
        )
    if kernel is None:
        kernel = resolve_batch_kernel(config.eloc_kernel)
    return kernel(
        comp, rows, tbl,
        group_chunk=config.group_chunk,
        sample_chunk=config.sample_chunk,
        memory_budget_bytes=config.eloc_memory_budget_bytes(),
        plan=plan,
    )


def stage_backward(wf, logp: Tensor, phi: Tensor, w_norm, eloc,
                   e_mean: float, e_imag: float):
    """Stage 5: Eq. 7 surrogate loss + backward; returns the flat gradient.

    grad = E_p[ Re(E_loc - E) grad log pi(x) ] + 2 E_p[ Im(E_loc - E) grad phi(x) ]

    implemented as a scalar loss with stop-gradient coefficients and
    back-propagated through ``logp`` / ``phi``, the taped ``log_prob`` /
    ``phase_of`` of the rows ``eloc`` belongs to (stage 2's forward; no
    forward runs here).
    """
    wf.zero_grad()
    coeff_amp = w_norm * (eloc.real - e_mean)
    coeff_phase = 2.0 * w_norm * (eloc.imag - e_imag)
    loss = (Tensor(coeff_amp) * logp).sum() + (Tensor(coeff_phase) * phi).sum()
    loss.backward()
    return wf.get_flat_grads()


def stage_update(engine, grad) -> None:
    """Stage 6 epilogue: clip -> Eq. 13 schedule -> AdamW step, on the master.

    The single implementation of the parameter update; backends hand the
    engine one reduced gradient and never touch the optimizer themselves.
    """
    grad = xp.asarray(grad)
    clip = engine.config.grad_clip
    if clip is not None:
        norm = xp.linalg.norm(grad)
        if norm > clip:
            grad = grad * (clip / norm)
    engine.wf.set_flat_grads(grad)
    engine.schedule.step()
    engine.optimizer.step()


# --------------------------------------------------------------------------
# The per-rank iteration body (shared verbatim by every backend)
# --------------------------------------------------------------------------
def _rank_iteration(engine, comm, wf, rng, nu_star: int) -> dict:
    """Run stages 1-6 as one rank of ``comm``; returns the rank's results.

    With a size-1 communicator this *is* the serial iteration: the sample
    stage consumes the engine's persistent RNG, the collectives are
    identities, and the rank's rows are the whole unique set — which is what
    makes ``ThreadBackend(n_ranks=1)`` bit-identical to :class:`SerialBackend`.

    The whole body runs under the engine's array backend (``use_backend``),
    so every ``xp`` allocation in the stages lands on it.  On instrumented
    backends the counters are snapshotted around stage 1, and the per-rank
    deltas ship back as ``out['transfers']`` — the data behind the residency
    contract's "zero unplanned host transfers inside the sampling loop".
    """
    array_backend = getattr(engine, "array_backend", None) or get_backend("numpy")
    with use_backend(array_backend):
        snap0 = array_backend.counter_snapshot()
        out, snap1 = _rank_iteration_stages(engine, comm, wf, rng, nu_star)
        snap2 = array_backend.counter_snapshot()
    sampling = counter_delta(snap0, snap1)
    if sampling is not None:
        out["transfers"] = {
            "sampling": sampling,
            "post_sampling": counter_delta(snap1, snap2),
        }
    return out


def _rank_iteration_stages(engine, comm, wf, rng,
                           nu_star: int) -> tuple[dict, dict | None]:
    """Stages 1-6 proper; returns ``(out, post-stage-1 counter snapshot)``."""
    cfg: VMCConfig = engine.config
    size = comm.Get_size()
    rank = comm.Get_rank()
    n_samples = engine._n_samples()
    times = {}

    # ---- stage 1: sample ---------------------------------------------------
    t0 = time.perf_counter()
    if size == 1:
        local = stage_sample(wf, n_samples, rng, sampler=cfg.sampler)
    else:
        if cfg.sampler is not None:
            raise ValueError(
                "custom samplers cannot be split across ranks; parallel "
                "backends require the default BAS sampler"
            )
        local = stage_sample_parallel(
            wf, n_samples, cfg.seed, engine.iteration, nu_star, comm
        )
    times["sampling"] = time.perf_counter() - t0
    snap_sampled = active_backend().counter_snapshot()

    # ---- stage 2: taped forward + allgather + global amplitude table ------
    t0 = time.perf_counter()
    codec = bool(getattr(engine.backend, "comm_codec", True))
    baseline = getattr(engine, "comm_baseline", None) if codec else None
    gathered = stage_gather_table(
        comm, wf, local, codec=codec, baseline=baseline
    )
    rows = gathered.rows
    times["table"] = time.perf_counter() - t0

    # ---- stage 3: local energy on this rank's own rows ---------------------
    t0 = time.perf_counter()
    eloc = stage_local_energy(wf, engine.comp, rows, gathered.table, cfg,
                              plan=getattr(engine, "eloc_plan", None),
                              kernel=getattr(engine, "eloc_kernel_fn", None))
    times["local_energy"] = time.perf_counter() - t0

    # ---- stage 4: allreduce the weighted energy sums -----------------------
    w_rows = rows.weights.astype(float64)
    local_sums = xp.array(
        [xp.sum(w_rows * eloc.real), xp.sum(w_rows * eloc.imag), w_rows.sum()]
    )
    sums = comm.allreduce_sum(local_sums)
    e_mean = sums[0] / sums[2]
    e_imag = sums[1] / sums[2]

    # ---- stage 5: Eq. 7 backward through the stage-2 tape ------------------
    t0 = time.perf_counter()
    grad = stage_backward(wf, gathered.logp, gathered.phi, w_rows / sums[2],
                          eloc, e_mean, e_imag)
    times["gradient"] = time.perf_counter() - t0

    # ---- stage 6: one allreduce for the gradient + centered 2nd moment -----
    var_local = xp.array([xp.sum(w_rows * (eloc.real - e_mean) ** 2)])
    # The stage-6 comm boundary: the fused gradient + variance payload leaves
    # the device exactly once per rank and iteration, entering the allreduce.
    fused = active_backend().to_host(
        xp.concatenate([grad, var_local]), tag="stage6.grad"
    )
    if hasattr(comm, "allreduce_ndarray"):
        packed = comm.allreduce_ndarray(fused, channel="stage6_grads")
    else:
        packed = comm.allreduce_sum(fused)
    grad_total, variance = packed[:-1], float(packed[-1] / sums[2])

    out = {
        "grad": grad_total,
        "energy": float(e_mean),
        "eloc_imag": float(abs(e_imag)),
        "variance": variance,
        "n_unique": len(gathered.weights),
        "n_local_unique": int(rows.n_unique),
        "n_samples": int(n_samples),
        "times": times,
    }
    spmd = bool(getattr(engine.backend, "spmd", False))
    if size > 1 and codec and (rank == 0 or spmd):
        # Next iteration's diff baseline: the global unique set in canonical
        # (lexsorted) order.  On the thread/process backends only rank 0's
        # copy survives execute() (every rank rebuilds the identical array,
        # so shipping one is enough); on SPMD backends (cluster) each rank
        # is a separate host-resident engine and must retain its own copy to
        # decode peers' delta-encoded payloads next iteration.
        out["global_keys"] = gathered.table.keys
    return out, snap_sampled


class _SoloComm:
    """Size-1 communicator with FakeComm's surface and identical arithmetic.

    ``allreduce_sum`` uses the same ``sum([x], axis=0)`` expression as
    :class:`~repro.parallel.fake_mpi.FakeComm`, so a serial iteration and a
    one-thread-rank iteration reduce bit-identically.
    """

    def Get_rank(self) -> int:
        return 0

    def Get_size(self) -> int:
        return 1

    def allgather(self, payload) -> list:
        return [payload]

    def allgather_ndarray(self, array, channel=None) -> list:
        return [xp.asarray(array)]

    def allgather_blob(self, data, logical_bytes=None, channel=None) -> list:
        return [bytes(data)]

    def allreduce_sum(self, array):
        return xp.sum([xp.asarray(array)], axis=0)

    def allreduce_ndarray(self, array, channel=None):
        return xp.sum([xp.asarray(array)], axis=0)

    def bcast(self, array, root: int = 0):
        return array


# --------------------------------------------------------------------------
# Backends: thin schedulers over the stages
# --------------------------------------------------------------------------
class ExecutionBackend:
    """How the staged iteration executes; subclasses schedule the stages.

    ``execute(engine)`` runs stages 1-6 and returns ``(rank_results,
    comm)`` where ``comm`` is ``None`` (no communicator) or a
    ``(logical_bytes, wire_bytes)`` pair; the engine then applies the single
    parameter update and calls ``after_update`` so the backend can resync any
    rank replicas.
    """

    name = "?"
    n_ranks = 1

    def execute(self, engine) -> tuple[list[dict], tuple[int, int] | None]:
        raise NotImplementedError

    def after_update(self, engine) -> None:  # pragma: no cover - default hook
        pass

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_ranks={self.n_ranks})"


class SerialBackend(ExecutionBackend):
    """The stages inline on a size-1 communicator (the classic serial VMC)."""

    name = "serial"
    n_ranks = 1

    def execute(self, engine) -> tuple[list[dict], tuple[int, int] | None]:
        result = _rank_iteration(engine, _SoloComm(), engine.wf, engine.rng,
                                 nu_star=0)
        return [result], None


def _validate_rank_args(n_ranks: int) -> None:
    if not isinstance(n_ranks, int) or n_ranks < 1:
        raise ValueError(f"n_ranks must be a positive int, got {n_ranks!r}")


class ThreadBackend(ExecutionBackend):
    """FakeMPI thread ranks; one model replica per rank (Fig. 4 data layout).

    N_u^* = ``nu_star_per_rank * n_ranks``, following the paper's scaling
    setup (N_u^* = 16384 n for n GPUs).  With ``n_ranks=1`` the iteration is
    bit-identical to :class:`SerialBackend`: same RNG stream, same stage
    arithmetic, degenerate collectives.
    """

    name = "threads"

    def __init__(self, n_ranks: int, nu_star_per_rank: int = 64,
                 comm_codec: bool = True, comm_shm: bool = True):
        _validate_rank_args(n_ranks)
        self.n_ranks = n_ranks
        self.nu_star_per_rank = nu_star_per_rank
        self.comm_codec = bool(comm_codec)
        # comm_shm is accepted for spec symmetry; thread ranks already share
        # one address space, so there is nothing to toggle.
        self.comm_shm = bool(comm_shm)
        self.replicas: list | None = None
        self.last_comm_stats = None

    def _sync_replicas(self, engine):
        if self.replicas is None:
            self.replicas = [
                copy.deepcopy(engine.wf) for _ in range(self.n_ranks)
            ]
        flat = engine.wf.get_flat_params()
        for rep in self.replicas:
            rep.set_flat_params(flat)
        return flat

    def execute(self, engine) -> tuple[list[dict], tuple[int, int] | None]:
        from repro.parallel.fake_mpi import run_spmd

        # Sync before every execute (not just after updates): the master may
        # have moved outside the engine step — checkpoint restore, pretrain.
        flat = self._sync_replicas(engine)
        nu_star = self.nu_star_per_rank * self.n_ranks
        rng = engine.rng  # consumed only on the size-1 (serial-identical) path

        def rank_fn(comm):
            return _rank_iteration(engine, comm, self.replicas[comm.Get_rank()],
                                   rng, nu_star=nu_star)

        results, stats = run_spmd(self.n_ranks, rank_fn)
        self.last_comm_stats = stats
        # The post-update parameter resync is the stage-6 broadcast, realized
        # through shared memory — account its bytes like the collectives.
        sync = flat.nbytes * self.n_ranks
        return results, (stats.total_bytes + sync, stats.total_wire_bytes + sync)

    def after_update(self, engine) -> None:
        # Keep replicas in lockstep with the master between iterations (the
        # parameter broadcast of Fig. 4 stage 6).
        self._sync_replicas(engine)


class ProcessBackend(ExecutionBackend):
    """Forked OS-process ranks over ``run_spmd_processes`` (fork-only, Linux).

    Each iteration forks ``n_ranks`` workers that inherit the current
    parameters; the reduced gradient (and, on the size-1 path, the advanced
    RNG state) is shipped back to the parent, which applies the update.
    """

    name = "process"

    def __init__(self, n_ranks: int, nu_star_per_rank: int = 64,
                 timeout: float = 600.0, comm_codec: bool = True,
                 comm_shm: bool = True, join_timeout: float = 10.0):
        _validate_rank_args(n_ranks)
        self.n_ranks = n_ranks
        self.nu_star_per_rank = nu_star_per_rank
        self.timeout = timeout
        self.join_timeout = join_timeout
        self.comm_codec = bool(comm_codec)
        self.comm_shm = bool(comm_shm)
        self.last_comm_stats = None

    def execute(self, engine) -> tuple[list[dict], tuple[int, int] | None]:
        from repro.parallel.multiprocess import run_spmd_processes

        nu_star = self.nu_star_per_rank * self.n_ranks
        param_bytes = sum(p.data.nbytes for p in engine.wf.parameters())

        def rank_fn(comm):
            out = _rank_iteration(engine, comm, engine.wf, engine.rng,
                                  nu_star=nu_star)
            if comm.Get_size() == 1:
                # The serial-identical path consumed the fork's private copy
                # of the RNG; ship its state back so the parent's stream
                # continues exactly where the child stopped.
                out["rng_state"] = engine.rng.bit_generator.state
            if comm.Get_rank() != 0:
                out["grad"] = None  # identical on every rank; pickle it once
            return out

        results, stats = run_spmd_processes(self.n_ranks, rank_fn,
                                            timeout=self.timeout,
                                            use_shm=self.comm_shm,
                                            join_timeout=self.join_timeout)
        self.last_comm_stats = stats
        state = results[0].pop("rng_state", None)
        if state is not None:
            engine.rng.bit_generator.state = state
        sync = param_bytes * self.n_ranks
        return results, (stats.total_bytes + sync, stats.total_wire_bytes + sync)


# --------------------------------------------------------------------------
# The engine step: backend-scheduled stages + the single update
# --------------------------------------------------------------------------
def _merge_transfers(results: list) -> dict | None:
    """Sum the per-rank counter deltas (None unless a rank was instrumented)."""
    deltas = [r.get("transfers") for r in results if r.get("transfers")]
    if not deltas:
        return None

    def merge(into: dict, part: dict) -> dict:
        for k, v in part.items():
            if isinstance(v, dict):
                into[k] = merge(dict(into.get(k, {})), v)
            else:
                into[k] = into.get(k, 0) + v
        return into

    merged: dict = {}
    for d in deltas:
        merge(merged, d)
    return merged


def execute_iteration(engine) -> VMCStats:
    """One full VMC iteration of ``engine`` on its backend.

    Runs the staged pipeline, applies the reduced gradient through
    :func:`stage_update`, advances the iteration counter and returns the
    unified stats record (the caller owns history bookkeeping).
    """
    backend: ExecutionBackend = engine.backend
    t_wall = time.perf_counter()
    results, comm = backend.execute(engine)
    if comm is None:
        comm_bytes = comm_wire = None
    elif isinstance(comm, tuple):
        comm_bytes, comm_wire = comm
    else:  # legacy backends return one logical count
        comm_bytes = comm_wire = int(comm)
    r0 = results[0]
    # Rank 0 hands back the lexsorted global unique set when the codec is on;
    # it becomes the next iteration's cross-iteration diff baseline.
    engine.comm_baseline = r0.pop("global_keys", None)
    stage_update(engine, r0["grad"])
    backend.after_update(engine)
    wall = time.perf_counter() - t_wall

    engine.iteration += 1
    return VMCStats(
        iteration=engine.iteration,
        energy=r0["energy"],
        variance=r0["variance"],
        n_unique=r0["n_unique"],
        n_samples=r0["n_samples"],
        lr=engine.optimizer.lr,
        eloc_imag=r0["eloc_imag"],
        wall_time=wall,
        time_sampling=max(r["times"]["sampling"] for r in results),
        time_table=max(r["times"]["table"] for r in results),
        time_local_energy=max(r["times"]["local_energy"] for r in results),
        time_gradient=max(r["times"]["gradient"] for r in results),
        comm_bytes=comm_bytes,
        per_rank_unique=(
            None if comm_bytes is None
            else [r["n_local_unique"] for r in results]
        ),
        comm_bytes_wire=comm_wire,
        transfers=_merge_transfers(results),
    )
