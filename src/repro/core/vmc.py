"""The variational Monte Carlo driver (Fig. 1): sample -> E_loc -> gradient.

One iteration (see :mod:`repro.core.engine` for the staged pipeline):

1. Batch autoregressive sampling produces N_u unique samples with weights.
2. Amplitudes of the unique set are tabulated (wf_lut, Algorithm 2) by one
   taped forward, and the local energies evaluated with the planned kernel.
3. The energy estimate is the weighted mean (Eq. 6) and the gradient follows
   Eq. 7; with Psi = sqrt(pi) e^{i phi} it splits into

   grad = E_p[ Re(E_loc - E) * grad log pi(x) ] + 2 E_p[ Im(E_loc - E) * grad phi(x) ]

   implemented as a surrogate scalar loss with stop-gradient coefficients,
   back-propagated through step 2's forward.
4. AdamW + the Eq. 13 warmup schedule update the parameters.

:class:`VMC` owns the iteration *state* (wavefunction, optimizer, schedule,
RNG, history — the checkpoint surface); *how* an iteration executes is the
``backend``'s job: :class:`~repro.core.engine.SerialBackend` (default),
``ThreadBackend`` or ``ProcessBackend`` all schedule the same stage
functions, so the serial driver and the data-parallel drivers share exactly
one implementation of the Eq. 7 update.

The pre-training protocol of Sec. 4.1 (small N_s for the first iterations,
then growing toward 1e12) is expressed through ``ns_schedule``.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.engine import (
    ELOC_MODES,
    ExecutionBackend,
    SerialBackend,
    VMCConfig,
    VMCStats,
    execute_iteration,
    stage_backward,
    stage_sample,
    stage_update,
)
from repro.core.local_energy import ElocPlan, resolve_batch_kernel
from repro.core.sampler import SampleBatch
from repro.core.wavefunction import NNQSWavefunction
from repro.hamiltonian.compressed import CompressedHamiltonian, compress_hamiltonian
from repro.hamiltonian.qubit_hamiltonian import QubitHamiltonian
from repro.optim import AdamW, NoamSchedule

__all__ = [
    "ELOC_MODES",
    "VMCConfig",
    "VMCStats",
    "VMC",
    "best_energy",
    "default_ns_schedule",
]


def default_ns_schedule(pretrain_iters: int = 100, ns_pretrain: int = 10**5,
                        ns_max: int = 10**12, growth: float = 1.3) -> Callable[[int], int]:
    """The paper's sample-budget schedule: small N_s early, growing to 1e12."""

    def schedule(iteration: int) -> int:
        if iteration < pretrain_iters:
            return ns_pretrain
        n = ns_pretrain * growth ** (iteration - pretrain_iters)
        return int(min(n, ns_max))

    return schedule


class VMC:
    """The VMC optimizer: engine state + a pluggable execution backend."""

    def __init__(self, wf: NNQSWavefunction,
                 hamiltonian: QubitHamiltonian | CompressedHamiltonian,
                 config: VMCConfig | None = None,
                 backend: ExecutionBackend | None = None,
                 array_backend=None):
        from repro.backend import get_backend

        self.wf = wf
        # The array backend every xp allocation of the staged iteration lands
        # on (name, ArrayBackend instance, or None for the numpy default).
        self.array_backend = get_backend(array_backend or "numpy")
        self.comp = (
            hamiltonian
            if isinstance(hamiltonian, CompressedHamiltonian)
            else compress_hamiltonian(hamiltonian)
        )
        self.config = config or VMCConfig()
        self.backend = backend or SerialBackend()
        # Resolved once per run: the batch kernel named by the config (fails
        # here, not mid-iteration) and, for the planned kernel, the compiled
        # local-energy plan — Hamiltonian-static scaffolds shared by all
        # ranks of every backend (stage 3 hands both to the kernel; other
        # kernels receive plan=None and may compile their own).
        self.eloc_kernel_fn = resolve_batch_kernel(self.config.eloc_kernel)
        self.eloc_plan = ElocPlan(
            self.comp,
            group_chunk=self.config.group_chunk,
            sample_chunk=self.config.sample_chunk,
            memory_budget_bytes=self.config.eloc_memory_budget_bytes(),
        ) if self.config.eloc_kernel == "planned" else None
        self.rng = np.random.default_rng(self.config.seed)
        self.optimizer = AdamW(
            wf, lr=0.0, weight_decay=self.config.weight_decay
        )
        d_model = getattr(wf.amplitude, "d_model", 16)
        self.schedule = NoamSchedule(
            self.optimizer, d_model=d_model, warmup=self.config.warmup,
            scale=self.config.lr_scale,
        )
        self.iteration = 0
        self.history: list[VMCStats] = []
        # Cross-iteration diff baseline for the stage-2 codec: the previous
        # iteration's lexsorted global unique set (multi-rank codec runs
        # only); part of the checkpoint surface so resume stays bitwise.
        self.comm_baseline: np.ndarray | None = None

    # ------------------------------------------------------------ internals
    def _n_samples(self) -> int:
        ns = self.config.n_samples
        return ns(self.iteration) if callable(ns) else ns

    def sample(self) -> SampleBatch:
        """One serial sampling stage on the engine's RNG (stage 1)."""
        return stage_sample(self.wf, self._n_samples(), self.rng,
                            sampler=self.config.sampler)

    def gradient_step(self, batch: SampleBatch, eloc: np.ndarray) -> None:
        """Backpropagate Eq. 7 and update parameters (stages 5-6, one rank).

        Runs its own taped forward on ``batch`` (the engine reuses stage 2's
        instead) and hands the tensors to the shared stage-5 backward.
        """
        w = batch.weights.astype(np.float64)
        w_total = w.sum()
        e_mean = float(np.sum(w * eloc.real) / w_total)
        e_imag = float(np.sum(w * eloc.imag) / w_total)
        logp = self.wf.log_prob(batch.bits)
        phi = self.wf.phase_of(batch.bits)
        grad = stage_backward(self.wf, logp, phi, w / w_total, eloc,
                              e_mean, e_imag)
        stage_update(self, grad)

    # ------------------------------------------------------------ main loop
    def step(self) -> VMCStats:
        stats = execute_iteration(self)
        self.history.append(stats)
        return stats

    def run(self, n_iterations: int, log_every: int = 0,
            callback: Callable[[VMCStats], None] | None = None) -> list[VMCStats]:
        for _ in range(n_iterations):
            stats = self.step()
            if callback is not None:
                callback(stats)
            if log_every and stats.iteration % log_every == 0:
                print(
                    f"iter {stats.iteration:5d}  E = {stats.energy:+.6f} Ha  "
                    f"var = {stats.variance:.2e}  N_u = {stats.n_unique}"
                )
        return self.history

    def best_energy(self, window: int = 20) -> float:
        """Variance-weighted energy over the trailing window (final estimate)."""
        return best_energy(self.history, window)


def best_energy(history: list[VMCStats], window: int = 20) -> float:
    """Variance-weighted mean energy over the trailing ``window`` iterations.

    The final-estimate convention shared by :meth:`VMC.best_energy` and
    :func:`repro.core.trainer.build_report` — one definition, so the number
    printed by a driver and the one written to ``report.json`` agree.  Works
    on any backend's history: serial and parallel iterations report the same
    unified :class:`~repro.core.engine.VMCStats` (variance included).
    """
    tail = history[-window:]
    if not tail:
        raise RuntimeError("no VMC iterations have run")
    es = np.array([s.energy for s in tail])
    vs = np.array([max(s.variance, 1e-12) for s in tail])
    wts = 1.0 / vs
    return float(np.sum(wts * es) / np.sum(wts))
