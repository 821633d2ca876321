"""Data-centric parallel VMC (Fig. 4, Sec. 3.2) — now an engine configuration.

The parallel iteration used to live here as a fork of ``core.vmc.VMC`` with
its own gradient/optimizer/clip code.  It is now a *backend* of the unified
execution engine: :class:`~repro.core.engine.ThreadBackend` schedules the
shared stage functions (parallel BAS -> taped forward + allgathered
amplitude table -> local energies of each rank's own samples -> Eq. 7
backward -> reduced-gradient update) over FakeMPI thread ranks, and the engine applies the single
parameter update.  See :mod:`repro.core.engine` for the stage contract and
DESIGN.md ("Execution engine") for the backend matrix.

:class:`DataParallelVMC` remains as the thin compatibility wrapper used by
the scaling benches and examples: a :class:`~repro.core.vmc.VMC` pre-wired
with a :class:`ThreadBackend`.  ``ParallelVMCStats`` is the unified
:class:`~repro.core.engine.VMCStats` — parallel histories now carry variance
and the residual imaginary part, so ``best_energy`` applies to them too.
"""
from __future__ import annotations

from repro.core.engine import ThreadBackend, VMCStats as ParallelVMCStats
from repro.core.vmc import VMC, VMCConfig
from repro.core.wavefunction import NNQSWavefunction
from repro.hamiltonian.compressed import CompressedHamiltonian
from repro.hamiltonian.qubit_hamiltonian import QubitHamiltonian

__all__ = ["ParallelVMCStats", "DataParallelVMC"]


class DataParallelVMC(VMC):
    """VMC over N_p data-parallel thread ranks (engine + ThreadBackend)."""

    def __init__(self, wf: NNQSWavefunction,
                 hamiltonian: QubitHamiltonian | CompressedHamiltonian,
                 n_ranks: int, config: VMCConfig | None = None,
                 nu_star_per_rank: int = 64):
        super().__init__(
            wf, hamiltonian, config,
            backend=ThreadBackend(
                n_ranks=n_ranks,
                nu_star_per_rank=nu_star_per_rank,
            ),
        )
        self.n_ranks = n_ranks
        # N_u^* = nu_star_per_rank * N_p, as in the scaling experiments
        # (the paper uses N_u^* = 16384 n for n GPUs).
        self.nu_star = nu_star_per_rank * n_ranks

    @property
    def master(self) -> NNQSWavefunction:
        return self.wf

    @property
    def replicas(self) -> list:
        return self.backend.replicas or []
