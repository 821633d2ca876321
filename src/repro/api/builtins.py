"""Built-in components: the repo's existing builders, registered by name.

Importing :mod:`repro.api` triggers this module, so every spec-addressable
name below is available without further setup.  The registrations wrap the
canonical builders (``build_qiankunnet``, ``AdamW``, ``batch_autoregressive_
sample``, the local-energy ladder) — the registry layer adds *naming*, not
new numerics.

Registered names:

* ansatz: ``transformer`` (QiankunNet), ``made``, ``naqs-mlp``, ``rbm``
* optimizer: ``adamw`` (the Trainer/VMC path), ``sr``
* sampler: ``bas`` (batch autoregressive), ``hybrid`` (independent-stream
  merge, Sec. 4.4), ``mcmc`` (Metropolis exchange moves)
* eloc_kernel: ``exact`` / ``sample_aware`` (the high-level modes of
  ``local_energy``), the scalar Fig. 10 rungs ``baseline`` / ``sa_fuse``
  / ``sa_fuse_lut`` (native low-level signatures), and the engine-drivable
  batch rungs ``vectorized`` / ``planned`` (shared batch-kernel signature;
  ``planned`` is the compiled-plan + coupled-key-dedup kernel the spec's
  ``sampling.eloc_kernel`` selects by default — see
  :mod:`repro.core.local_energy`).
* backend: ``serial`` / ``threads`` / ``process`` — the execution backends
  of :mod:`repro.core.engine` — plus ``cluster``, the multi-host TCP/MPI
  transport of :mod:`repro.parallel.cluster` (the spec's ``parallel``
  section).
"""
from __future__ import annotations

import numpy as np

from repro.api.registry import (
    register_ansatz,
    register_backend,
    register_eloc_kernel,
    register_optimizer,
    register_sampler,
)
from repro.core.engine import ProcessBackend, SerialBackend, ThreadBackend
from repro.core.hybrid_sampling import merged_batch_sample
from repro.core.local_energy import (
    BATCH_ELOC_KERNELS,
    local_energy,
    local_energy_baseline,
    local_energy_sa_fuse,
    local_energy_sa_fuse_lut,
)
from repro.core.mcmc import metropolis_sample
from repro.core.sampler import batch_autoregressive_sample
from repro.core.sr import SRConfig, StochasticReconfiguration
from repro.core.wavefunction import build_qiankunnet
from repro.nn.rbm import RBMWavefunction
from repro.optim import AdamW

__all__ = []  # registration side effects only


# ------------------------------------------------------------------- ansätze
def _autoregressive_builder(amplitude_type: str):
    def build(n_qubits: int, n_up: int, n_dn: int, *, seed: int = 0, **params):
        return build_qiankunnet(
            n_qubits, n_up, n_dn, amplitude_type=amplitude_type, seed=seed,
            **params,
        )

    build.__name__ = f"build_{amplitude_type.replace('-', '_')}"
    return build


for _kind in ("transformer", "made", "naqs-mlp"):
    register_ansatz(_kind, _autoregressive_builder(_kind))


@register_ansatz("rbm")
def build_rbm(n_qubits: int, n_up: int, n_dn: int, *, seed: int = 0,
              alpha: int = 2):
    """The RBM baseline (MCMC-sampled; trains through ``repro.core.mcmc``).

    The exact signature (no ``**params``) lets the driver filter out the
    autoregressive architecture fields; typos in ``ansatz.params`` still
    raise the natural ``TypeError``.
    """
    del n_up, n_dn  # the RBM itself is sector-agnostic; MCMC moves conserve N
    return RBMWavefunction(n_qubits, alpha=alpha,
                           rng=np.random.default_rng(seed))


# ---------------------------------------------------------------- optimizers
@register_optimizer("adamw")
def build_adamw(wf, *, lr: float = 0.0, weight_decay: float = 0.01, **params):
    """The paper's optimizer. ``run()`` treats the name specially (Trainer
    path: AdamW + the Eq. 13 Noam schedule inside ``repro.core.vmc.VMC``);
    this factory serves direct programmatic composition."""
    if params:
        raise TypeError(f"adamw factory got unknown params {sorted(params)}")
    return AdamW(wf, lr=lr, weight_decay=weight_decay)


@register_optimizer("sr")
def build_sr(wf, **params):
    """Stochastic reconfiguration — the ``step(batch, eloc)`` protocol."""
    return StochasticReconfiguration(wf, SRConfig(**params))


# ------------------------------------------------------------------ samplers
@register_sampler("bas")
def build_bas_sampler(*, use_cache: bool = True,
                      cache_budget_bytes: int | None = None):
    """Batch autoregressive sampling (Fig. 3b) — the paper's sampler."""

    def sample(wf, n_samples, rng):
        return batch_autoregressive_sample(
            wf, n_samples, rng, use_cache=use_cache,
            cache_budget_bytes=cache_budget_bytes,
        )

    return sample


@register_sampler("hybrid")
def build_hybrid_sampler(*, n_streams: int = 4, use_cache: bool = True):
    """Independent-stream BAS merge (Sec. 4.4 outlook)."""

    def sample(wf, n_samples, rng):
        batch, _ = merged_batch_sample(
            wf, n_samples, rng, n_streams=n_streams, use_cache=use_cache,
        )
        return batch

    return sample


@register_sampler("mcmc")
def build_mcmc_sampler(*, start_bits=None, n_burnin: int = 200, thin: int = 2):
    """Single-chain Metropolis sampling (the RBM baseline's sampler).

    ``start_bits`` (the chain's starting determinant, e.g. the HF bits) is
    bound at factory time; the driver passes the problem's ``hf_bits``.
    """
    if start_bits is None:
        raise ValueError(
            "mcmc sampler needs start_bits (e.g. the problem's hf_bits)"
        )
    start = np.asarray(start_bits, dtype=np.uint8)

    def sample(wf, n_samples, rng):
        batch, _ = metropolis_sample(
            wf, start, n_samples, rng, n_burnin=n_burnin, thin=thin,
        )
        return batch

    return sample


# ---------------------------------------------------------- execution backends
@register_backend("serial")
def build_serial_backend(n_ranks: int = 1, **params):
    """The classic single-rank iteration (the default ``parallel`` section)."""
    if n_ranks != 1:
        raise ValueError(
            f"the serial backend runs exactly one rank (got n_ranks={n_ranks}); "
            "use parallel.backend=threads, =process or =cluster for N_p > 1"
        )
    return SerialBackend()


@register_backend("threads")
def build_thread_backend(n_ranks: int = 1, *, nu_star_per_rank: int = 64,
                         comm_codec: bool = True, comm_shm: bool = True):
    """FakeMPI thread ranks — the Fig. 4 data-parallel iteration in-process."""
    return ThreadBackend(n_ranks=n_ranks, nu_star_per_rank=nu_star_per_rank,
                         comm_codec=comm_codec, comm_shm=comm_shm)


@register_backend("process")
def build_process_backend(n_ranks: int = 1, *, nu_star_per_rank: int = 64,
                          comm_codec: bool = True, comm_shm: bool = True,
                          timeout: float = 600.0, join_timeout: float = 10.0):
    """Forked OS-process ranks (fork start method; Linux)."""
    return ProcessBackend(n_ranks=n_ranks, nu_star_per_rank=nu_star_per_rank,
                          comm_codec=comm_codec, comm_shm=comm_shm,
                          timeout=timeout, join_timeout=join_timeout)


@register_backend("cluster")
def build_cluster_backend(n_ranks: int = 1, *, nu_star_per_rank: int = 64,
                          comm_codec: bool = True, comm_shm: bool = True,
                          rendezvous_addr: str | None = None,
                          rank: int | None = None,
                          join_timeout: float = 60.0,
                          collective_timeout: float = 600.0):
    """Multi-host SPMD ranks over TCP sockets (or mpi4py when available).

    One rank per invocation: every host runs the full driver on the same
    spec and the ranks meet inside the collectives.  Without an MPI world
    of matching size, a rendezvous coordinator address is required — fail
    here, at spec time, rather than deep inside rendezvous.
    """
    from repro.parallel.cluster import ClusterBackend, _mpi_comm_world

    if rendezvous_addr is None:
        mpi = _mpi_comm_world()
        if mpi is None or mpi.Get_size() != n_ranks:
            raise ValueError(
                "the cluster backend needs parallel.rendezvous_addr "
                "(host:port of a `python -m repro rendezvous` coordinator) "
                f"when no MPI world of size {n_ranks} is available"
            )
    return ClusterBackend(
        n_ranks=n_ranks, nu_star_per_rank=nu_star_per_rank,
        comm_codec=comm_codec, comm_shm=comm_shm,
        rendezvous_addr=rendezvous_addr, rank=rank,
        join_timeout=join_timeout, collective_timeout=collective_timeout,
    )


# --------------------------------------------------------- local-energy ladder
register_eloc_kernel("exact",
                     lambda wf, comp, batch, table=None:
                     local_energy(wf, comp, batch, mode="exact", table=table))
register_eloc_kernel("sample_aware",
                     lambda wf, comp, batch, table=None:
                     local_energy(wf, comp, batch, mode="sample_aware",
                                  table=table))
# The raw Fig. 10 ladder, exposed for benchmarks/ablation by name.  The
# scalar rungs keep their native low-level signatures (documented in
# core/local_energy).
register_eloc_kernel("baseline", local_energy_baseline)
register_eloc_kernel("sa_fuse", local_energy_sa_fuse)
register_eloc_kernel("sa_fuse_lut", local_energy_sa_fuse_lut)
# The batch rungs share the engine-drivable signature
#   kernel(comp, batch, table, *, group_chunk, sample_chunk,
#          memory_budget_bytes, plan) -> eloc
# so `sampling.eloc_kernel` can select either by name ('planned' is the
# compiled-ElocPlan + coupled-key-dedup kernel; values are bit-identical).
for _name, _kernel in BATCH_ELOC_KERNELS.items():
    register_eloc_kernel(_name, _kernel)
