"""Data-centric parallelization (Sec. 3.2/3.3): FakeMPI, parallel BAS, scaling.

The parallel iteration itself lives in :mod:`repro.core.engine` (the unified
execution engine); this package provides the communicators it schedules over
(:func:`run_spmd` thread ranks, :func:`run_spmd_processes` forked ranks,
:class:`ClusterComm` multi-host TCP/MPI ranks), the BAS tree partitioning,
the communication-volume model, and the scaling harness.  The engine
backends are re-exported here for discoverability.
"""
from repro.core.engine import ProcessBackend, SerialBackend, ThreadBackend
from repro.parallel.fake_mpi import (
    CommAbortError,
    CommStats,
    FakeComm,
    run_spmd,
)
from repro.parallel.multiprocess import ProcessComm, run_spmd_processes
from repro.parallel.partition import split_tree_state
from repro.parallel.comm_model import CommVolumeModel, comm_volume_bytes
from repro.parallel.driver import DataParallelVMC, ParallelVMCStats
from repro.parallel.cluster import (
    ClusterBackend,
    ClusterComm,
    MPIComm,
    create_cluster_comm,
)
from repro.parallel.rendezvous import (
    ClusterProtocolError,
    RendezvousCoordinator,
)
from repro.parallel.scaling import (
    ScalingPoint,
    measure_scaling,
    model_scaling,
    parallel_efficiency,
)

__all__ = [
    "CommAbortError",
    "CommStats",
    "FakeComm",
    "run_spmd",
    "ProcessComm",
    "run_spmd_processes",
    "split_tree_state",
    "CommVolumeModel",
    "comm_volume_bytes",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "ClusterBackend",
    "ClusterComm",
    "MPIComm",
    "create_cluster_comm",
    "ClusterProtocolError",
    "RendezvousCoordinator",
    "DataParallelVMC",
    "ParallelVMCStats",
    "ScalingPoint",
    "measure_scaling",
    "model_scaling",
    "parallel_efficiency",
]
