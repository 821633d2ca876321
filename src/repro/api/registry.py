"""String-keyed component registries: ansätze, optimizers, samplers, kernels.

A spec names components (``ansatz.name = "transformer"``); the registries map
those names to builder callables.  This is the factory/driver split the AFQMC
production codes use — new components plug in by registering a name instead
of editing the driver's call sites:

    from repro.api import register_ansatz

    @register_ansatz("retnet")
    def build_retnet(n_qubits, n_up, n_dn, *, seed=0, **params):
        ...
        return wf

Builder contracts (what the driver calls):

* **ansatz**: ``builder(n_qubits, n_up, n_dn, *, seed=0, **params) -> wf``;
  the returned wavefunction should carry a ``spec`` dict if it is to be
  snapshot/published (``build_qiankunnet`` does this).
* **optimizer**: ``factory(wf, **params) -> optimizer``.  ``"adamw"`` is the
  Trainer/VMC path (the driver wires AdamW + the Eq. 13 schedule itself);
  any other optimizer must expose ``step(batch, eloc) -> info`` with an
  ``energy`` attribute (the SR protocol) to be drivable by ``run()``.
* **sampler**: ``factory(**params) -> sampler`` where
  ``sampler(wf, n_samples, rng) -> SampleBatch``.
* **eloc_kernel**: ``kernel(wf, comp, batch, table=None) ->
  (eloc, AmplitudeTable)`` — the signature of
  :func:`repro.core.local_energy.local_energy`.
* **backend**: ``factory(n_ranks, *, nu_star_per_rank, comm_codec,
  comm_shm) -> ExecutionBackend`` — an execution backend of
  :mod:`repro.core.engine` (the spec's ``parallel.backend`` choice).

Unknown names raise :class:`UnknownComponentError` listing what *is*
registered, so a typo'd spec fails at materialization with an actionable
message instead of deep inside the run loop.
"""
from __future__ import annotations

from typing import Callable

__all__ = [
    "UnknownComponentError",
    "ComponentRegistry",
    "ANSATZE",
    "OPTIMIZERS",
    "SAMPLERS",
    "ELOC_KERNELS",
    "BACKENDS",
    "register_ansatz",
    "register_optimizer",
    "register_sampler",
    "register_eloc_kernel",
    "register_backend",
]


class UnknownComponentError(KeyError):
    """Lookup of a name nobody registered; the message lists the options."""

    def __init__(self, kind: str, name: str, registered: list[str]):
        self.kind = kind
        self.name = name
        self.registered = registered
        options = ", ".join(registered) if registered else "(none)"
        super().__init__(
            f"unknown {kind} {name!r}; registered {kind}s: {options}"
        )

    def __str__(self) -> str:  # KeyError wraps the message in quotes
        return self.args[0]


class ComponentRegistry:
    """A named mapping from component names to builder callables."""

    def __init__(self, kind: str):
        self.kind = kind
        self._builders: dict[str, Callable] = {}

    def register(self, name: str, builder: Callable | None = None,
                 *, overwrite: bool = False):
        """Register ``builder`` under ``name``; usable as a decorator."""

        def _add(fn: Callable) -> Callable:
            if not overwrite and name in self._builders:
                raise ValueError(
                    f"{self.kind} {name!r} is already registered "
                    "(pass overwrite=True to replace it)"
                )
            self._builders[name] = fn
            return fn

        return _add if builder is None else _add(builder)

    def get(self, name: str) -> Callable:
        try:
            return self._builders[name]
        except KeyError:
            raise UnknownComponentError(self.kind, name, self.names()) from None

    def build(self, name: str, *args, **kwargs):
        return self.get(name)(*args, **kwargs)

    def names(self) -> list[str]:
        return sorted(self._builders)

    def __contains__(self, name: str) -> bool:
        return name in self._builders


ANSATZE = ComponentRegistry("ansatz")
OPTIMIZERS = ComponentRegistry("optimizer")
SAMPLERS = ComponentRegistry("sampler")
ELOC_KERNELS = ComponentRegistry("eloc_kernel")
BACKENDS = ComponentRegistry("backend")


def register_ansatz(name: str, builder: Callable | None = None,
                    *, overwrite: bool = False):
    return ANSATZE.register(name, builder, overwrite=overwrite)


def register_optimizer(name: str, builder: Callable | None = None,
                       *, overwrite: bool = False):
    return OPTIMIZERS.register(name, builder, overwrite=overwrite)


def register_sampler(name: str, builder: Callable | None = None,
                     *, overwrite: bool = False):
    return SAMPLERS.register(name, builder, overwrite=overwrite)


def register_eloc_kernel(name: str, builder: Callable | None = None,
                         *, overwrite: bool = False):
    return ELOC_KERNELS.register(name, builder, overwrite=overwrite)


def register_backend(name: str, builder: Callable | None = None,
                     *, overwrite: bool = False):
    return BACKENDS.register(name, builder, overwrite=overwrite)
