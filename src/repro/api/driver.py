"""``run(spec) -> RunResult``: materialize a spec, train, own the artifacts.

The driver is the single execution path behind both the Python API and the
``python -m repro`` CLI.  Given a validated :class:`~repro.api.spec.RunSpec`
it:

1. materializes components through the registries (problem -> ansatz ->
   sampler -> optimizer), so every choice is a *name* in the spec;
2. runs the Sec. 4.1 protocol — the ``adamw`` optimizer takes the canonical
   :class:`~repro.core.trainer.Trainer`/:class:`~repro.core.vmc.VMC` path
   (bit-identical to hand wiring), any other registered optimizer runs the
   generic ``step(batch, eloc)`` protocol loop (SR is the built-in);
3. owns the artifact directory::

       <run_dir>/
         spec.json        the exact spec (reloaded by resume/serve)
         metrics.jsonl    one JSON record per iteration (+ pretrain event)
         checkpoint.npz   bit-identical resume state (adamw path)
         report.json      TrainReport.to_dict() of the last train() call
         models/          ModelRegistry of published snapshots

4. auto-publishes the final snapshot (and, with ``output.publish_every``,
   periodic ones) to the run's :class:`~repro.serve.ModelRegistry`, so a
   completed run is directly servable: ``python -m repro serve <run_dir>``
   or :func:`serve_run`.

``resume(run_dir)`` reloads ``spec.json``, restores ``checkpoint.npz``
(parameters, optimizer moments, RNG stream, history) and continues the
trajectory bit-identically to an uninterrupted run.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass
from inspect import Parameter, signature
from pathlib import Path

import numpy as np

import repro.api.builtins  # noqa: F401 — registers the built-in components
from repro.api.registry import (
    ANSATZE,
    BACKENDS,
    OPTIMIZERS,
    SAMPLERS,
    UnknownComponentError,
)
from repro.api.spec import AnsatzSpec, ProblemSpec, RunSpec, SpecError
from repro.backend import counter_delta, get_backend, use_backend
from repro.core.engine import SerialBackend, _merge_transfers
from repro.chem import build_problem, run_fci
from repro.chem.pipeline import MolecularProblem
from repro.core.trainer import TrainConfig, Trainer, TrainReport, build_report
from repro.core.local_energy import ElocPlan, local_energy, resolve_batch_kernel
from repro.core.pretrain import pretrain_to_reference
from repro.core.vmc import VMCStats, default_ns_schedule
from repro.core.wavefunction import NNQSWavefunction
from repro.hamiltonian.compressed import compress_hamiltonian
from repro.serve.registry import ModelRegistry

__all__ = [
    "SPEC_FILE",
    "METRICS_FILE",
    "CHECKPOINT_FILE",
    "REPORT_FILE",
    "MODELS_DIR",
    "RunResult",
    "materialize_problem",
    "materialize_ansatz",
    "materialize_sampler",
    "materialize_backend",
    "materialize_array_backend",
    "materialize_eloc_kernel",
    "run",
    "resume",
    "serve_run",
]

SPEC_FILE = "spec.json"
METRICS_FILE = "metrics.jsonl"
CHECKPOINT_FILE = "checkpoint.npz"
REPORT_FILE = "report.json"
MODELS_DIR = "models"


@dataclass
class RunResult:
    """What :func:`run`/:func:`resume` hand back: report + artifact handles."""

    run_dir: Path
    spec: RunSpec
    report: TrainReport
    published_version: int | None
    wavefunction: object  # the trained in-process wavefunction

    @property
    def spec_path(self) -> Path:
        return self.run_dir / SPEC_FILE

    @property
    def metrics_path(self) -> Path:
        return self.run_dir / METRICS_FILE

    @property
    def checkpoint_path(self) -> Path:
        return self.run_dir / CHECKPOINT_FILE

    @property
    def report_path(self) -> Path:
        return self.run_dir / REPORT_FILE

    @property
    def registry_dir(self) -> Path:
        return self.run_dir / MODELS_DIR

    def registry(self) -> ModelRegistry:
        return ModelRegistry(self.registry_dir)


# ------------------------------------------------------------- materializers
def materialize_problem(spec: ProblemSpec) -> MolecularProblem:
    return build_problem(
        spec.molecule, spec.basis, n_frozen=spec.n_frozen,
        n_active=spec.n_active, **spec.geometry,
    )


def _filter_to_signature(builder, candidate: dict) -> dict:
    """Architecture defaults a builder doesn't declare are dropped; explicit
    ``ansatz.params`` are never filtered (typos there must raise)."""
    params = signature(builder).parameters
    if any(p.kind is Parameter.VAR_KEYWORD for p in params.values()):
        return dict(candidate)
    return {k: v for k, v in candidate.items() if k in params}


def materialize_ansatz(spec: AnsatzSpec, problem: MolecularProblem):
    builder = ANSATZE.get(spec.name)
    arch = {
        "d_model": spec.d_model,
        "n_heads": spec.n_heads,
        "n_layers": spec.n_layers,
        "phase_hidden": tuple(spec.phase_hidden),
        "token_bits": spec.token_bits,
        "constrain": spec.constrain,
        "reverse_order": spec.reverse_order,
    }
    kwargs = {**_filter_to_signature(builder, arch), **spec.params}
    return builder(problem.n_qubits, problem.n_up, problem.n_dn,
                   seed=spec.seed, **kwargs)


def materialize_sampler(spec: RunSpec, problem: MolecularProblem):
    """Resolve the sampler name; ``None`` means "the VMC default path".

    The plain ``bas`` sampler with no knobs returns ``None`` so the adamw
    path stays byte-for-byte the pre-redesign ``VMC.sample`` call.
    """
    s = spec.sampling
    if s.sampler == "bas" and not s.params:
        SAMPLERS.get("bas")  # still validate the name is registered
        return None
    params = dict(s.params)
    if s.sampler == "mcmc":
        params.setdefault("start_bits", problem.hf_bits)
    return SAMPLERS.build(s.sampler, **params)


def materialize_eloc_kernel(spec: RunSpec) -> str:
    """Validate the spec's batch-kernel name against the eloc_kernel registry.

    Returns the name (both driver loops resolve it again at call time through
    :func:`repro.core.local_energy.resolve_batch_kernel`, so registration is
    the single source of truth).  A typo — or a registered kernel that does
    not take the engine-drivable batch signature, like the scalar Fig. 10
    rungs — fails here, at materialization, with the spec field named.
    """
    name = spec.sampling.eloc_kernel
    try:
        resolve_batch_kernel(name)
    except (UnknownComponentError, TypeError) as exc:
        raise SpecError(f"sampling.eloc_kernel: {exc}") from None
    return name


def materialize_backend(spec: RunSpec):
    """Build the execution backend named by the spec's ``parallel`` section.

    A parallel backend (anything that communicates: ``threads`` / ``process``
    / ``cluster`` or any ``n_ranks > 1``) rides the canonical Trainer path,
    so it requires the ``adamw`` optimizer and the default BAS sampler — both
    restrictions fail here, at materialization, with the spec field named.
    An unknown backend name raises the registry's
    :class:`~repro.api.registry.UnknownComponentError`, which lists every
    registered backend.
    """
    p = spec.parallel
    n_ranks = p.n_ranks
    kwargs = {
        "nu_star_per_rank": p.nu_star_per_rank,
        "comm_codec": p.comm_codec,
        "comm_shm": p.comm_shm,
    }
    if p.backend == "process":
        # The coordinator's read + worker-join timeouts, previously
        # hard-coded inside run_spmd_processes.
        kwargs["timeout"] = float(p.collective_timeout_s)
        kwargs["join_timeout"] = float(p.join_timeout_s)
    elif p.backend == "cluster":
        # One SPMD member: world_size names the job size (n_ranks is its
        # alias when world_size is unset), rank optionally pins this member.
        n_ranks = p.world_size if p.world_size is not None else p.n_ranks
        kwargs.update(
            rendezvous_addr=p.rendezvous_addr,
            rank=p.rank,
            join_timeout=float(p.join_timeout_s),
            collective_timeout=float(p.collective_timeout_s),
        )
    try:
        backend = BACKENDS.build(p.backend, n_ranks, **kwargs)
    except ValueError as exc:  # e.g. serial with n_ranks > 1
        raise SpecError(f"parallel: {exc}") from None
    if isinstance(backend, SerialBackend):
        return backend
    if spec.optimizer.name != "adamw":
        raise SpecError(
            f"parallel.backend={p.backend!r} runs the Trainer path, which "
            f"requires optimizer.name='adamw'; got {spec.optimizer.name!r}"
        )
    if backend.n_ranks > 1 and (spec.sampling.sampler != "bas"
                                or spec.sampling.params):
        raise SpecError(
            "parallel runs with more than one rank require the default 'bas' "
            "sampler with no params (the Fig. 5 prefix-sweep split); got "
            f"sampling.sampler={spec.sampling.sampler!r}"
        )
    return backend


def materialize_array_backend(spec: RunSpec):
    """Resolve the spec's ``backend`` section into a live ArrayBackend.

    The section validates the *name* at spec time; availability of the
    optional device wheels (torch / cupy) is checked here, at
    materialization, with the spec field named.
    """
    try:
        return get_backend(spec.backend.name, device=spec.backend.device)
    except ImportError as exc:
        raise SpecError(f"backend.name: {exc}") from None


def _backend_report(spec: RunSpec, history: list[VMCStats]) -> dict:
    """The report.json ``backend`` section: name + aggregated transfer
    counters (instrumented backends only — numpy runs report the name)."""
    info: dict = {"name": spec.backend.name}
    transfers = _merge_transfers([
        {"transfers": s.transfers} for s in history
    ])
    if transfers is not None:
        info["transfers"] = transfers
    return info


def _close_backend(backend) -> None:
    """Release backend-held resources (sockets, rendezvous membership)."""
    close = getattr(backend, "close", None)
    if callable(close):
        close()


def _resolve_reference(spec: RunSpec, problem: MolecularProblem) -> float | None:
    ref = spec.output.reference
    if ref is None:
        return None
    if ref == "fci":
        return run_fci(problem.hamiltonian).energy
    return float(ref)


# ------------------------------------------------------------------ run dirs
def _default_run_dir(name: str) -> Path:
    stamp = time.strftime("%Y%m%d-%H%M%S")
    base = Path("runs") / f"{name}-{stamp}"
    candidate, n = base, 1
    while (candidate / SPEC_FILE).exists():
        candidate = base.with_name(f"{base.name}-{n}")
        n += 1
    return candidate


def _prepare_run_dir(spec: RunSpec, run_dir: str | Path | None) -> Path:
    target = Path(run_dir or spec.output.run_dir or _default_run_dir(spec.name))
    if (target / SPEC_FILE).exists():
        raise SpecError(
            f"{target} already contains a run ({SPEC_FILE} exists); "
            "use resume(run_dir) to continue it or pick a fresh directory"
        )
    target.mkdir(parents=True, exist_ok=True)
    return target


def _write_report(run_dir: Path, report: TrainReport,
                  backend_info: dict | None = None) -> None:
    payload = report.to_dict()
    if backend_info is not None:
        payload["backend"] = backend_info
    (run_dir / REPORT_FILE).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def _publisher(spec: RunSpec, run_dir: Path, wf):
    """Per-iteration snapshot publication callback (or None when disabled)."""
    every = spec.output.publish_every
    if not every or not spec.output.publish:
        return None
    registry = ModelRegistry(run_dir / MODELS_DIR)

    def publish(stats: VMCStats) -> None:
        if stats.iteration % every == 0:
            registry.publish(wf, metadata={
                "run": spec.name,
                "iteration": stats.iteration,
                "energy": stats.energy,
            })

    return publish


def _publish_final(spec: RunSpec, run_dir: Path, wf,
                   report: TrainReport) -> int | None:
    if not spec.output.publish:
        return None
    registry = ModelRegistry(run_dir / MODELS_DIR)
    return registry.publish(wf, metadata={
        "run": spec.name,
        "iteration": report.iterations,
        "energy": report.energy,
        "best_energy": report.best_energy,
        "final": True,
    })


# ----------------------------------------------------------------- execution
def run(spec: RunSpec | dict, run_dir: str | Path | None = None,
        overrides: dict | list | None = None) -> RunResult:
    """Execute a spec end to end; returns the report + artifact handles."""
    if isinstance(spec, dict):
        spec = RunSpec.from_dict(spec)
    spec = spec.with_overrides(overrides)
    target = _prepare_run_dir(spec, run_dir)

    # Materialize everything before spec.json lands: a failed materialization
    # (typo'd component name, bad molecule) leaves the directory reusable.
    problem = materialize_problem(spec.problem)
    wf = materialize_ansatz(spec.ansatz, problem)
    _require_autoregressive(spec, wf)
    sampler = materialize_sampler(spec, problem)
    backend = materialize_backend(spec)
    array_backend = materialize_array_backend(spec)
    materialize_eloc_kernel(spec)
    e_ref = _resolve_reference(spec, problem)
    spec.save(target / SPEC_FILE)

    try:
        if spec.optimizer.name == "adamw":
            OPTIMIZERS.get("adamw")  # name must be registered like any other
            trainer = _build_trainer(spec, target, problem, wf, sampler,
                                     backend, e_ref, array_backend)
            report = trainer.train(on_iteration=_publisher(spec, target, wf))
            history = trainer.vmc.history
        else:
            report, history = _run_step_protocol(spec, target, problem, wf,
                                                 sampler, e_ref, array_backend)
    finally:
        # Backends holding live resources (the cluster backend's sockets and
        # rendezvous membership) release them even when training raises, so
        # a poisoned run neither hangs its peers nor leaks sockets.
        _close_backend(backend)

    _write_report(target, report, _backend_report(spec, history))
    version = _publish_final(spec, target, wf, report)
    return RunResult(run_dir=target, spec=spec, report=report,
                     published_version=version, wavefunction=wf)


def _require_autoregressive(spec: RunSpec, wf) -> None:
    """Both driver loops (Trainer and step-protocol) sample autoregressively
    and differentiate ``log_prob``/``phase_of`` — fail at materialization
    with the component named instead of deep inside the run loop."""
    if not isinstance(wf, NNQSWavefunction):
        raise SpecError(
            f"ansatz {spec.ansatz.name!r} does not build an autoregressive "
            "NNQSWavefunction; run() cannot drive it "
            "(the rbm baseline trains through repro.core.mcmc.RBMVMC)"
        )


def _build_trainer(spec: RunSpec, run_dir: Path, problem: MolecularProblem,
                   wf, sampler, backend, e_ref: float | None,
                   array_backend=None) -> Trainer:
    cfg = TrainConfig(
        max_iterations=spec.train.max_iterations,
        pretrain_steps=spec.train.pretrain_steps,
        pretrain_target=spec.train.pretrain_target,
        ns_pretrain=spec.sampling.ns_pretrain,
        ns_max=spec.sampling.ns_max,
        ns_growth=spec.sampling.ns_growth,
        pretrain_iters=spec.sampling.pretrain_iters,
        eloc_mode=spec.sampling.eloc_mode,
        warmup=spec.optimizer.warmup,
        lr_scale=spec.optimizer.lr_scale,
        weight_decay=spec.optimizer.weight_decay,
        grad_clip=spec.optimizer.grad_clip,
        seed=spec.train.seed,
        sampler=sampler,
        backend=backend,
        array_backend=array_backend,
        group_chunk=spec.parallel.group_chunk,
        sample_chunk=spec.parallel.sample_chunk,
        eloc_memory_budget_mb=spec.parallel.eloc_memory_budget_mb,
        eloc_kernel=spec.sampling.eloc_kernel,
        plateau_window=spec.train.plateau_window,
        plateau_rel_tol=spec.train.plateau_rel_tol,
        early_stop=spec.train.early_stop,
        checkpoint_every=spec.output.checkpoint_every,
        checkpoint_path=run_dir / CHECKPOINT_FILE,
        log_path=run_dir / METRICS_FILE,
        log_every=spec.output.log_every,
    )
    return Trainer(wf, problem.hamiltonian, cfg, hf_bits=problem.hf_bits,
                   e_hf=problem.e_hf, e_reference=e_ref)


def _run_step_protocol(spec: RunSpec, run_dir: Path,
                       problem: MolecularProblem, wf, sampler,
                       e_ref: float | None,
                       array_backend=None) -> tuple[TrainReport, list[VMCStats]]:
    """The generic optimizer loop: sample -> E_loc -> ``opt.step(batch, eloc)``.

    Any registered optimizer exposing the SR protocol plugs in here.  The
    path emits the same artifacts as the Trainer path but has no checkpoint
    format — ``resume`` refuses these runs with an actionable error.
    """
    opt = OPTIMIZERS.build(spec.optimizer.name, wf, **spec.optimizer.params)
    if not hasattr(opt, "step"):
        raise SpecError(
            f"optimizer {spec.optimizer.name!r} does not expose "
            "step(batch, eloc); run() cannot drive it"
        )
    sample = sampler or SAMPLERS.build("bas")
    comp = compress_hamiltonian(problem.hamiltonian)
    kernel_name = materialize_eloc_kernel(spec)
    budget_bytes = (
        None if spec.parallel.eloc_memory_budget_mb is None
        else int(spec.parallel.eloc_memory_budget_mb * 2**20)
    )
    # One compiled plan per run — the Hamiltonian-static scaffolds are shared
    # by every iteration's kernel call (unplanned kernels ignore it).
    plan = ElocPlan(
        comp, group_chunk=spec.parallel.group_chunk,
        sample_chunk=spec.parallel.sample_chunk,
        memory_budget_bytes=budget_bytes,
    ) if kernel_name == "planned" else None
    schedule = default_ns_schedule(
        pretrain_iters=spec.sampling.pretrain_iters,
        ns_pretrain=spec.sampling.ns_pretrain,
        ns_max=spec.sampling.ns_max,
        growth=spec.sampling.ns_growth,
    )
    rng = np.random.default_rng(spec.train.seed)
    publish = _publisher(spec, run_dir, wf)
    t0 = time.perf_counter()
    history: list[VMCStats] = []
    with open(run_dir / METRICS_FILE, "a") as log:
        def emit(record: dict) -> None:
            log.write(json.dumps(record) + "\n")
            log.flush()

        if spec.train.pretrain_steps > 0:
            pi = pretrain_to_reference(
                wf, problem.hf_bits, n_steps=spec.train.pretrain_steps,
                target_prob=spec.train.pretrain_target,
            )
            emit({"event": "pretrain", "pi_hf": pi})
        array_backend = array_backend or get_backend("numpy")
        for i in range(spec.train.max_iterations):
            snap0 = array_backend.counter_snapshot()
            with use_backend(array_backend):
                batch = sample(wf, schedule(i), rng)
                snap1 = array_backend.counter_snapshot()
                eloc, _ = local_energy(
                    wf, comp, batch, mode=spec.sampling.eloc_mode,
                    group_chunk=spec.parallel.group_chunk,
                    sample_chunk=spec.parallel.sample_chunk,
                    memory_budget_bytes=budget_bytes,
                    kernel=kernel_name, plan=plan,
                )
                info = opt.step(batch, eloc)
            snap2 = array_backend.counter_snapshot()
            sampling = counter_delta(snap0, snap1)
            transfers = None
            if sampling is not None:
                transfers = {"sampling": sampling,
                             "post_sampling": counter_delta(snap1, snap2)}
            w = batch.weights / batch.weights.sum()
            energy = float(np.sum(w * eloc.real))
            variance = float(np.sum(w * (eloc.real - energy) ** 2))
            stats = VMCStats(
                iteration=i + 1, energy=energy, variance=variance,
                n_unique=batch.n_unique, n_samples=batch.n_samples,
                lr=float(getattr(info, "update_norm", 0.0)),
                eloc_imag=float(np.abs(np.sum(w * eloc.imag))),
                transfers=transfers,
            )
            history.append(stats)
            emit({
                "iteration": stats.iteration, "energy": stats.energy,
                "variance": stats.variance, "n_unique": stats.n_unique,
                "n_samples": stats.n_samples, "lr": stats.lr,
            })
            if spec.output.log_every and stats.iteration % spec.output.log_every == 0:
                print(f"iter {stats.iteration:5d}  E = {energy:+.6f} Ha  "
                      f"var = {variance:.2e}  N_u = {batch.n_unique}")
            if publish is not None:
                publish(stats)
    report = build_report(
        history, getattr(wf, "n_qubits", problem.n_qubits),
        time.perf_counter() - t0, stopped_early=False,
        e_hf=problem.e_hf, e_reference=e_ref,
    )
    return report, history


def resume(run_dir: str | Path,
           overrides: dict | list | None = None) -> RunResult:
    """Continue a run from its artifact directory, bit-identically.

    Reloads ``spec.json`` (optionally with overrides — the usual one is
    ``train.max_iterations`` to extend the budget), rebuilds the components,
    restores ``checkpoint.npz`` and continues training.  The restored state
    includes optimizer moments and the RNG bit-generator, so the continued
    per-iteration energies match an uninterrupted run exactly.
    """
    run_dir = Path(run_dir)
    spec_path = run_dir / SPEC_FILE
    if not spec_path.exists():
        raise SpecError(f"{run_dir} has no {SPEC_FILE}; not a run directory")
    spec = RunSpec.load(spec_path).with_overrides(overrides)
    if spec.optimizer.name != "adamw":
        raise SpecError(
            f"resume supports the adamw/Trainer path; optimizer "
            f"{spec.optimizer.name!r} runs are not checkpointed"
        )
    ckpt = run_dir / CHECKPOINT_FILE
    if not ckpt.exists():
        raise SpecError(
            f"{run_dir} has no {CHECKPOINT_FILE}; the run has not completed "
            "a checkpoint yet"
        )
    if overrides:
        spec.save(spec_path)  # future resumes see the extended budget

    problem = materialize_problem(spec.problem)
    wf = materialize_ansatz(spec.ansatz, problem)
    _require_autoregressive(spec, wf)
    sampler = materialize_sampler(spec, problem)
    backend = materialize_backend(spec)
    array_backend = materialize_array_backend(spec)
    materialize_eloc_kernel(spec)
    e_ref = _resolve_reference(spec, problem)
    trainer = _build_trainer(spec, run_dir, problem, wf, sampler, backend,
                             e_ref, array_backend)
    try:
        trainer.resume(ckpt)
        start_iteration = trainer.vmc.iteration
        report = trainer.train(on_iteration=_publisher(spec, run_dir, wf))
    finally:
        _close_backend(backend)
    _write_report(run_dir, report, _backend_report(spec, trainer.vmc.history))
    if report.iterations > start_iteration:
        version = _publish_final(spec, run_dir, wf, report)
    else:
        # Nothing new ran (budget already exhausted): keep the existing
        # latest version instead of minting a duplicate snapshot.
        version = (ModelRegistry(run_dir / MODELS_DIR).latest_version()
                   if spec.output.publish else None)
    return RunResult(run_dir=run_dir, spec=spec, report=report,
                     published_version=version, wavefunction=wf)


# ------------------------------------------------------------------- serving
def serve_run(run_dir: str | Path, config=None):
    """A :class:`~repro.serve.WavefunctionService` over a run's snapshots.

    Loads the run's model registry and rebuilds its Hamiltonian, so all
    request types (including ``local_energy``) work.  ``config=None`` takes
    the batcher/cache knobs from the run's own ``serve`` spec section (the
    ``--set serve.*`` overrides recorded in ``spec.json``).  The service is
    returned unstarted — use it as a context manager or call ``start()``.
    """
    from repro.serve import WavefunctionService

    run_dir = Path(run_dir)
    spec_path = run_dir / SPEC_FILE
    if not spec_path.exists():
        raise SpecError(f"{run_dir} has no {SPEC_FILE}; not a run directory")
    spec = RunSpec.load(spec_path)
    if config is None:
        config = spec.serve.to_serve_config()
    registry = ModelRegistry(run_dir / MODELS_DIR)
    if registry.latest_version() is None:
        raise SpecError(
            f"{run_dir} has no published snapshots yet "
            "(did the run finish with output.publish enabled?)"
        )
    problem = materialize_problem(spec.problem)
    return WavefunctionService(registry, hamiltonian=problem.hamiltonian,
                               config=config)
