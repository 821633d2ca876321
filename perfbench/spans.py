"""In-memory span recorder, self-time arithmetic and layer instrumentation.

A :class:`Tracer` records nested spans (name, start, end, parent, thread,
rank, iteration or request id, attributes); work counts (rows, unique
samples) ride on the spans as attributes.  Spans are kept in
memory and written out once, when the benchmark ends.

:func:`instrument` wraps the public entry points of each layer of the
program *from the outside*: engine stage functions, the wavefunction's
amplitude calls, ``Module.__call__``, ``Tensor.gelu`` / ``Tensor.backward``,
the KV-cached decode step, ``AdamW.step``, the collectives of the serial and
process communicators, and ``run_spmd_processes`` (which ships the spans a
forked rank recorded back to the parent inside its result dict).  Nothing in
``src/`` is modified; :meth:`Instrumentation.uninstall` restores every
original attribute.
"""
from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "Tracer",
    "Instrumentation",
    "instrument",
    "self_times",
    "covered_time",
    "RANK_SPANS_KEY",
]

# Key under which a forked rank's spans ride back in its result dict.
RANK_SPANS_KEY = "_perfbench_spans"


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    tid: int
    rank: int = 0
    iteration: int | None = None
    request: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.sid, "parent": self.parent, "name": self.name,
            "start": self.start, "end": self.end, "thread": self.tid,
            "rank": self.rank, "iteration": self.iteration,
            "request": self.request, "attrs": self.attrs,
        }


class Tracer:
    """Span store; safe to use from several threads.

    The parent of a span is the innermost open span on the same thread,
    unless one is passed explicitly (a cross-thread child).  Span ids embed
    the process id, so spans shipped back from forked ranks never collide
    with the parent's.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.rank = 0
        self.iteration: int | None = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._pid = os.getpid()

    # ---------------------------------------------------------------- ids
    def _next_id(self) -> int:
        pid = os.getpid()
        if pid != self._pid:  # a forked child: fresh id space
            self._pid = pid
            self._ids = itertools.count(1)
        return pid * 10**9 + next(self._ids)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def set_request(self, request: int | None) -> None:
        """Tag spans this thread begins from now on with a request id."""
        self._local.request = request

    # -------------------------------------------------------------- spans
    def begin(self, name: str, parent: int | None = None,
              push: bool = True) -> Span:
        span = Span(
            sid=self._next_id(),
            parent=self.current() if parent is None else parent,
            name=name, start=self.clock(), end=float("nan"),
            tid=threading.get_ident(), rank=self.rank,
            iteration=self.iteration,
            request=getattr(self._local, "request", None),
        )
        if push:
            self._stack().append(span.sid)
        return span

    def end(self, span: Span, pop: bool = True, **attrs) -> Span:
        span.end = self.clock()
        if attrs:
            span.attrs.update(attrs)
        if pop:
            stack = self._stack()
            if stack and stack[-1] == span.sid:
                stack.pop()
        self.spans.append(span)  # list.append is atomic under the GIL
        return span

    def record(self, name: str, start: float, end: float,
               parent: int | None = None, **attrs) -> Span:
        """Add a finished span with explicit times (no stack effect)."""
        span = Span(sid=self._next_id(), parent=parent, name=name,
                    start=start, end=end, tid=threading.get_ident(),
                    rank=self.rank, iteration=self.iteration, attrs=attrs)
        self.spans.append(span)
        return span

    def write(self, path, extra: dict | None = None) -> None:
        payload = {
            "spans": [s.to_dict() for s in self.spans],
            **(extra or {}),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


# ----------------------------------------------------------------- self time
def covered_time(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``.

    Children on different threads may overlap each other; the union counts
    the overlap once, so a parent's self time never goes negative.
    """
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals
        if min(b, end) > max(a, start)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: s.duration - covered_time(s.start, s.end,
                                         children.get(s.sid, ()))
        for s in spans
    }


# ------------------------------------------------------------ instrumentation
# Module.__call__ sub-layer names, by class name of the called module.
MODULE_SPAN_NAMES = {
    "Embedding": "nn.embedding",
    "PositionalEmbedding": "nn.embedding",
    "CausalSelfAttention": "nn.attention",
    "FeedForward": "nn.feedforward",
    "LayerNorm": "nn.layernorm",
    "PhaseMLP": "nn.phase_mlp",
    "DecoderLayer": "nn.decoder",
    "Linear": "nn.linear",
}


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape:
        return int(shape[0])
    return 1


class Instrumentation:
    """Attribute patches installed by :func:`instrument`; undone by
    :meth:`uninstall` (in reverse order, so stacked patches unwind)."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def patch(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        wrapper = make_wrapper(original)
        functools.update_wrapper(wrapper, original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name: str, attrs=None) -> None:
        """Wrap ``owner.attr`` in a span; ``attrs(args, result)`` -> dict."""
        tracer = self.tracer

        def make(original):
            def wrapper(*args, **kwargs):
                s = tracer.begin(name)
                try:
                    result = original(*args, **kwargs)
                except BaseException:
                    tracer.end(s, failed=True)
                    raise
                try:
                    extra = attrs(args, result) if attrs else {}
                except (AttributeError, IndexError, TypeError):
                    extra = {}  # a changed signature costs the counts only
                tracer.end(s, **extra)
                return result
            return wrapper

        self.patch(owner, attr, make)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def instrument(tracer: Tracer) -> Instrumentation:
    """Install spans around the public entry points of every layer."""
    import repro.core.engine as engine
    import repro.parallel.multiprocess as multiprocess
    import repro.serve.service as service
    from repro.autograd import Tensor
    from repro.core.wavefunction import NNQSWavefunction
    from repro.nn.inference import TransformerInferenceSession
    from repro.nn.module import Module
    from repro.nn.transformer import TransformerAmplitude
    from repro.optim import AdamW

    inst = Instrumentation(tracer)

    # ---- core.engine: the six stages (module globals, resolved per call)
    inst.span(engine, "stage_sample", "engine.sample")
    inst.span(engine, "stage_sample_parallel", "engine.sample",
              attrs=lambda a, r: {"unique": int(r.n_unique)})
    inst.span(engine, "stage_gather_table", "engine.gather_table",
              attrs=lambda a, r: {"unique": int(len(r[1]))})
    inst.span(engine, "stage_partition", "engine.partition")
    inst.span(engine, "stage_local_energy", "engine.local_energy",
              attrs=lambda a, r: {"rows": _rows(a[2].bits)})
    inst.span(engine, "stage_backward", "engine.backward",
              attrs=lambda a, r: {"rows": _rows(a[1].bits)})
    inst.span(engine, "stage_update", "engine.update")

    # ---- core.sampler, as the engine and the service call it
    def unique_attrs(a, r):
        return {"unique": int(getattr(r, "n_unique", 0) or 0)}

    inst.span(engine, "batch_autoregressive_sample", "sampler.bas",
              attrs=unique_attrs)
    inst.span(engine, "bas_prefix_sweep", "sampler.prefix_sweep")
    inst.span(service, "batch_autoregressive_sample", "sampler.bas",
              attrs=unique_attrs)

    # ---- the wavefunction's public amplitude calls
    for attr in ("log_amplitudes", "log_prob", "phase_of"):
        inst.span(NNQSWavefunction, attr, f"wf.{attr}",
                  attrs=lambda a, r: {"rows": _rows(a[1])})

    # ---- nn: full forwards, sub-layers, KV-cached decode steps
    inst.span(TransformerAmplitude, "conditional_logits", "nn.forward",
              attrs=lambda a, r: {"rows": _rows(a[1])})

    def module_call(original):
        def wrapper(self, *args, **kwargs):
            s = tracer.begin(MODULE_SPAN_NAMES.get(type(self).__name__,
                                                   "nn.module"))
            try:
                return original(self, *args, **kwargs)
            finally:
                tracer.end(s)
        return wrapper

    inst.patch(Module, "__call__", module_call)
    inst.span(TransformerInferenceSession, "step", "nn.session_step",
              attrs=lambda a, r: {"rows": _rows(r)})
    inst.span(TransformerInferenceSession, "prefill", "nn.session_step",
              attrs=lambda a, r: {"rows": _rows(r)})

    # ---- autograd: GELU forward + its backward closure, the backward pass
    def gelu(original):
        def wrapper(self):
            s = tracer.begin("autograd.gelu")
            try:
                out = original(self)
            finally:
                tracer.end(s)
            closure = getattr(out, "_backward", None)
            if closure is not None:
                def timed_backward(g):
                    b = tracer.begin("autograd.gelu_backward")
                    try:
                        return closure(g)
                    finally:
                        tracer.end(b)
                out._backward = timed_backward
            return out
        return wrapper

    inst.patch(Tensor, "gelu", gelu)
    inst.span(Tensor, "backward", "autograd.backward")

    # ---- optim
    inst.span(AdamW, "step", "optim.step")

    # ---- parallel: collectives of both communicators, by channel
    def comm_span(cls, attr):
        def make(original):
            def wrapper(self, *args, **kwargs):
                s = tracer.begin("comm.collective")
                try:
                    return original(self, *args, **kwargs)
                finally:
                    tracer.end(s, op=attr,
                               channel=kwargs.get("channel") or attr)
            return wrapper
        inst.patch(cls, attr, make)

    for cls in (engine._SoloComm, multiprocess.ProcessComm):
        for attr in ("allgather_ndarray", "allgather_blob", "allreduce_sum",
                     "allreduce_ndarray"):
            comm_span(cls, attr)

    # ---- parallel: forked ranks ship their spans back in the result dict
    def spmd(original):
        def wrapper(size, fn, *args, **kwargs):
            launch = tracer.begin("parallel.run_spmd")
            launched = launch.start

            def rank_fn(comm):
                tracer.spans = []  # the child's copy: keep only its own
                tracer._local = threading.local()
                tracer.rank = comm.Get_rank()
                body = tracer.begin("parallel.rank_body", parent=launch.sid)
                out = fn(comm)
                tracer.end(body, spawn_s=body.start - launched)
                if isinstance(out, dict):
                    out[RANK_SPANS_KEY] = tracer.spans
                return out

            try:
                results, stats = original(size, rank_fn, *args, **kwargs)
            finally:
                tracer.end(launch)
            for r in results:
                if isinstance(r, dict):
                    tracer.spans.extend(r.pop(RANK_SPANS_KEY, []))
            launch.attrs["channels"] = {
                k: dict(v) for k, v in getattr(stats, "channels", {}).items()
            }
            return results, stats
        return wrapper

    inst.patch(multiprocess, "run_spmd_processes", spmd)

    # ---- serve: futures, from submit to completion
    def submit(attr):
        def make(original):
            def wrapper(self, *args, **kwargs):
                s = tracer.begin(f"serve.{attr}", push=False)
                fut = original(self, *args, **kwargs)
                fut.add_done_callback(lambda f: tracer.end(s, pop=False))
                return fut
            return wrapper
        inst.patch(service.WavefunctionService, attr, make)

    for attr in ("submit_log_amplitudes", "submit_sample"):
        submit(attr)
    return inst
