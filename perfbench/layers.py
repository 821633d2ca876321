"""Per-layer metrics derived from the spans of a traced run.

Training metrics are per iteration (summed over ranks unless the name says
otherwise); serving metrics are per request of the traced phase.  Every
workload reports every ``per_layer`` metric of BENCHMARK.json; a layer the
workload does not exercise reports 0.
"""
from __future__ import annotations

import bisect
import statistics
from collections import defaultdict

from perfbench.contract import metric_units
from perfbench.spans import self_times

__all__ = ["RANKS_REPORTED", "train_layer_metrics", "serve_layer_metrics"]

RANKS_REPORTED = 2

# nn sub-layer metric -> span name (Module.__call__ by module class).
SUBLAYERS = {
    "nn.attention_s": "nn.attention",
    "nn.feedforward_s": "nn.feedforward",
    "nn.layernorm_s": "nn.layernorm",
    "nn.embedding_s": "nn.embedding",
    "nn.phase_mlp_s": "nn.phase_mlp",
}


def _template() -> dict:
    return {name: 0.0 for name in metric_units("per_layer")}


def _with_units(values: dict) -> dict:
    units = metric_units("per_layer")
    extra = set(values) - set(units)
    if extra:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(extra)}")
    return {name: (float(values[name]), unit) for name, unit in units.items()}


def _imbalance(values: list[float]) -> float:
    """max/mean over ranks; 1.0 for a single rank or no work."""
    if len(values) < 2:
        return 1.0
    mean = sum(values) / len(values)
    return max(values) / mean if mean > 0 else 1.0


def _model_metrics(out: dict, spans: list, per: float) -> dict:
    """Fill the sampler / nn / autograd figures shared by both workload
    kinds; returns the span count per name."""
    total = defaultdict(float)
    count = defaultdict(int)
    rows = defaultdict(int)
    for s in spans:
        total[s.name] += s.duration
        count[s.name] += 1
        rows[s.name] += s.attrs.get("rows", 0) + s.attrs.get("unique", 0)
    out["sampler.s"] = (total["sampler.bas"] + total["sampler.prefix_sweep"]) / per
    out["sampler.unique_rows"] = rows["sampler.bas"] / per
    out["nn.forward_rows"] = rows["nn.forward"] / per
    out["nn.forward_s"] = total["nn.forward"] / per
    for metric, name in SUBLAYERS.items():
        out[metric] = total[name] / per
    out["nn.session_steps"] = count["nn.session_step"] / per
    out["nn.session_step_s"] = total["nn.session_step"] / per
    out["autograd.gelu_calls"] = count["autograd.gelu"] / per
    out["autograd.gelu_s"] = (total["autograd.gelu"]
                              + total["autograd.gelu_backward"]) / per
    out["autograd.backward_s"] = total["autograd.backward"] / per
    return count


# ----------------------------------------------------------------- training
def _stage_of(span) -> int | None:
    if span.name == "engine.sample":
        return 1
    if span.name == "engine.gather_table":
        return 2
    if span.name in ("engine.partition", "engine.local_energy"):
        return 3
    if span.name == "engine.backward":
        return 5
    if span.name == "comm.collective":
        return {"allreduce_sum": 4, "allreduce_ndarray": 6}.get(
            span.attrs.get("op"))
    return None


def train_layer_metrics(tracer, n_ranks: int) -> dict:
    """Per-iteration layer metrics of a traced closed loop.

    The stage times are those of the critical rank (the one that spends the
    least time in collectives); ``engine.unaccounted_s`` is the iteration wall time
    minus that rank's stages and the update, so the stages plus it add up to
    the wall time exactly.  Forks, result collection and anything between
    the stages land in it.
    """
    spans = [s for s in tracer.spans if s.iteration is not None]
    iters = sorted({s.iteration for s in spans if s.name == "bench.iteration"})
    n = len(iters)
    out = _template()
    if not n:
        return _with_units(out)
    selfs = self_times(spans)
    by_iter = defaultdict(list)
    for s in spans:
        by_iter[s.iteration].append(s)

    acc = defaultdict(float)
    rank_acc = defaultdict(float)
    for it in iters:
        sp = by_iter[it]
        wall = sum(s.duration for s in sp if s.name == "bench.iteration")
        stages = defaultdict(lambda: [0.0] * 7)
        gather_self = defaultdict(float)
        comm = defaultdict(float)
        eloc_rows = defaultdict(float)
        eloc_s = defaultdict(float)
        back_s = defaultdict(float)
        unique = defaultdict(float)
        for s in sp:
            stage = _stage_of(s)
            if stage is not None:
                stages[s.rank][stage] += s.duration
            if s.name == "engine.gather_table":
                gather_self[s.rank] += selfs[s.sid]
            elif s.name == "comm.collective":
                comm[s.rank] += s.duration
                acc["comm.calls"] += 1
            elif s.name == "engine.local_energy":
                eloc_rows[s.rank] += s.attrs.get("rows", 0)
                eloc_s[s.rank] += s.duration
            elif s.name == "engine.backward":
                back_s[s.rank] += s.duration
            elif s.name == "engine.sample" and "unique" in s.attrs:
                unique[s.rank] += s.attrs["unique"]
            elif s.name == "engine.update":
                acc["engine.update_s"] += s.duration
            elif s.name == "optim.step":
                acc["optim.step_s"] += s.duration
            elif s.name == "parallel.rank_body":
                rank_acc[("spawn", it)] = max(rank_acc[("spawn", it)],
                                              s.attrs.get("spawn_s", 0.0))
            elif s.name == "parallel.run_spmd":
                for ch, rec in s.attrs.get("channels", {}).items():
                    acc[f"comm.{ch}.wire_bytes"] += rec.get("wire", 0)
        # Collectives synchronise the ranks, so every rank's stages add up to
        # about the same time; the critical rank is the one that spends the
        # least of it waiting in collectives.
        crit = max(stages, key=lambda r: sum(stages[r]) - comm[r],
                   default=0)
        crit_stages = stages[crit]
        update = sum(s.duration for s in sp if s.name == "engine.update")
        acc["engine.iter_s"] += wall
        for k, name in enumerate(("", "stage1_sample", "stage2_gather_table",
                                  "stage3_eloc", "stage4_reduce",
                                  "stage5_backward", "stage6_reduce")):
            if k:
                acc[f"engine.{name}_s"] += crit_stages[k]
        acc["engine.gather_table_s"] += gather_self[crit]
        acc["engine.unaccounted_s"] += wall - sum(crit_stages) - update
        acc["comm.wait_s"] += max(comm.values(), default=0.0)
        ranks = sorted(stages)
        acc["parallel.eloc_rows_imbalance"] += _imbalance(
            [eloc_rows[r] for r in ranks])
        acc["parallel.backward_s_imbalance"] += _imbalance(
            [back_s[r] for r in ranks])
        acc["parallel.bas_unique_imbalance"] += _imbalance(
            [unique[r] for r in ranks if r in unique])
        acc["parallel.spawn_s"] += rank_acc[("spawn", it)]
        for r in range(RANKS_REPORTED):
            acc[f"parallel.rank{r}.eloc_rows"] += eloc_rows.get(r, 0.0)
            acc[f"parallel.rank{r}.eloc_s"] += eloc_s.get(r, 0.0)
            acc[f"parallel.rank{r}.backward_s"] += back_s.get(r, 0.0)
        acc["eloc.s"] += sum(eloc_s.values())
        acc["eloc.rows"] += sum(eloc_rows.values())

    for name, value in acc.items():
        if name in out:
            out[name] = value / n
    count = _model_metrics(out, spans, n)
    out["nn.forward_calls"] = count["nn.forward"] / (n * n_ranks)
    out["eloc.us_per_row"] = (1e6 * out["eloc.s"] / out["eloc.rows"]
                              if out["eloc.rows"] else 0.0)
    out["autograd.gelu_share"] = (out["autograd.gelu_s"]
                                  / (out["engine.iter_s"] * n_ranks))
    return _with_units(out)


# ------------------------------------------------------------------ serving
def _evaluation_start(ends: list[float], starts: list[float], done: float):
    """Start of the latest evaluation span that ended by ``done``."""
    i = bisect.bisect_right(ends, done) - 1
    return starts[i] if i >= 0 else None


def serve_layer_metrics(tracer, start: float, reqs: list, before: dict,
                        after: dict) -> dict:
    """Per-request layer metrics of a traced open-loop phase.

    Evaluation spans are the root spans on the scheduler thread (a fused
    ``log_amplitudes`` forward or one seeded sampler sweep).  A request's
    queue wait runs from its submission to the start of the latest
    evaluation of its kind that ended before it completed.
    """
    spans = tracer.spans
    out = _template()
    n_req = max(len(reqs), 1)
    count = _model_metrics(out, spans, n_req)

    roots = [s for s in spans if s.parent is None
             and s.name in ("wf.log_amplitudes", "sampler.bas")]
    evals = {}
    for kind, name in (("amps", "wf.log_amplitudes"), ("sample", "sampler.bas")):
        sel = sorted((s for s in roots if s.name == name), key=lambda s: s.end)
        evals[kind] = ([s.end for s in sel], [s.start for s in sel])
    waits, late = [], []
    for r in reqs:
        if r.error is not None:
            continue
        late.append(1e3 * (r.submitted - (start + r.due)))
        ev = _evaluation_start(*evals[r.op], r.done)
        if ev is not None:
            waits.append(1e3 * max(ev - r.submitted, 0.0))
    wall = max((r.done for r in reqs), default=start) - start
    out["serve.busy_frac"] = (sum(s.duration for s in roots) / wall
                              if wall > 0 else 0.0)
    out["serve.queue_wait_ms"] = statistics.median(waits) if waits else 0.0
    out["serve.generator_late_ms"] = statistics.median(late) if late else 0.0

    b0, b1 = before["batcher"], after["batcher"]
    batches = b1["batches"] - b0["batches"]
    out["serve.batches"] = batches / n_req
    out["serve.rows_per_batch"] = ((b1["batched_rows"] - b0["batched_rows"])
                                   / batches if batches else 0.0)
    out["serve.rejected"] = b1["rejected"] - b0["rejected"]
    created = reused = 0
    for v, info in after["versions"].items():
        p0 = before["versions"].get(v, {}).get("pool", {})
        created += info["pool"]["created"] - p0.get("created", 0)
        reused += info["pool"]["reused"] - p0.get("reused", 0)
    out["serve.session_reuse_frac"] = (reused / (created + reused)
                                       if created + reused else 0.0)
    out["nn.forward_calls"] = count["nn.forward"] / n_req
    return _with_units(out)
