"""Fig. 11: strong scaling of the data-centric parallel VMC iteration.

The paper scales benzene/6-31G (120 qubits) from 4 to 64 A100s at fixed
N_s = 1.6e6.  Substitution (DESIGN.md): thread-rank measurements on
N2/STO-3G at fixed sample budget on this host's cores, extended by the
calibrated analytic model (embarrassingly parallel E_loc/backward stages,
serial shared-prefix fraction in sampling, Sec. 3.2 communication volume) out
to 64 ranks.  Shape: monotonically decreasing efficiency, still high at
moderate rank counts.

Iterations run on the unified execution engine's ``ThreadBackend``
(``repro.core.engine``); each rank computes E_loc and the backward pass on
its own BAS samples (Fig. 4's data locality).  A process-backend block
measures the fork-rank path over the typed shared-memory + codec comm layer.

CI smoke: ``python benchmarks/bench_fig11_strong_scaling.py --smoke``
measures 2-rank process-backend strong scaling with the typed/compressed
comm layer on vs. off (the PR 4/5 pickle-over-pipes baseline) and records
both to ``benchmarks/results/``; ``--cluster`` runs the same workload over
the TCP cluster transport (localhost mesh, thread-hosted SPMD ranks) and
gates on the estimator + comm-volume columns being bit-identical to the
thread backend at each rank count.
"""
from __future__ import annotations

import sys
from pathlib import Path

if __name__ == "__main__":  # bare-script invocation: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.bench import format_table, registry
from repro.chem import build_problem
from repro.core import VMCConfig, build_qiankunnet, pretrain_to_reference
from repro.hamiltonian import compress_hamiltonian
from repro.parallel import measure_scaling, model_scaling, parallel_efficiency

_NS = 200_000


def _wf_factory(prob):
    def make():
        wf = build_qiankunnet(prob.n_qubits, prob.n_up, prob.n_dn, seed=13)
        pretrain_to_reference(wf, prob.hf_bits, n_steps=60, target_prob=0.2)
        return wf

    return make


def test_fig11_strong_scaling(benchmark, full):
    prob = build_problem("N2", "sto-3g")
    comp = compress_hamiltonian(prob.hamiltonian)
    ranks = [1, 2, 4] + ([8] if full else [])
    points = measure_scaling(
        _wf_factory(prob), comp, ranks, n_samples_for=lambda n: _NS,
        n_iters=3, config=VMCConfig(eloc_mode="sample_aware", seed=14),
        nu_star_per_rank=32,
    )
    eff = parallel_efficiency(points, mode="strong")
    rows = [
        [p.n_ranks, p.n_unique, f"{p.time_per_iter:.3f}", f"{p.time_sampling:.3f}",
         f"{p.time_table:.3f}", f"{p.time_local_energy:.3f}",
         f"{p.time_gradient:.3f}", f"{100 * e:.1f}%"]
        for p, e in zip(points, eff)
    ]
    model = model_scaling(points[0], [4, 8, 16, 32, 64], prob.n_qubits,
                          _n_params(prob), mode="strong")
    eff_m = parallel_efficiency([points[0]] + model, mode="strong")[1:]
    for p, e in zip(model, eff_m):
        rows.append([f"{p.n_ranks}*", p.n_unique, f"{p.time_per_iter:.3f}",
                     f"{p.time_sampling:.3f}", f"{p.time_table:.3f}",
                     f"{p.time_local_energy:.3f}", f"{p.time_gradient:.3f}",
                     f"{100 * e:.1f}%"])
    # Paper-scale model: a base point shaped like the paper's 4-GPU benzene
    # iteration (~250 s, stage split from the Fig. 11 stacked bars).
    from repro.parallel import ScalingPoint

    paper_base = ScalingPoint(
        n_ranks=4, n_samples=1_600_000, time_per_iter=250.0,
        time_sampling=100.0, time_local_energy=100.0, time_gradient=50.0,
        n_unique=650_000, comm_bytes=0,
    )
    paper_model = model_scaling(paper_base, [8, 16, 32, 64], 120, 270_000,
                                mode="strong")
    eff_p = parallel_efficiency([paper_base] + paper_model, mode="strong")[1:]
    paper_ref = {8: 99.2, 16: 96.7, 32: 84.1, 64: 67.7}
    for p, e in zip(paper_model, eff_p):
        rows.append([f"{p.n_ranks}^", p.n_unique, f"{p.time_per_iter:.1f}",
                     f"{p.time_sampling:.1f}", "-", f"{p.time_local_energy:.1f}",
                     f"{p.time_gradient:.1f}",
                     f"{100 * e:.1f}% (paper {paper_ref[p.n_ranks]}%)"])
    table = format_table(
        "Fig. 11 — Strong scaling (fixed N_s), measured + model (*)",
        ["ranks", "N_u", "t/iter (s)", "t_sample", "t_table", "t_eloc",
         "t_grad", "efficiency"],
        rows,
        notes=(
            f"Measured: thread ranks on this host (N2/STO-3G, N_s={_NS}); "
            "* = calibrated model on the measured base; ^ = model at the "
            "paper's 120-qubit benzene workload scale (DESIGN.md "
            "substitution). Paper: 99.2% @8, 96.7% @16, 84.1% @32, 67.7% @64."
        ),
    )
    from repro.utils import line_plot

    chart = line_plot(
        [4, 8, 16, 32, 64],
        {"model (paper scale)": [100.0] + [100 * e for e in eff_p],
         "paper": [100.0, 99.2, 96.7, 84.1, 67.7]},
        width=56, height=12,
        title="Fig. 11 — strong-scaling parallel efficiency vs ranks",
        xlabel="ranks", ylabel="%",
    )
    # Process-backend rows: fork ranks over the typed shm + codec comm layer
    # (true core parallelism even for GIL-bound stages).
    proc_ranks = [1, 2] + ([4] if full else [])
    proc_points = measure_scaling(
        _wf_factory(prob), comp, proc_ranks, n_samples_for=lambda n: _NS,
        n_iters=2, config=VMCConfig(eloc_mode="sample_aware", seed=14),
        nu_star_per_rank=32, backend="process",
    )
    proc_eff = parallel_efficiency(proc_points, mode="strong")
    proc_rows = [
        [p.n_ranks, p.n_unique, f"{p.time_per_iter:.3f}",
         f"{p.comm_bytes / 1e6:.2f}", f"{p.comm_bytes_wire / 1e6:.2f}",
         f"{100 * e:.1f}%"]
        for p, e in zip(proc_points, proc_eff)
    ]
    proc_table = format_table(
        "Process backend (fork ranks, shm + codec comm layer)",
        ["ranks", "N_u", "t/iter (s)", "comm MB logical", "comm MB wire",
         "efficiency"],
        proc_rows,
        notes="Same staged iteration as the thread rows; collectives move "
              "through shared-memory segments with delta/varint-compressed "
              "stage-2 payloads.",
    )
    registry.record("fig11_strong_scaling",
                    table + "\n\n" + chart + "\n\n" + proc_table)
    # Timed kernel: one 2-rank engine iteration.
    from repro.core.vmc import VMC
    from repro.parallel import ThreadBackend

    driver = VMC(
        _wf_factory(prob)(), comp,
        VMCConfig(n_samples=_NS, eloc_mode="sample_aware", seed=15),
        backend=ThreadBackend(n_ranks=2, nu_star_per_rank=32),
    )
    driver.step()
    benchmark(driver.step)


def _n_params(prob) -> int:
    wf = build_qiankunnet(prob.n_qubits, prob.n_up, prob.n_dn, seed=0)
    return wf.num_parameters()


def run_smoke(n_samples: int = 10**5, n_iters: int = 3) -> dict:
    """2-rank process-backend strong scaling: typed shm+codec vs. the
    pickle-over-pipes baseline, recorded for the before/after table."""
    prob = build_problem("N2", "sto-3g")
    comp = compress_hamiltonian(prob.hamiltonian)
    variants = {}
    for label, codec, shm in (("shm+codec", True, True),
                              ("pipes (baseline)", False, False)):
        points = measure_scaling(
            _wf_factory(prob), comp, [1, 2], n_samples_for=lambda n: n_samples,
            n_iters=n_iters, config=VMCConfig(eloc_mode="sample_aware", seed=14),
            nu_star_per_rank=32, backend="process",
            comm_codec=codec, comm_shm=shm,
        )
        eff = parallel_efficiency(points, mode="strong")
        variants[label] = (points, eff)
    rows = []
    for label, (points, eff) in variants.items():
        for p, e in zip(points, eff):
            rows.append([label, p.n_ranks, p.n_unique,
                         f"{p.time_per_iter:.3f}",
                         f"{p.comm_bytes / 1e6:.2f}",
                         f"{p.comm_bytes_wire / 1e6:.2f}",
                         f"{100 * e:.1f}%"])
    new_eff = variants["shm+codec"][1][1]
    old_eff = variants["pipes (baseline)"][1][1]
    registry.record(
        "fig11_process_smoke",
        format_table(
            "Fig. 11 smoke — 2-rank process backend, comm layer on vs. off",
            ["comm layer", "ranks", "N_u", "t/iter (s)", "comm MB logical",
             "comm MB wire", "efficiency"],
            rows,
            notes=(
                "N2/STO-3G, fixed N_s (strong scaling). 'pipes' replays the "
                "pre-codec transport: every collective pickled through the "
                "coordinator. Gate: shm+codec efficiency is no worse than "
                f"the baseline (measured {100 * new_eff:.1f}% vs "
                f"{100 * old_eff:.1f}%)."
            ),
        ),
    )
    return {"new_eff": new_eff, "old_eff": old_eff}


def run_cluster_smoke(n_samples: int = 10**5, n_iters: int = 2) -> dict:
    """Strong-scaling smoke over the TCP cluster transport.

    Thread-hosted SPMD ranks on a localhost mesh (real sockets, real
    rendezvous — the full multi-host path minus the physical network), gated
    on the workload columns matching the thread backend bit-for-bit at each
    rank count: same unique set, same logical and wire comm volumes.  Wall
    times are recorded for context only; thread-hosted ranks share the GIL,
    so cluster timing here measures transport overhead, not scaling.
    """
    prob = build_problem("N2", "sto-3g")
    comp = compress_hamiltonian(prob.hamiltonian)
    variants = {}
    for label, backend in (("threads", "threads"), ("cluster", "cluster")):
        variants[label] = measure_scaling(
            _wf_factory(prob), comp, [1, 2], n_samples_for=lambda n: n_samples,
            n_iters=n_iters, config=VMCConfig(eloc_mode="sample_aware", seed=14),
            nu_star_per_rank=32, backend=backend,
        )
    rows = []
    identical = True
    for label, points in variants.items():
        for p in points:
            rows.append([label, p.n_ranks, p.n_unique,
                         f"{p.time_per_iter:.3f}",
                         f"{p.comm_bytes / 1e6:.2f}",
                         f"{p.comm_bytes_wire / 1e6:.2f}"])
    for ref, got in zip(variants["threads"], variants["cluster"]):
        identical &= (ref.n_unique == got.n_unique
                      and ref.comm_bytes == got.comm_bytes
                      and ref.comm_bytes_wire == got.comm_bytes_wire)
    registry.record(
        "fig11_cluster_smoke",
        format_table(
            "Fig. 11 smoke — cluster transport vs. thread backend",
            ["backend", "ranks", "N_u", "t/iter (s)", "comm MB logical",
             "comm MB wire"],
            rows,
            notes=(
                "N2/STO-3G, fixed N_s (strong scaling). Cluster ranks are "
                "thread-hosted SPMD drivers over a localhost TCP mesh "
                "(rendezvous + framed collectives); t/iter includes the "
                "socket transport but shares the GIL, so it bounds overhead "
                "rather than measuring scaling. Gate: N_u and the "
                "logical/wire comm volumes are bit-identical to the thread "
                f"backend at every rank count ({'PASS' if identical else 'FAIL'})."
            ),
        ),
    )
    return {"identical": identical}


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="2-rank process-backend gate (small batch)")
    parser.add_argument("--cluster", action="store_true",
                        help="2-rank cluster-transport gate (small batch)")
    parser.add_argument("--n-samples", type=int, default=None)
    args = parser.parse_args()
    small = args.smoke or args.cluster
    n_samples = args.n_samples or (10**5 if small else 2 * 10**5)
    if args.cluster:
        res = run_cluster_smoke(n_samples=n_samples)
        assert res["identical"], (
            "cluster transport diverged from the thread backend "
            "(N_u or comm volume columns differ)"
        )
        print("acceptance: cluster transport bit-identical to thread backend "
              "at 1 and 2 ranks (N_u + logical/wire comm volumes)")
    else:
        res = run_smoke(n_samples=n_samples)
        # Timing comparisons flake on loaded runners; gate on non-regression
        # with slack, report the measured improvement.
        assert res["new_eff"] >= res["old_eff"] - 0.05, (
            f"shm+codec process efficiency {100 * res['new_eff']:.1f}% "
            f"regressed vs pipe baseline {100 * res['old_eff']:.1f}%"
        )
        print(f"acceptance: 2-rank process efficiency "
              f"{100 * res['new_eff']:.1f}% "
              f"(shm+codec) vs {100 * res['old_eff']:.1f}% (pickle pipes)")
