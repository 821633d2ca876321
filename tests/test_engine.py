"""The unified execution engine: stage pipeline, backends, determinism.

Acceptance contracts of the engine refactor:

* exactly one implementation of the Eq. 7 update — serial ``VMC`` and
  ``ThreadBackend(n_ranks=1)`` produce bit-identical parameter trajectories;
* ``n_ranks in {2, 4}`` is run-to-run deterministic and agrees with serial
  on the energy, for all three ansätze;
* a checkpointed parallel run resumes bit-identically;
* one full amplitude forward per rank and iteration: stage 2's taped
  forward on the rank's own sorted rows is the graph stage 5 back-propagates
  through, and stages 3 and 5 see exactly the rank's own samples;
* parallel histories carry variance/eloc_imag/comm fields (one stats type),
  so ``best_energy`` applies to any backend's history;
* the RunSpec ``parallel`` section drives all of it through ``run()``.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.core import VMC, VMCConfig, build_qiankunnet, load_checkpoint, save_checkpoint
from repro.core import engine as engine_mod
from repro.core.engine import (
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    _SoloComm,
    stage_backward,
    stage_gather_table,
    stage_local_energy,
)
from repro.core.local_energy import budgeted_sample_chunk
from repro.core.pretrain import pretrain_to_reference

ANSATZE = ["transformer", "made", "naqs-mlp"]


def _fresh_vmc(problem, amplitude_type="transformer", backend=None, seed=3,
               n_samples=800, **cfg):
    wf = build_qiankunnet(4, 1, 1, amplitude_type=amplitude_type, d_model=8,
                          n_heads=2, n_layers=1, phase_hidden=(8,), seed=7)
    defaults = dict(n_samples=n_samples, eloc_mode="exact", warmup=50, seed=seed)
    defaults.update(cfg)
    return VMC(wf, problem.hamiltonian, VMCConfig(**defaults), backend=backend)


class TestSerialThreadBitIdentity:
    @pytest.mark.parametrize("amplitude_type", ANSATZE)
    def test_thread1_matches_serial_bitwise(self, h2_problem, amplitude_type):
        serial = _fresh_vmc(h2_problem, amplitude_type)
        thread = _fresh_vmc(h2_problem, amplitude_type,
                            backend=ThreadBackend(n_ranks=1))
        for _ in range(4):
            a, b = serial.step(), thread.step()
            assert a.energy == b.energy
            assert a.variance == b.variance
            assert a.eloc_imag == b.eloc_imag
            assert a.lr == b.lr
            np.testing.assert_array_equal(
                serial.wf.get_flat_params(), thread.wf.get_flat_params()
            )

    def test_serial_backend_is_default(self, h2_problem):
        assert isinstance(_fresh_vmc(h2_problem).backend, SerialBackend)


class TestParallelDeterminism:
    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_run_to_run_reproducible(self, h2_problem, n_ranks):
        runs = []
        for _ in range(2):
            vmc = _fresh_vmc(h2_problem, backend=ThreadBackend(
                n_ranks=n_ranks, nu_star_per_rank=4))
            vmc.run(3)
            runs.append(vmc)
        a, b = runs
        assert [s.energy for s in a.history] == [s.energy for s in b.history]
        assert [s.variance for s in a.history] == [s.variance for s in b.history]
        np.testing.assert_array_equal(
            a.wf.get_flat_params(), b.wf.get_flat_params()
        )

    @pytest.mark.parametrize("amplitude_type", ANSATZE)
    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_energy_agrees_with_serial(self, h2_problem, amplitude_type, n_ranks):
        """Different sampling split, same physics: first-iteration energies of
        a pretrained model agree between serial and N_p ranks."""
        def make(backend):
            vmc = _fresh_vmc(h2_problem, amplitude_type, backend=backend,
                             n_samples=4000)
            pretrain_to_reference(vmc.wf, h2_problem.hf_bits, n_steps=40,
                                  target_prob=0.3)
            return vmc

        e_serial = make(None).step().energy
        e_par = make(ThreadBackend(n_ranks=n_ranks, nu_star_per_rank=4)).step().energy
        assert abs(e_par - e_serial) < 0.1

    def test_sample_budget_preserved(self, h2_problem):
        for n_ranks in (1, 2, 3):
            vmc = _fresh_vmc(h2_problem, backend=ThreadBackend(
                n_ranks=n_ranks, nu_star_per_rank=4))
            assert vmc.step().n_samples == 800


class TestProcessBackend:
    def test_matches_thread_backend(self, h2_problem):
        thread = _fresh_vmc(h2_problem, backend=ThreadBackend(
            n_ranks=2, nu_star_per_rank=4))
        proc = _fresh_vmc(h2_problem, backend=ProcessBackend(
            n_ranks=2, nu_star_per_rank=4))
        for _ in range(2):
            a, b = thread.step(), proc.step()
            assert a.energy == b.energy
            assert a.variance == b.variance
        np.testing.assert_array_equal(
            thread.wf.get_flat_params(), proc.wf.get_flat_params()
        )

    def test_single_rank_rng_stream_survives_fork(self, h2_problem):
        """The size-1 process path consumes the RNG in a fork; the advanced
        state must ship back or every iteration would resample identically."""
        serial = _fresh_vmc(h2_problem)
        proc = _fresh_vmc(h2_problem, backend=ProcessBackend(n_ranks=1))
        for _ in range(2):
            a, b = serial.step(), proc.step()
            assert a.energy == b.energy
        np.testing.assert_array_equal(
            serial.wf.get_flat_params(), proc.wf.get_flat_params()
        )


class TestCommLayerInvariance:
    """The tentpole contract: codec x shm are pure *wire* optimizations.

    Every combination must leave energies, variances and the parameter
    trajectory bit-identical; what changes is only the wire-byte accounting
    (codec on => stage-2 samples wire < logical).
    """

    def _trajectory(self, problem, backend, steps=3):
        vmc = _fresh_vmc(problem, backend=backend)
        hist = [vmc.step() for _ in range(steps)]
        return hist, vmc.wf.get_flat_params()

    @pytest.mark.parametrize("codec", [True, False])
    def test_thread_codec_toggle_bit_identical(self, h2_problem, codec):
        ref_hist, ref_params = self._trajectory(
            h2_problem, ThreadBackend(n_ranks=2, nu_star_per_rank=4,
                                      comm_codec=True))
        hist, params = self._trajectory(
            h2_problem, ThreadBackend(n_ranks=2, nu_star_per_rank=4,
                                      comm_codec=codec))
        for a, b in zip(ref_hist, hist):
            assert a.energy == b.energy
            assert a.variance == b.variance
            assert a.eloc_imag == b.eloc_imag
        np.testing.assert_array_equal(ref_params, params)

    @pytest.mark.slow
    @pytest.mark.parametrize("codec", [True, False])
    @pytest.mark.parametrize("shm", [True, False])
    def test_process_codec_shm_combos_match_threads(self, h2_problem,
                                                    codec, shm):
        ref_hist, ref_params = self._trajectory(
            h2_problem, ThreadBackend(n_ranks=2, nu_star_per_rank=4), steps=2)
        hist, params = self._trajectory(
            h2_problem, ProcessBackend(n_ranks=2, nu_star_per_rank=4,
                                       comm_codec=codec, comm_shm=shm),
            steps=2)
        for a, b in zip(ref_hist, hist):
            assert a.energy == b.energy
            assert a.variance == b.variance
        np.testing.assert_array_equal(ref_params, params)

    def test_codec_shrinks_stage2_wire_bytes(self, h2_problem):
        backend = ThreadBackend(n_ranks=2, nu_star_per_rank=4)
        vmc = _fresh_vmc(h2_problem, backend=backend)
        for _ in range(2):
            stats = vmc.step()
        assert stats.comm_bytes_wire is not None
        assert stats.comm_bytes_wire < stats.comm_bytes
        chan = backend.last_comm_stats.channels["stage2_samples"]
        assert chan["wire"] < chan["logical"]
        # amplitudes travel raw: their channel never compresses
        amp = backend.last_comm_stats.channels["stage2_amps"]
        assert amp["wire"] == amp["logical"]

    def test_codec_off_reports_equal_logical_and_wire(self, h2_problem):
        backend = ThreadBackend(n_ranks=2, nu_star_per_rank=4,
                                comm_codec=False)
        vmc = _fresh_vmc(h2_problem, backend=backend)
        stats = vmc.step()
        assert stats.comm_bytes_wire == stats.comm_bytes

    def test_diff_baseline_never_inflates_and_stays_bitwise(self, h2_problem):
        """The cross-iteration baseline is a pure win-or-tie: the encoder
        falls back to the full delta stream when the diff would be bigger,
        and either way the trajectory is untouched."""
        diffed_backend = ThreadBackend(n_ranks=2, nu_star_per_rank=4)
        diffed = _fresh_vmc(h2_problem, backend=diffed_backend)
        full_backend = ThreadBackend(n_ranks=2, nu_star_per_rank=4)
        full = _fresh_vmc(h2_problem, backend=full_backend)
        for _ in range(3):
            a = diffed.step()
            full.comm_baseline = None  # force full payloads every iteration
            b = full.step()
            assert a.energy == b.energy
            assert a.variance == b.variance
            wire_diff = diffed_backend.last_comm_stats.channels[
                "stage2_samples"]["wire"]
            wire_full = full_backend.last_comm_stats.channels[
                "stage2_samples"]["wire"]
            assert wire_diff <= wire_full
        np.testing.assert_array_equal(
            diffed.wf.get_flat_params(), full.wf.get_flat_params()
        )


class TestParallelResume:
    def test_checkpointed_parallel_run_resumes_bitwise(self, h2_problem, tmp_path):
        path = tmp_path / "ck.npz"
        backend = dict(n_ranks=2, nu_star_per_rank=4)
        uninterrupted = _fresh_vmc(h2_problem, backend=ThreadBackend(**backend))
        uninterrupted.run(3)
        save_checkpoint(uninterrupted, path)
        expected = [uninterrupted.step() for _ in range(2)]

        resumed = _fresh_vmc(h2_problem, backend=ThreadBackend(**backend))
        load_checkpoint(resumed, path)
        got = [resumed.step() for _ in range(2)]
        assert got == expected  # timings excluded from VMCStats equality
        np.testing.assert_array_equal(
            resumed.wf.get_flat_params(), uninterrupted.wf.get_flat_params()
        )

    def test_history_round_trips_parallel_fields(self, h2_problem, tmp_path):
        path = tmp_path / "ck.npz"
        vmc = _fresh_vmc(h2_problem, backend=ThreadBackend(
            n_ranks=2, nu_star_per_rank=4))
        vmc.run(2)
        save_checkpoint(vmc, path)
        resumed = _fresh_vmc(h2_problem, backend=ThreadBackend(
            n_ranks=2, nu_star_per_rank=4))
        load_checkpoint(resumed, path)
        assert [s.comm_bytes for s in resumed.history] == [
            s.comm_bytes for s in vmc.history
        ]
        assert [s.per_rank_unique for s in resumed.history] == [
            s.per_rank_unique for s in vmc.history
        ]
        assert resumed.best_energy(2) == vmc.best_energy(2)


class TestUnifiedStats:
    def test_parallel_history_carries_variance_and_comm(self, h2_problem):
        vmc = _fresh_vmc(h2_problem, backend=ThreadBackend(
            n_ranks=2, nu_star_per_rank=4))
        s = vmc.step()
        assert s.variance > 0
        assert np.isfinite(s.eloc_imag)
        assert s.comm_bytes > 0
        assert len(s.per_rank_unique) == 2
        assert sum(s.per_rank_unique) >= s.n_unique  # split covers the set
        # best_energy (the final-estimate convention) works on any history.
        vmc.step()
        assert np.isfinite(vmc.best_energy(2))

    def test_serial_stats_have_no_comm_fields(self, h2_problem):
        s = _fresh_vmc(h2_problem).step()
        assert s.comm_bytes is None
        assert s.per_rank_unique is None
        assert s.wall_time > 0


class TestSingleForward:
    """Stage 2's taped forward is the iteration's only full forward."""

    @pytest.mark.parametrize("amplitude_type", ANSATZE)
    def test_retained_tape_gradient_matches_fresh_forward(self, h2_problem,
                                                          amplitude_type):
        from repro.core.sampler import SampleBatch, batch_autoregressive_sample

        vmc = _fresh_vmc(h2_problem, amplitude_type)
        wf = vmc.wf
        batch = batch_autoregressive_sample(wf, 800, np.random.default_rng(4))
        order = np.random.default_rng(5).permutation(batch.n_unique)
        local = SampleBatch(bits=batch.bits[order], weights=batch.weights[order])
        gathered = stage_gather_table(_SoloComm(), wf, local)
        rows = gathered.rows
        np.testing.assert_array_equal(gathered.table.log_amps,
                                      wf.log_amplitudes(rows.bits))
        eloc = stage_local_energy(wf, vmc.comp, rows, gathered.table,
                                  vmc.config)
        w = rows.weights / rows.weights.sum()
        e_mean = float(np.sum(w * eloc.real))
        e_imag = float(np.sum(w * eloc.imag))
        retained = stage_backward(wf, gathered.logp, gathered.phi, w, eloc,
                                  e_mean, e_imag).copy()
        fresh = stage_backward(wf, wf.log_prob(rows.bits),
                               wf.phase_of(rows.bits), w, eloc,
                               e_mean, e_imag)
        assert np.any(retained != 0)
        np.testing.assert_array_equal(retained, fresh)

    @pytest.mark.parametrize("n_ranks", [1, 2])
    def test_one_forward_per_rank_iteration(self, h2_problem, monkeypatch,
                                            n_ranks):
        from repro.core.wavefunction import NNQSWavefunction

        calls = []
        original = NNQSWavefunction.masked_log_conditionals

        def counted(self, tokens):
            calls.append(id(self))
            return original(self, tokens)

        monkeypatch.setattr(NNQSWavefunction, "masked_log_conditionals",
                            counted)
        backend = (SerialBackend() if n_ranks == 1
                   else ThreadBackend(n_ranks=2, nu_star_per_rank=4))
        vmc = _fresh_vmc(h2_problem, backend=backend,
                         eloc_mode="sample_aware")
        for _ in range(3):
            calls.clear()
            vmc.step()
            wfs = [vmc.wf] if n_ranks == 1 else backend.replicas
            assert sorted(calls) == sorted(id(wf) for wf in wfs)

    def test_stages_3_and_5_run_on_own_rows(self, h2_problem, monkeypatch):
        backend = ThreadBackend(n_ranks=2, nu_star_per_rank=4)
        vmc = _fresh_vmc(h2_problem, backend=backend)
        eloc_rows, backward_rows = {}, {}

        def local_energy(wf, comp, rows, *args, **kwargs):
            eloc_rows[id(wf)] = rows.n_unique
            return stage_local_energy(wf, comp, rows, *args, **kwargs)

        def backward(wf, logp, phi, *args):
            backward_rows[id(wf)] = len(logp.data)
            return stage_backward(wf, logp, phi, *args)

        monkeypatch.setattr(engine_mod, "stage_local_energy", local_energy)
        monkeypatch.setattr(engine_mod, "stage_backward", backward)
        for _ in range(2):
            stats = vmc.step()
            ranks = [id(wf) for wf in backend.replicas]
            assert [eloc_rows[r] for r in ranks] == stats.per_rank_unique
            assert [backward_rows[r] for r in ranks] == stats.per_rank_unique
            assert sum(stats.per_rank_unique) == stats.n_unique

    def test_stage2_time_reported(self, h2_problem):
        from repro.core.engine import stats_record

        s = _fresh_vmc(h2_problem, backend=ThreadBackend(
            n_ranks=2, nu_star_per_rank=4)).step()
        assert s.time_table > 0
        assert stats_record(s)["time_table"] == s.time_table


class TestElocChunkingKnobs:
    def test_budgeted_sample_chunk_shrinks(self):
        # 2 words/key, 100 groups: 512-group chunk clamps to 100 groups,
        # 100 * 3 * 8 = 2400 B per sample row -> a 24 kB budget fits 10 rows.
        assert budgeted_sample_chunk(2, 100, 512, 4096, 24_000) == 10
        assert budgeted_sample_chunk(2, 100, 512, 4096, None) == 4096
        assert budgeted_sample_chunk(2, 100, 512, 4096, 1) == 1  # floor of 1

    def test_chunking_does_not_change_eloc(self, h2_problem):
        """Chunk boundaries must not alter the per-sample accumulation."""
        base = _fresh_vmc(h2_problem, seed=5)
        tiny = _fresh_vmc(h2_problem, seed=5, sample_chunk=1,
                          eloc_memory_budget_mb=0.001)
        a, b = base.step(), tiny.step()
        assert a.energy == b.energy
        assert a.variance == b.variance

    def test_config_validation(self):
        with pytest.raises(ValueError, match="VMCConfig.group_chunk"):
            VMCConfig(group_chunk=0)
        with pytest.raises(ValueError, match="VMCConfig.sample_chunk"):
            VMCConfig(sample_chunk=-1)
        with pytest.raises(ValueError, match="VMCConfig.eloc_memory_budget_mb"):
            VMCConfig(eloc_memory_budget_mb=0)


class TestEngineGuards:
    def test_custom_sampler_rejected_on_parallel_ranks(self, h2_problem):
        def sampler(wf, n, rng):  # pragma: no cover - never reached
            raise AssertionError

        vmc = _fresh_vmc(h2_problem, sampler=sampler,
                         backend=ThreadBackend(n_ranks=2, nu_star_per_rank=4))
        with pytest.raises(ValueError, match="custom samplers"):
            vmc.step()

    def test_custom_sampler_fine_on_one_rank(self, h2_problem):
        from repro.core.sampler import batch_autoregressive_sample

        calls = []

        def sampler(wf, n, rng):
            calls.append(n)
            return batch_autoregressive_sample(wf, n, rng)

        vmc = _fresh_vmc(h2_problem, sampler=sampler,
                         backend=ThreadBackend(n_ranks=1))
        vmc.step()
        assert calls == [800]

    def test_bad_rank_count_rejected(self):
        with pytest.raises(ValueError, match="n_ranks"):
            ThreadBackend(n_ranks=0)


class TestRunSpecIntegration:
    """The ``parallel`` spec section end to end through ``run()``."""

    def _spec(self, **parallel):
        from repro.api import RunSpec

        return RunSpec.from_dict({
            "name": "engine-test",
            "problem": {"molecule": "H2", "basis": "sto-3g",
                        "geometry": {"r": 0.7414}},
            "ansatz": {"name": "transformer", "d_model": 8, "n_heads": 2,
                       "n_layers": 1, "phase_hidden": [8], "seed": 1},
            "optimizer": {"name": "adamw", "warmup": 100},
            "sampling": {"ns_pretrain": 500, "ns_max": 500,
                         "pretrain_iters": 3},
            "parallel": {"backend": "threads", "n_ranks": 2,
                         "nu_star_per_rank": 4, **parallel},
            "train": {"max_iterations": 2, "pretrain_steps": 10,
                      "early_stop": False, "seed": 2},
            "output": {"publish": True},
        })

    def test_threads_run_produces_artifact_contract(self, tmp_path):
        import json

        from repro.api import run

        result = run(self._spec(), run_dir=tmp_path / "run")
        assert result.spec_path.exists()
        assert result.checkpoint_path.exists()
        assert result.report_path.exists()
        assert result.published_version is not None
        rows = [json.loads(l) for l in
                result.metrics_path.read_text().splitlines()]
        iters = [r for r in rows if "iteration" in r]
        assert [r["iteration"] for r in iters] == [1, 2]
        for r in iters:
            assert r["comm_bytes"] > 0
            assert len(r["per_rank_unique"]) == 2
            assert "time_sampling" in r and "time_local_energy" in r
            assert r["variance"] >= 0

    def test_threads_resume_bit_identical(self, tmp_path):
        import json

        from repro.api import resume, run

        run(self._spec(), run_dir=tmp_path / "short")
        resumed = resume(tmp_path / "short",
                         overrides={"train.max_iterations": 4})
        full_spec = self._spec().with_overrides({"train.max_iterations": 4})
        full = run(full_spec, run_dir=tmp_path / "full")
        rows = lambda p: [json.loads(l)["energy"] for l in
                          p.read_text().splitlines() if "iteration" in l]
        assert rows(resumed.metrics_path) == rows(full.metrics_path)
        np.testing.assert_array_equal(
            resumed.wavefunction.get_flat_params(),
            full.wavefunction.get_flat_params(),
        )

    def test_sr_plus_parallel_rejected(self):
        from repro.api import SpecError
        from repro.api.driver import materialize_backend

        spec = self._spec().with_overrides({"optimizer.name": "sr"})
        with pytest.raises(SpecError, match="adamw"):
            materialize_backend(spec)

    def test_non_bas_sampler_plus_parallel_rejected(self):
        from repro.api import SpecError
        from repro.api.driver import materialize_backend

        spec = self._spec().with_overrides({"sampling.sampler": "hybrid"})
        with pytest.raises(SpecError, match="bas"):
            materialize_backend(spec)

    def test_serial_with_many_ranks_rejected(self):
        from repro.api import SpecError
        from repro.api.driver import materialize_backend

        spec = self._spec().with_overrides(
            {"parallel.backend": "serial", "parallel.n_ranks": 2})
        with pytest.raises(SpecError, match="serial"):
            materialize_backend(spec)

    def test_unknown_backend_lists_registered(self):
        from repro.api import UnknownComponentError
        from repro.api.driver import materialize_backend

        spec = self._spec().with_overrides({"parallel.backend": "gpu"})
        with pytest.raises(UnknownComponentError, match="threads"):
            materialize_backend(spec)

    def test_parallel_spec_validation_names_fields(self):
        from repro.api import SpecError

        with pytest.raises(SpecError, match="parallel.n_ranks"):
            self._spec(n_ranks=0)

    def test_legacy_eloc_partition_key_still_resumes(self, tmp_path):
        """Run dirs written while the E_loc partition knob existed carry
        ``parallel.eloc_partition`` in spec.json; they must still resume."""
        import json

        from repro.api import RunSpec, resume, run

        run(self._spec(), run_dir=tmp_path / "old")
        spec_path = tmp_path / "old" / "spec.json"
        data = json.loads(spec_path.read_text())
        data["parallel"]["eloc_partition"] = "balanced"
        spec_path.write_text(json.dumps(data))
        assert RunSpec.load(spec_path) == self._spec()
        result = resume(tmp_path / "old",
                        overrides={"train.max_iterations": 3})
        assert result.report.iterations == 3

    def test_old_specs_without_parallel_section_load(self):
        from repro.api import RunSpec

        data = self._spec().to_dict()
        del data["parallel"]
        spec = RunSpec.from_dict(data)
        assert spec.parallel.backend == "serial"
        assert spec.parallel.n_ranks == 1
