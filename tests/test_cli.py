"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.sparse.io import load_npz


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestInfo:
    def test_prints_device(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Tesla V100" in out
        assert "repro" in out


class TestSuite:
    def test_lists_nine(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 9
        assert "lj2008" in out and "nlpkkt200" in out


class TestGen:
    def test_banded_npz(self, tmp_path, capsys):
        out = tmp_path / "band.npz"
        assert main(["gen", "banded", "--n", "100", "--bandwidth", "2",
                     "--seed", "3", "--out", str(out)]) == 0
        m = load_npz(out)
        assert m.n_rows == 100
        rows = m.expand_row_ids()
        assert np.all(np.abs(m.col_ids - rows) <= 2)

    def test_rmat_rounds_to_power_of_two(self, tmp_path):
        out = tmp_path / "g.npz"
        main(["gen", "rmat", "--n", "100", "--degree", "4", "--out", str(out)])
        assert load_npz(out).n_rows == 128

    def test_mtx_output(self, tmp_path):
        out = tmp_path / "g.mtx"
        main(["gen", "erdos-renyi", "--n", "40", "--degree", "3", "--out", str(out)])
        assert out.exists()

    def test_bad_extension(self, tmp_path):
        with pytest.raises(SystemExit, match="npz or .mtx"):
            main(["gen", "banded", "--n", "10", "--out", str(tmp_path / "x.csv")])


class TestMultiply:
    def test_square_from_file(self, tmp_path, capsys):
        src = tmp_path / "a.npz"
        main(["gen", "rmat", "--n", "256", "--degree", "6", "--seed", "9",
              "--out", str(src)])
        dst = tmp_path / "c.npz"
        assert main(["multiply", str(src), "--device-mem", "16",
                     "--out", str(dst)]) == 0
        out = capsys.readouterr().out
        assert "GFLOPS" in out
        c = load_npz(dst)
        # verify against scipy
        from repro.spgemm.reference import spgemm_scipy
        from repro.sparse.ops import drop_explicit_zeros

        a = load_npz(src)
        assert drop_explicit_zeros(c).allclose(spgemm_scipy(a, a))

    def test_hybrid_mode(self, tmp_path, capsys):
        src = tmp_path / "a.npz"
        main(["gen", "banded", "--n", "2000", "--bandwidth", "5", "--seed", "2",
              "--out", str(src)])
        assert main(["multiply", str(src), "--mode", "hybrid",
                     "--device-mem", "8"]) == 0
        assert "hybrid" in capsys.readouterr().out

    def test_unresolvable_operand(self):
        with pytest.raises(SystemExit, match="cannot resolve"):
            main(["multiply", "does-not-exist.foo"])

    def test_rectangular_product(self, tmp_path, capsys):
        a_path = tmp_path / "a.npz"
        b_path = tmp_path / "b.npz"
        main(["gen", "erdos-renyi", "--n", "300", "--degree", "5", "--seed", "1",
              "--out", str(a_path)])
        main(["gen", "erdos-renyi", "--n", "300", "--degree", "4", "--seed", "2",
              "--out", str(b_path)])
        assert main(["multiply", str(a_path), str(b_path),
                     "--device-mem", "16"]) == 0


class TestExperiment:
    def test_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "Tesla V100" in capsys.readouterr().out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestTrace:
    def test_exports_chrome_json(self, tmp_path, capsys):
        import json

        from repro.observability import validate_chrome_trace

        src = tmp_path / "a.npz"
        main(["gen", "rmat", "--n", "256", "--degree", "5", "--seed", "4",
              "--out", str(src)])
        out = tmp_path / "trace.json"
        assert main(["trace", str(src), "--device-mem", "16",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        events = validate_chrome_trace(payload)
        # measured spans (pid 0) and the simulated schedule (pid 1)
        assert {e["pid"] for e in events} == {0, 1}
        measured_cats = {e.get("cat") for e in events
                        if e["ph"] == "X" and e["pid"] == 0}
        assert {"analysis", "symbolic", "numeric", "sink"} <= measured_cats
        printed = capsys.readouterr().out
        assert "wrote" in printed
        assert "critical path" in printed

    def test_workers_trace_has_queue_spans_and_lane_summary(self, tmp_path, capsys):
        import json

        from repro.observability import validate_chrome_trace

        src = tmp_path / "a.npz"
        main(["gen", "rmat", "--n", "512", "--degree", "5", "--seed", "7",
              "--out", str(src)])
        out = tmp_path / "trace.json"
        assert main(["trace", str(src), "--device-mem", "8", "--workers", "4",
                     "--trace-out", str(out)]) == 0
        events = validate_chrome_trace(json.loads(out.read_text()))
        cats = {e.get("cat") for e in events if e["ph"] == "X" and e["pid"] == 0}
        assert "queue" in cats  # queue-wait spans from the pool dispatch
        assert any(e["ph"] == "C" for e in events)  # lane/cache gauges
        printed = capsys.readouterr().out
        assert "util %" in printed  # per-lane utilization table

    def test_hybrid_trace(self, tmp_path):
        src = tmp_path / "a.npz"
        main(["gen", "banded", "--n", "1500", "--bandwidth", "4", "--seed", "2",
              "--out", str(src)])
        out = tmp_path / "t.json"
        assert main(["trace", str(src), "--mode", "hybrid", "--device-mem", "8",
                     "--out", str(out)]) == 0
        assert out.exists()


class TestSuiteFeatures:
    def test_features_table(self, capsys):
        # uses the shared cache; cheap after the first suite build
        assert main(["suite", "--features"]) == 0
        out = capsys.readouterr().out
        assert "compr. ratio" in out and "nlp" in out


class TestMultiplySuiteName:
    def test_suite_operand(self, capsys):
        assert main(["multiply", "stokes", "--mode", "async"]) == 0
        assert "GFLOPS" in capsys.readouterr().out


class TestBench:
    def test_smoke_writes_json(self, tmp_path, capsys):
        import json

        out = tmp_path / "bench.json"
        assert main(["bench", "--matrices", "stokes", "--workers", "2",
                     "--grid", "2", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["bench"] == "parallel_chunk_execution"
        assert payload["cpu_count"] >= 1
        (run,) = payload["runs"]
        assert run["matrix"] == "stokes"
        assert run["workers"] == 2
        assert run["identical"] is True
        assert run["serial_seconds"] > 0 and run["parallel_seconds"] > 0
        assert "speedup" in run and "model_correlation" in run
        # model errors are documented dimensionless fractions
        assert "fraction" in payload["units"]["model_mean_abs_rel_error"]
        assert run["model_median_abs_rel_error"] >= 0
        # single-core hosts are flagged: their "speedup" is overhead only
        assert payload["single_core_host"] == (payload["cpu_count"] <= 1)
        printed = capsys.readouterr().out
        assert "wrote" in printed
        if payload["single_core_host"]:
            assert "single-core host" in printed

    def test_rejects_single_worker(self, tmp_path):
        with pytest.raises(SystemExit, match="workers"):
            main(["bench", "--matrices", "stokes", "--workers", "1",
                  "--out", str(tmp_path / "b.json")])


class TestBenchRepeats:
    def test_repeats_reuse_one_profile_per_config(self, tmp_path, monkeypatch):
        """``--repeats N`` re-measures the wall clock only: exactly one
        outputs-kept profiled run per (matrix, config), plus ``N - 1``
        timing-only repeats — not N full output-keeping runs."""
        import repro.core.executor as executor_mod

        calls = []
        real = executor_mod.execute_chunk_grid

        def counting(*args, **kwargs):
            calls.append(bool(kwargs.get("keep_outputs")))
            return real(*args, **kwargs)

        monkeypatch.setattr(executor_mod, "execute_chunk_grid", counting)
        repeats = 3
        assert main(["bench", "--matrices", "stokes", "--workers", "2",
                     "--grid", "2", "--repeats", str(repeats),
                     "--out", str(tmp_path / "b.json")]) == 0
        # one keep_outputs=True run per config (serial + thread +
        # process), then repeats-1 timing-only runs each, plus exactly
        # one governed robustness run per matrix (keep_outputs=False,
        # chunk-sink into the spillable store)
        configs = calls.count(True)
        assert configs == 3
        assert calls.count(False) == configs * (repeats - 1) + 1

    def test_missing_baseline_is_tolerated(self, tmp_path, capsys):
        """The first bench on a fresh clone has no previous record at
        --out; it must write a baseline instead of failing."""
        out = tmp_path / "bench.json"
        assert not out.exists()
        assert main(["bench", "--matrices", "stokes", "--workers", "2",
                     "--grid", "2", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "fresh baseline" in printed
        assert out.exists()

    def test_existing_baseline_comparison_printed(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        args = ["bench", "--matrices", "stokes", "--workers", "2",
                "--grid", "2", "--out", str(out)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0  # second run compares against the first
        assert "speedup vs previous record" in capsys.readouterr().out

    def test_corrupt_baseline_is_tolerated(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        out.write_text("{not json")
        assert main(["bench", "--matrices", "stokes", "--workers", "2",
                     "--grid", "2", "--out", str(out)]) == 0
        assert "fresh baseline" in capsys.readouterr().out

    def test_gflops_delta_printed_against_baseline(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        args = ["bench", "--matrices", "stokes", "--workers", "2",
                "--grid", "2", "--out", str(out)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "GFLOP/s vs previous record" in capsys.readouterr().out

    def test_record_carries_kernel_stage_and_outlier_fields(self, tmp_path):
        import json

        out = tmp_path / "bench.json"
        assert main(["bench", "--matrices", "stokes", "--workers", "2",
                     "--grid", "2", "--kernel", "esc",
                     "--out", str(out)]) == 0
        (run,) = json.loads(out.read_text())["runs"]
        assert run["kernel"] == "esc"
        assert set(run["serial_stage_seconds"]) == {
            "analysis", "symbolic", "numeric"}
        assert set(run["serial_stage_gflops"]) == {
            "analysis", "symbolic", "numeric"}
        assert run["model_p95_abs_rel_error"] >= 0
        assert run["model_outliers"] >= 0


class TestKernelBench:
    @pytest.fixture
    def tiny(self, tmp_path):
        path = tmp_path / "tiny.npz"
        assert main(["gen", "banded", "--n", "120", "--bandwidth", "4",
                     "--seed", "3", "--out", str(path)]) == 0
        return str(path)

    def test_smoke_writes_json_and_passes_equivalence(self, tiny, tmp_path,
                                                      capsys):
        import json

        from repro.spgemm.native import native_available

        out = tmp_path / "kernels.json"
        assert main(["kernel-bench", "--matrices", tiny, "--repeats", "1",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["bench"] == "kernel_shootout"
        assert payload["reference_kernel"] == "esc"
        (run,) = payload["runs"]
        expected = {"esc", "native"} if native_available() else {"esc"}
        assert set(run["kernels"]) == expected
        for rec in run["kernels"].values():
            assert rec["equivalent"] is True
            assert rec["scipy_allclose"] is True
            assert rec["min_seconds"] > 0
            assert rec["equivalence_policy"] == "bit_identical"
        assert "wrote" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["hash", "dense", "merge"])
    def test_kernel_flag_rejects_deleted_kinds(self, tiny, kind, capsys):
        with pytest.raises(SystemExit):
            main(["multiply", tiny, "--kernel", kind])
        assert "invalid choice" in capsys.readouterr().err

    def test_rejects_unknown_kernel(self, tiny, tmp_path):
        with pytest.raises(SystemExit, match="unknown kernel"):
            main(["kernel-bench", "--matrices", tiny,
                  "--kernels", "esc,hash", "--out",
                  str(tmp_path / "k.json")])


class TestBenchEstimation:
    """--autotune, the estimation-fed governed run, and the model gate."""

    def test_autotune_smoke(self, tmp_path, capsys):
        import json

        out = tmp_path / "bench.json"
        assert main(["bench", "--matrices", "stokes", "--workers", "2",
                     "--backend", "thread", "--autotune",
                     "--out", str(out)]) == 0
        (run,) = json.loads(out.read_text())["runs"]
        at = run["autotune"]
        assert at["identical"] is True
        assert 0.0 <= at["hybrid_ratio"] <= 1.0
        assert at["sampled_rows"] > 0
        assert at["estimated_nnz"] > 0
        assert at["estimate_rel_error"] >= 0
        assert isinstance(at["beats_default"], bool)
        assert "autotune" in capsys.readouterr().out

    def test_governed_run_reports_estimation(self, tmp_path):
        import json

        out = tmp_path / "bench.json"
        assert main(["bench", "--matrices", "stokes", "--workers", "2",
                     "--backend", "thread", "--out", str(out)]) == 0
        (run,) = json.loads(out.read_text())["runs"]
        gov = run["governed"]
        assert gov["estimated"] is True
        assert gov["identical"] is True
        assert gov["avoided_resplits"] >= 0
        assert gov["resplits"] == 0

    def test_no_estimate_flag_disables_estimation(self, tmp_path):
        import json

        out = tmp_path / "bench.json"
        assert main(["bench", "--matrices", "stokes", "--workers", "2",
                     "--backend", "thread", "--no-estimate",
                     "--out", str(out)]) == 0
        (run,) = json.loads(out.read_text())["runs"]
        assert run["governed"]["estimated"] is False
        assert run["governed"]["identical"] is True

    def test_primary_backend_is_measured_best(self, tmp_path):
        import json

        out = tmp_path / "bench.json"
        assert main(["bench", "--matrices", "stokes", "--workers", "2",
                     "--backend", "thread", "--grid", "2",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        (run,) = payload["runs"]
        # single requested backend: it is trivially the measured best
        assert run["backend"] == "thread"
        assert payload["primary_backend"] == "thread"

    def test_gate_passes_on_calibrated_model(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["bench", "--matrices", "stokes", "--workers", "2",
                     "--backend", "thread",
                     "--gate-model-error", "0.25",
                     "--out", str(out)]) == 0
        assert "gate passed" in capsys.readouterr().out

    def test_gate_failure_sets_exit_code(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["bench", "--matrices", "stokes", "--workers", "2",
                     "--backend", "thread",
                     "--gate-model-error", "0.0000001",
                     "--out", str(out)]) == 1
        assert "MODEL-ERROR GATE FAILED" in capsys.readouterr().out
