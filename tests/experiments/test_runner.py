"""Tests for the experiment runner (caching, device sizing)."""

import pytest

from repro.core.chunks import csr_bytes
from repro.experiments import runner


class TestRegistry:
    def test_nine_abbrs_in_paper_order(self):
        abbrs = runner.all_abbrs()
        assert len(abbrs) == 9
        assert abbrs[0] == "lj2008"
        assert abbrs[3] == "stokes"


class TestCaching:
    def test_matrix_cached_on_disk_and_memory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runner._matrix_cache.clear()
        m1 = runner.get_matrix("stokes")
        assert (tmp_path / ".cache" / "matrix_stokes.npz").exists()
        m2 = runner.get_matrix("stokes")
        assert m1 is m2  # memory cache hit
        # force a disk reload
        runner._matrix_cache.clear()
        m3 = runner.get_matrix("stokes")
        assert m3 == m1
        runner._matrix_cache.clear()

    def test_features_cached(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runner._matrix_cache.clear()
        runner._features_cache.clear()
        f1 = runner.get_features("stokes")
        assert (tmp_path / ".cache" / "features_stokes.json").exists()
        runner._features_cache.clear()
        f2 = runner.get_features("stokes")
        assert f1 == f2
        runner._matrix_cache.clear()
        runner._features_cache.clear()


class TestDeviceSizing:
    def test_out_of_core_guarantee(self):
        """Device memory must hold the inputs but not the full working set."""
        from repro.core.planner import working_set_bytes

        feat = runner.get_features("stokes")
        dev = runner.device_memory_for("stokes")
        inputs = 2 * csr_bytes(feat.n, feat.nnz)
        ws = working_set_bytes(feat.n, feat.nnz, feat.flops, feat.nnz_out)
        assert dev > inputs
        assert dev < ws

    def test_node_uses_scaled_memory(self):
        node = runner.get_node("stokes")
        assert node.gpu.device_memory_bytes == runner.device_memory_for("stokes")


class TestProfile:
    def test_profile_consistent_with_features(self):
        feat = runner.get_features("stokes")
        profile = runner.get_profile("stokes")
        assert profile.total_flops == feat.flops
        assert profile.total_nnz_out == feat.nnz_out
        assert profile.name == "stokes"

    def test_profile_roundtrips_through_cache(self, tmp_path, monkeypatch):
        # copy through a fresh cache dir: profile is rebuilt, then reloaded
        profile = runner.get_profile("stokes")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runner._profile_cache.clear()
        runner._matrix_cache.clear()
        runner._features_cache.clear()
        rebuilt = runner.get_profile("stokes")
        assert rebuilt.chunks == profile.chunks
        runner._profile_cache.clear()
        runner._matrix_cache.clear()
        runner._features_cache.clear()


class TestGridProfiles:
    def test_explicit_grid_cached(self, tmp_path, monkeypatch):
        profile = runner.get_profile_for_grid("stokes", 2, 2)
        assert profile.grid.num_chunks == 4
        assert profile.total_flops == runner.get_features("stokes").flops
        # second call hits the in-memory cache (same object)
        again = runner.get_profile_for_grid("stokes", 2, 2)
        assert again is profile

    def test_distinct_grids_distinct_profiles(self):
        p22 = runner.get_profile_for_grid("stokes", 2, 2)
        p33 = runner.get_profile_for_grid("stokes", 3, 3)
        assert len(p22.chunks) != len(p33.chunks)
        assert p22.total_flops == p33.total_flops


class TestCorruptCacheRecovery:
    """A truncated or garbage cache artifact must be discarded and rebuilt,
    never crash the run (the cache is disposable by design)."""

    def _fresh(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runner._matrix_cache.clear()
        runner._features_cache.clear()
        runner._profile_cache.clear()

    def test_corrupt_matrix_npz_regenerated(self, tmp_path, monkeypatch):
        self._fresh(tmp_path, monkeypatch)
        good = runner.get_matrix("stokes")
        path = tmp_path / ".cache" / "matrix_stokes.npz"
        path.write_bytes(b"this is not a zip archive")
        runner._matrix_cache.clear()
        with pytest.warns(RuntimeWarning, match="corrupt cache"):
            rebuilt = runner.get_matrix("stokes")
        assert rebuilt == good
        # the replacement on disk is valid again
        runner._matrix_cache.clear()
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            runner.get_matrix("stokes")
        self._fresh(tmp_path, monkeypatch)

    def test_corrupt_features_json_regenerated(self, tmp_path, monkeypatch):
        self._fresh(tmp_path, monkeypatch)
        good = runner.get_features("stokes")
        path = tmp_path / ".cache" / "features_stokes.json"
        path.write_text("{truncated")
        runner._features_cache.clear()
        with pytest.warns(RuntimeWarning, match="corrupt cache"):
            assert runner.get_features("stokes") == good
        self._fresh(tmp_path, monkeypatch)

    def test_corrupt_profile_json_regenerated(self, tmp_path, monkeypatch):
        self._fresh(tmp_path, monkeypatch)
        good = runner.get_profile_for_grid("stokes", 2, 2)
        path = tmp_path / ".cache" / "profile_stokes_2x2.json"
        path.write_text("not json at all")
        runner._profile_cache.clear()
        with pytest.warns(RuntimeWarning, match="corrupt cache"):
            rebuilt = runner.get_profile_for_grid("stokes", 2, 2)
        assert rebuilt.total_flops == good.total_flops
        assert len(rebuilt.chunks) == len(good.chunks)
        self._fresh(tmp_path, monkeypatch)


class TestKernelKeyedProfiles:
    """Profiles carry the kernel wire form that produced them; entries
    measured under another kernel are stale and must be invalidated."""

    def _fresh(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runner._matrix_cache.clear()
        runner._features_cache.clear()
        runner._profile_cache.clear()

    def test_payload_records_current_kernel(self, tmp_path, monkeypatch):
        import json

        from repro.spgemm.kernels import resolved_wire

        self._fresh(tmp_path, monkeypatch)
        runner.get_profile("stokes")
        payload = json.loads(
            (tmp_path / ".cache" / "profile_stokes.json").read_text()
        )
        assert payload["kernel"] == resolved_wire()
        self._fresh(tmp_path, monkeypatch)

    def test_stale_kernel_entry_invalidated(self, tmp_path, monkeypatch):
        import json

        self._fresh(tmp_path, monkeypatch)
        good = runner.get_profile("stokes")
        path = tmp_path / ".cache" / "profile_stokes.json"
        payload = json.loads(path.read_text())
        payload["kernel"] = "some-retired-kernel"
        path.write_text(json.dumps(payload))
        runner._profile_cache.clear()
        with pytest.warns(RuntimeWarning, match="cached under kernel"):
            rebuilt = runner.get_profile("stokes")
        assert rebuilt.chunks == good.chunks
        # the rewritten entry is valid again
        assert json.loads(path.read_text())["kernel"] != "some-retired-kernel"
        self._fresh(tmp_path, monkeypatch)

    def test_mismatch_reported_stale_garbage_corrupt(self, tmp_path,
                                                     monkeypatch):
        """A readable entry from another kernel is stale, not corrupt;
        "corrupt" stays reserved for unreadable files."""
        import json

        self._fresh(tmp_path, monkeypatch)
        runner.get_profile_for_grid("stokes", 2, 2)
        path = tmp_path / ".cache" / "profile_stokes_2x2.json"
        payload = json.loads(path.read_text())
        payload["kernel"] = "some-retired-kernel"
        path.write_text(json.dumps(payload))
        runner._profile_cache.clear()
        with pytest.warns(RuntimeWarning,
                          match="discarding stale cache file") as record:
            runner.get_profile_for_grid("stokes", 2, 2)
        assert not any("corrupt" in str(w.message) for w in record)

        path.write_text("{truncated")
        runner._profile_cache.clear()
        with pytest.warns(RuntimeWarning,
                          match="discarding corrupt cache file") as record:
            runner.get_profile_for_grid("stokes", 2, 2)
        assert not any("stale" in str(w.message) for w in record)
        self._fresh(tmp_path, monkeypatch)

    def test_pre_kernel_entry_invalidated(self, tmp_path, monkeypatch):
        """Entries from before kernel keying (no "kernel" field) are
        treated as stale, not trusted."""
        import json

        self._fresh(tmp_path, monkeypatch)
        good = runner.get_profile_for_grid("stokes", 2, 2)
        path = tmp_path / ".cache" / "profile_stokes_2x2.json"
        payload = json.loads(path.read_text())
        del payload["kernel"]
        path.write_text(json.dumps(payload))
        runner._profile_cache.clear()
        with pytest.warns(RuntimeWarning, match="cached under kernel"):
            rebuilt = runner.get_profile_for_grid("stokes", 2, 2)
        assert rebuilt.chunks == good.chunks
        self._fresh(tmp_path, monkeypatch)

    def test_memory_cache_keyed_per_kernel(self, tmp_path, monkeypatch):
        self._fresh(tmp_path, monkeypatch)
        auto = runner.get_profile("stokes")
        # the on-disk profile was written under auto's resolved kernel,
        # so the esc lookup discards it as stale and regenerates
        with pytest.warns(RuntimeWarning, match="cached under kernel"):
            esc = runner.get_profile("stokes", kernel="esc")
        assert esc is not auto
        assert all(c.kernel == "esc" for c in esc.chunks)
        self._fresh(tmp_path, monkeypatch)
