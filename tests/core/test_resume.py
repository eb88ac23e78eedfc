"""Checkpoint/resume tests: run manifests, partial-run resume, CLI flow.

The contract under test: a run interrupted after ``k`` of ``n`` chunks
resumes by recomputing exactly ``n - k`` chunks (counted via executed
kernel spans) and produces a product bit-identical to an uninterrupted
run.
"""

import json

import numpy as np
import pytest

from repro.core.api import run_out_of_core
from repro.core.assemble import assemble_chunks
from repro.core.chunks import ChunkGrid
from repro.core.executor import execute_chunk_grid
from repro.core.spill import (
    DiskChunkStore,
    ManifestMismatch,
    RunManifest,
    operand_grid_hash,
)
from repro.observability.tracer import Tracer
from repro.sparse.generators import banded, rmat


@pytest.fixture(scope="module")
def problem():
    a = rmat(9, 7.0, seed=31)
    b = rmat(9, 7.0, seed=32)
    grid = ChunkGrid.regular(a.shape[0], b.shape[1], 3, 2)
    return a, b, grid


def numeric_spans(tracer):
    """One kernel execution per chunk — the executed-chunk counter."""
    return [s for s in tracer.spans if s.cat == "numeric"]


# ----------------------------------------------------------------------
# operand/grid fingerprint
# ----------------------------------------------------------------------
def test_operand_grid_hash_is_deterministic(problem):
    a, b, grid = problem
    assert operand_grid_hash(a, b, grid) == operand_grid_hash(a, b, grid)


def test_operand_grid_hash_sees_values_and_grid(problem):
    a, b, grid = problem
    base = operand_grid_hash(a, b, grid)
    mutated = rmat(9, 7.0, seed=99)
    assert operand_grid_hash(mutated, b, grid) != base
    other_grid = ChunkGrid.regular(a.shape[0], b.shape[1], 2, 3)
    assert operand_grid_hash(a, b, other_grid) != base


# ----------------------------------------------------------------------
# RunManifest persistence
# ----------------------------------------------------------------------
def test_manifest_roundtrip(problem, tmp_path):
    a, b, grid = problem
    path = tmp_path / "run.manifest.json"
    manifest = RunManifest.create(path, a, b, grid, store_dir=tmp_path / "chunks")
    assert path.exists()
    assert manifest.completed_count == 0 and not manifest.is_complete

    profile, _ = execute_chunk_grid(a, b, grid)
    for stats in profile.chunks[:2]:
        manifest.mark_done(stats)

    loaded = RunManifest.load(path)
    assert loaded.run_id == manifest.run_id
    assert loaded.num_chunks == grid.num_chunks
    assert loaded.store_dir == str(tmp_path / "chunks")
    assert loaded.completed_count == 2
    assert set(loaded.completed_stats()) == {profile.chunks[0].chunk_id,
                                             profile.chunks[1].chunk_id}
    # the rebuilt ChunkStats carry every recorded field
    st = loaded.completed_stats()[profile.chunks[0].chunk_id]
    assert st.nnz_out == profile.chunks[0].nnz_out
    assert st.flops == profile.chunks[0].flops
    # the grid round-trips exactly
    np.testing.assert_array_equal(loaded.grid.row_bounds, grid.row_bounds)
    np.testing.assert_array_equal(loaded.grid.col_bounds, grid.col_bounds)
    loaded.validate(a, b, grid)


def test_manifest_rejects_wrong_operands(problem, tmp_path):
    a, b, grid = problem
    manifest = RunManifest.create(tmp_path / "m.json", a, b, grid)
    with pytest.raises(ManifestMismatch):
        manifest.validate(rmat(9, 7.0, seed=77), b, grid)
    with pytest.raises(ManifestMismatch):
        manifest.validate(a, b, ChunkGrid.regular(a.shape[0], b.shape[1], 2, 2))


def test_manifest_rejects_unknown_version(problem, tmp_path):
    a, b, grid = problem
    path = tmp_path / "m.json"
    RunManifest.create(path, a, b, grid)
    payload = json.loads(path.read_text())
    payload["version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(ManifestMismatch):
        RunManifest.load(path)


def test_manifest_updates_are_atomic(problem, tmp_path):
    """Every mark_done leaves a loadable manifest on disk (tmp + rename)."""
    a, b, grid = problem
    path = tmp_path / "m.json"
    manifest = RunManifest.create(path, a, b, grid)
    profile, _ = execute_chunk_grid(a, b, grid)
    for i, stats in enumerate(profile.chunks, 1):
        manifest.mark_done(stats)
        assert RunManifest.load(path).completed_count == i
    assert RunManifest.load(path).is_complete
    assert not path.with_name(path.name + ".tmp").exists()


# ----------------------------------------------------------------------
# engine-level resume: skip completed chunks, recompute the rest
# ----------------------------------------------------------------------
def test_resume_recomputes_only_missing_chunks(problem, tmp_path):
    a, b, grid = problem
    n = grid.num_chunks
    store_dir = tmp_path / "chunks"

    # the uninterrupted reference
    ref = run_out_of_core(a, b, grid=grid)

    # a "crashed" first run: checkpoint every chunk, then keep only the
    # first k completion records (a manifest is always a consistent
    # prefix of the run, so truncating it simulates any interrupt point)
    manifest_path = tmp_path / "run.manifest.json"
    store = DiskChunkStore(store_dir)
    first = run_out_of_core(a, b, grid=grid, keep_output=False,
                            chunk_store=store, checkpoint=manifest_path)
    assert first.resumed_chunks == 0
    full = RunManifest.load(manifest_path)
    assert full.is_complete
    k = 2
    done = dict(sorted(full.completed_stats().items())[:k])
    partial = RunManifest(manifest_path, full._header, done)
    partial._write()

    # resume: only n - k chunks execute, the product is bit-identical
    tracer = Tracer()
    resumed = run_out_of_core(a, b, grid=grid,
                              chunk_store=DiskChunkStore(store_dir),
                              resume=manifest_path, tracer=tracer)
    assert resumed.resumed_chunks == k
    assert resumed.meta["run_id"] == full.run_id
    assert len(numeric_spans(tracer)) == n - k
    resume_marks = [s for s in tracer.spans if s.cat == "resume"]
    assert len(resume_marks) == 1
    assert resume_marks[0].args == {"skipped": k, "remaining": n - k}

    got, want = resumed.matrix, ref.matrix
    np.testing.assert_array_equal(got.row_offsets, want.row_offsets)
    np.testing.assert_array_equal(got.col_ids, want.col_ids)
    np.testing.assert_array_equal(got.data, want.data)

    # the resumed run extends the same manifest to completion
    assert RunManifest.load(manifest_path).is_complete


def test_resume_of_complete_run_recomputes_nothing(problem, tmp_path):
    a, b, grid = problem
    manifest_path = tmp_path / "m.json"
    store = DiskChunkStore(tmp_path / "chunks")
    run_out_of_core(a, b, grid=grid, keep_output=False, chunk_store=store,
                    checkpoint=manifest_path)
    tracer = Tracer()
    resumed = run_out_of_core(a, b, grid=grid,
                              chunk_store=DiskChunkStore(tmp_path / "chunks"),
                              resume=manifest_path, tracer=tracer)
    assert resumed.resumed_chunks == grid.num_chunks
    assert numeric_spans(tracer) == []
    ref = run_out_of_core(a, b, grid=grid)
    np.testing.assert_array_equal(resumed.matrix.data, ref.matrix.data)


def test_resume_requires_matching_operands(problem, tmp_path):
    a, b, grid = problem
    manifest_path = tmp_path / "m.json"
    run_out_of_core(a, b, grid=grid, keep_output=False,
                    chunk_store=DiskChunkStore(tmp_path / "chunks"),
                    checkpoint=manifest_path)
    with pytest.raises(ManifestMismatch):
        run_out_of_core(rmat(9, 7.0, seed=55), b, grid=grid,
                        chunk_store=DiskChunkStore(tmp_path / "chunks"),
                        resume=manifest_path)


def test_resume_with_keep_output_requires_chunk_store(problem, tmp_path):
    a, b, grid = problem
    manifest_path = tmp_path / "m.json"
    run_out_of_core(a, b, grid=grid, keep_output=False,
                    chunk_store=DiskChunkStore(tmp_path / "chunks"),
                    checkpoint=manifest_path)
    with pytest.raises(ValueError, match="chunk_store"):
        run_out_of_core(a, b, grid=grid, resume=manifest_path)


def test_resume_grid_defaults_to_manifest_grid(problem, tmp_path):
    a, b, grid = problem
    manifest_path = tmp_path / "m.json"
    run_out_of_core(a, b, grid=grid, keep_output=False,
                    chunk_store=DiskChunkStore(tmp_path / "chunks"),
                    checkpoint=manifest_path)
    resumed = run_out_of_core(a, b,  # no grid argument
                              chunk_store=DiskChunkStore(tmp_path / "chunks"),
                              resume=manifest_path)
    assert resumed.profile.grid.num_chunks == grid.num_chunks


def test_disk_store_adopts_existing_chunks(problem, tmp_path):
    a, b, grid = problem
    first = DiskChunkStore(tmp_path / "chunks")
    _, outputs = execute_chunk_grid(a, b, grid, keep_outputs=True,
                                chunk_sink=first.put)

    adopted = DiskChunkStore(tmp_path / "chunks")
    assert adopted.grid_shape() == (grid.num_row_panels, grid.num_col_panels)
    for rp in range(grid.num_row_panels):
        for cp in range(grid.num_col_panels):
            np.testing.assert_array_equal(adopted.get(rp, cp).data,
                                          outputs[rp][cp].data)


def test_resume_summary_reports_resumed_chunks(problem, tmp_path):
    a, b, grid = problem
    manifest_path = tmp_path / "m.json"
    run_out_of_core(a, b, grid=grid, keep_output=False,
                    chunk_store=DiskChunkStore(tmp_path / "chunks"),
                    checkpoint=manifest_path)
    resumed = run_out_of_core(a, b, grid=grid,
                              chunk_store=DiskChunkStore(tmp_path / "chunks"),
                              resume=manifest_path)
    assert f"resumed={grid.num_chunks} chunks" in resumed.summary()
    fresh = run_out_of_core(a, b, grid=grid)
    assert fresh.resumed_chunks == 0
    assert "resumed=" not in fresh.summary()


def test_checkpoint_resume_with_faults_and_retries(problem, tmp_path):
    """The full story: a faulty run under retries still checkpoints every
    chunk it completes, and resume finishes the job bit-identically."""
    from repro.core.executor import RetryPolicy

    a, b, grid = problem
    ref = run_out_of_core(a, b, grid=grid)
    manifest_path = tmp_path / "m.json"
    store = DiskChunkStore(tmp_path / "chunks")
    run_out_of_core(a, b, grid=grid, keep_output=False, chunk_store=store,
                    checkpoint=manifest_path,
                    retry=RetryPolicy(max_attempts=3, base_delay=0.001),
                    faults="numeric:raise:chunk=1:times=2")
    resumed = run_out_of_core(a, b, grid=grid,
                              chunk_store=DiskChunkStore(tmp_path / "chunks"),
                              resume=manifest_path)
    assert resumed.resumed_chunks == grid.num_chunks
    np.testing.assert_array_equal(resumed.matrix.data, ref.matrix.data)


def test_resume_recomputes_corrupt_checkpoints(problem, tmp_path):
    """The --resume integrity gate: checkpointed chunks that fail their
    CRC — truncated on disk or silently overwritten — are evicted and
    recomputed instead of being resumed into a wrong product."""
    a, b, grid = problem
    ref = run_out_of_core(a, b, grid=grid)
    manifest_path = tmp_path / "m.json"
    store = DiskChunkStore(tmp_path / "chunks")
    run_out_of_core(a, b, grid=grid, keep_output=False, chunk_store=store,
                    checkpoint=manifest_path)

    # truncate one chunk file (unreadable) ...
    truncated = store._path(0, 0)
    truncated.write_bytes(truncated.read_bytes()[:40])
    # ... and silently replace another with a *valid* chunk file whose
    # content is not what the manifest checkpointed (wrong CRC)
    swapped_src = store._path(1, 0)
    swapped_dst = store._path(0, 1)
    swapped_dst.write_bytes(swapped_src.read_bytes())

    tracer = Tracer()
    resumed = run_out_of_core(a, b, grid=grid,
                              chunk_store=DiskChunkStore(tmp_path / "chunks"),
                              resume=manifest_path, tracer=tracer)
    assert resumed.meta["corrupt_recomputed"] == 2
    assert resumed.resumed_chunks == grid.num_chunks - 2
    assert len(numeric_spans(tracer)) == 2  # only the evicted pair re-ran
    np.testing.assert_array_equal(resumed.matrix.data, ref.matrix.data)
    assert RunManifest.load(manifest_path).is_complete


# ----------------------------------------------------------------------
# CLI checkpoint / resume
# ----------------------------------------------------------------------
@pytest.fixture
def cli_matrix(tmp_path):
    from repro.sparse.io import save_npz

    a = banded(40, 3, seed=3, fill=0.8)
    path = tmp_path / "a.npz"
    save_npz(path, a)
    return a, path


def test_cli_checkpoint_then_resume(cli_matrix, tmp_path, capsys):
    from repro.cli import main
    from repro.sparse.io import load_npz

    _, mat_path = cli_matrix
    manifest = tmp_path / "run.manifest.json"
    out1, out2 = tmp_path / "c1.npz", tmp_path / "c2.npz"

    assert main(["run", str(mat_path), "--checkpoint", str(manifest),
                 "--out", str(out1)]) == 0
    assert "checkpoint manifest" in capsys.readouterr().out
    assert RunManifest.load(manifest).is_complete

    assert main(["run", str(mat_path), "--resume", str(manifest),
                 "--out", str(out2)]) == 0
    printed = capsys.readouterr().out
    assert "recomputed 0" in printed

    c1, c2 = load_npz(out1), load_npz(out2)
    np.testing.assert_array_equal(c1.row_offsets, c2.row_offsets)
    np.testing.assert_array_equal(c1.col_ids, c2.col_ids)
    np.testing.assert_array_equal(c1.data, c2.data)


def test_cli_resume_after_partial_run(cli_matrix, tmp_path, capsys):
    from repro.cli import main

    a, mat_path = cli_matrix
    manifest_path = tmp_path / "run.manifest.json"
    assert main(["run", str(mat_path), "--checkpoint", str(manifest_path),
                 "--out", str(tmp_path / "c1.npz")]) == 0
    capsys.readouterr()

    # truncate the manifest to simulate an interrupt mid-run
    full = RunManifest.load(manifest_path)
    k = max(1, full.num_chunks // 2)
    done = dict(sorted(full.completed_stats().items())[:k])
    RunManifest(manifest_path, full._header, done)._write()

    assert main(["run", str(mat_path), "--resume", str(manifest_path),
                 "--out", str(tmp_path / "c2.npz")]) == 0
    printed = capsys.readouterr().out
    assert f"resumed {k} chunks" in printed
    assert f"recomputed {full.num_chunks - k}" in printed
    assert RunManifest.load(manifest_path).is_complete


def test_cli_rejects_checkpoint_in_hybrid_mode(cli_matrix, tmp_path):
    from repro.cli import main

    _, mat_path = cli_matrix
    with pytest.raises(SystemExit):
        main(["run", str(mat_path), "--hybrid",
              "--checkpoint", str(tmp_path / "m.json"),
              "--out", str(tmp_path / "c.npz")])
