"""Chunk stores and the checkpoint run manifest.

The paper assembles arriving chunks in (128 GB of) host memory.  When the
output exceeds even the host, chunks must spill to storage — the natural
next rung of the out-of-core ladder.  Two stores share one interface:

``MemoryChunkStore``
    the paper's behaviour: chunks held as CSR matrices in host memory.
``DiskChunkStore``
    each chunk written to a compressed ``.npz`` as it "arrives" and
    re-loaded lazily; peak host memory stays at one chunk.  A store
    pointed at a directory that already holds chunk files *adopts* them
    — which is how a resumed run finds the chunks a previous (killed)
    run already produced.

Both assemble into the full matrix on demand, and both are accepted by
:func:`repro.core.api.run_out_of_core` via the ``chunk_store`` argument.

:class:`RunManifest` is the checkpoint: a JSON file recording the run's
identity (a fresh run id plus a SHA-256 hash of the operands and the
chunk grid) and, incrementally, the full :class:`~repro.core.chunks.\
ChunkStats` record of every completed chunk.  The executor's sink marks
a chunk done only *after* its store write, so the manifest never points
at data that was not durably written; every rewrite is atomic (temp file
+ ``os.replace``), so a kill mid-write leaves the previous good
manifest.  :func:`open_checkpoint` is the one checkpoint/resume protocol
both :func:`repro.core.api.run_out_of_core` and
:func:`repro.distributed.shard.run_sharded` follow: it validates the
hash, CRC-verifies the stored chunks, and hands the executor only the
chunks that still need computing.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import uuid
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..observability import as_tracer
from ..sparse.formats import CSRMatrix
from ..sparse.io import load_npz, save_npz
from .chunks import STAT_FIELDS, ChunkGrid, ChunkStats
from .governor.integrity import ChunkCorruption, crc32_matrix

__all__ = [
    "MemoryChunkStore",
    "DiskChunkStore",
    "SpillableChunkStore",
    "RunManifest",
    "ManifestMismatch",
    "Checkpoint",
    "open_checkpoint",
    "fill_skipped",
    "operand_grid_hash",
]

#: archive key carrying a chunk file's CRC32 (structure + values).
#: Stored as an extra, so archives remain readable by plain loaders.
CHUNK_CRC_KEY = "crc32"


class MemoryChunkStore:
    """Chunks kept in host memory (the paper's configuration).

    ``tracer`` (:mod:`repro.observability`) records per-chunk ``put`` /
    ``get`` latency spans and samples the bytes held by the store after
    every put — the "chunk-store bytes" gauge of the pipeline trace.
    """

    def __init__(self, *, tracer=None) -> None:
        self._chunks: Dict[Tuple[int, int], CSRMatrix] = {}
        self._shape: Optional[Tuple[int, int]] = None  # (row panels, col panels)
        # the parallel chunk executor streams arrivals from worker threads
        self._lock = threading.Lock()
        self._tracer = as_tracer(tracer)
        self._held_bytes = 0  # maintained incrementally; nbytes() is O(n)

    def put(self, row_panel: int, col_panel: int, chunk: CSRMatrix) -> None:
        with self._tracer.span(f"store_put[{row_panel},{col_panel}]", "store",
                               bytes=chunk.nbytes() if self._tracer.enabled else 0):
            with self._lock:
                prev = self._chunks.get((row_panel, col_panel))
                if prev is not None:
                    self._held_bytes -= prev.nbytes()
                self._chunks[(row_panel, col_panel)] = chunk
                self._held_bytes += chunk.nbytes()
                self._grow_shape(row_panel, col_panel)
        if self._tracer.enabled:
            self._tracer.gauge("chunk_store_bytes", held=self._held_bytes)

    def _grow_shape(self, row_panel: int, col_panel: int) -> None:
        rs = max(row_panel + 1, self._shape[0] if self._shape else 0)
        cs = max(col_panel + 1, self._shape[1] if self._shape else 0)
        self._shape = (rs, cs)

    def get(self, row_panel: int, col_panel: int) -> CSRMatrix:
        with self._tracer.span(f"store_get[{row_panel},{col_panel}]", "store"):
            return self._chunks[(row_panel, col_panel)]

    def discard(self, row_panel: int, col_panel: int) -> None:
        """Forget one chunk (e.g. one that failed integrity checks on
        resume) so a recompute can overwrite it; no-op when absent."""
        with self._lock:
            prev = self._chunks.pop((row_panel, col_panel), None)
            if prev is not None:
                self._held_bytes -= prev.nbytes()

    @property
    def held_bytes(self) -> int:
        """Host memory currently held by stored chunks (incremental
        counter; what the host-memory governor charges for the store)."""
        return self._held_bytes

    def __len__(self) -> int:
        return len(self._chunks)

    def keys(self) -> Iterator[Tuple[int, int]]:
        return iter(sorted(self._chunks))

    def grid_shape(self) -> Tuple[int, int]:
        if self._shape is None:
            raise ValueError("store is empty")
        return self._shape

    def assemble(self) -> CSRMatrix:
        """The full output matrix (requires a complete grid)."""
        from .assemble import assemble_chunks

        rows, cols = self.grid_shape()
        missing = [
            (i, j) for i in range(rows) for j in range(cols)
            if (i, j) not in self._chunks
        ]
        if missing:
            raise ValueError(f"incomplete chunk grid; missing {missing[:4]}...")
        return assemble_chunks(
            [[self.get(i, j) for j in range(cols)] for i in range(rows)]
        )

    def nbytes(self) -> int:
        """Host memory held by the stored chunks."""
        return sum(c.nbytes() for c in self._chunks.values())

    def close(self) -> None:  # symmetry with the disk store
        self._chunks.clear()


class DiskChunkStore(MemoryChunkStore):
    """Chunks spilled to per-chunk ``.npz`` files under a directory.

    ``put`` writes and releases the chunk immediately; ``get`` re-loads.
    The directory is created on demand (a temporary one when not given)
    and removed by :meth:`close`.

    Chunk files already present in the directory are **adopted** (their
    panel coordinates parsed back from the filenames): a resumed run
    pointed at the previous run's spill directory serves the completed
    chunks from disk and only writes the ones it recomputes.
    """

    def __init__(self, directory: Optional[os.PathLike] = None, *,
                 tracer=None) -> None:
        super().__init__(tracer=tracer)
        self._own_dir = directory is None
        self._dir = Path(directory) if directory else Path(tempfile.mkdtemp(prefix="repro-chunks-"))
        self._dir.mkdir(parents=True, exist_ok=True)
        self._paths: Dict[Tuple[int, int], Path] = {}
        for path in sorted(self._dir.glob("chunk_*_*.npz")):
            try:
                rp, cp = map(int, path.stem.split("_")[1:3])
            except ValueError:
                continue  # not one of ours
            self._paths[(rp, cp)] = path
            self._grow_shape(rp, cp)

    @property
    def directory(self) -> Path:
        """The spill directory (recorded in checkpoint manifests)."""
        return self._dir

    def _path(self, row_panel: int, col_panel: int) -> Path:
        return self._dir / f"chunk_{row_panel}_{col_panel}.npz"

    def put(self, row_panel: int, col_panel: int, chunk: CSRMatrix) -> None:
        path = self._path(row_panel, col_panel)
        with self._tracer.span(f"store_put[{row_panel},{col_panel}]", "store",
                               bytes=chunk.nbytes() if self._tracer.enabled else 0):
            # every chunk at rest carries its CRC32, verified on get()
            crc = np.array([crc32_matrix(chunk)], dtype=np.uint32)
            save_npz(path, chunk,  # distinct per-chunk file; write needs no lock
                     extra={CHUNK_CRC_KEY: crc})
            with self._lock:
                self._paths[(row_panel, col_panel)] = path
                self._grow_shape(row_panel, col_panel)
        if self._tracer.enabled:
            self._tracer.gauge("chunk_store_bytes", held=self.nbytes())

    def get(self, row_panel: int, col_panel: int) -> CSRMatrix:
        path = self._paths[(row_panel, col_panel)]
        with self._tracer.span(f"store_get[{row_panel},{col_panel}]", "store"):
            try:
                matrix, extras = load_npz(path, with_extras=True)
            except (ValueError, KeyError, OSError, EOFError,
                    zipfile.BadZipFile) as exc:
                # truncated / unparseable file -> typed corruption with
                # the path and panel coords, never a raw numpy error
                raise ChunkCorruption(
                    f"chunk file unreadable ({type(exc).__name__}: {exc})",
                    path=path, row_panel=row_panel, col_panel=col_panel,
                ) from exc
            stored = extras.get(CHUNK_CRC_KEY)
            if stored is not None:  # legacy adopted files carry no CRC
                expected = int(np.asarray(stored).ravel()[0])
                actual = crc32_matrix(matrix)
                if actual != expected:
                    raise ChunkCorruption(
                        f"chunk checksum mismatch (stored {expected:#010x}, "
                        f"recomputed {actual:#010x})",
                        path=path, row_panel=row_panel, col_panel=col_panel,
                    )
            return matrix

    def discard(self, row_panel: int, col_panel: int) -> None:
        with self._lock:
            path = self._paths.pop((row_panel, col_panel), None)
        if path is not None:
            Path(path).unlink(missing_ok=True)

    def __len__(self) -> int:
        return len(self._paths)

    def keys(self) -> Iterator[Tuple[int, int]]:
        return iter(sorted(self._paths))

    def assemble(self) -> CSRMatrix:
        from .assemble import assemble_chunks

        rows, cols = self.grid_shape()
        missing = [
            (i, j) for i in range(rows) for j in range(cols)
            if (i, j) not in self._paths
        ]
        if missing:
            raise ValueError(f"incomplete chunk grid; missing {missing[:4]}...")
        return assemble_chunks(
            [[self.get(i, j) for j in range(cols)] for i in range(rows)]
        )

    def nbytes(self) -> int:
        """Bytes on disk (compressed)."""
        return sum(p.stat().st_size for p in self._paths.values())

    def close(self) -> None:
        for p in self._paths.values():
            p.unlink(missing_ok=True)
        self._paths.clear()
        if self._own_dir:
            try:
                self._dir.rmdir()
            except OSError:
                pass


class SpillableChunkStore(MemoryChunkStore):
    """A memory store that migrates chunks to disk under pressure.

    Behaves exactly like :class:`MemoryChunkStore` until someone calls
    :meth:`spill` — typically the host-memory governor, when admission
    would exceed the budget.  Spilling moves the largest in-memory
    chunks into a lazily created :class:`DiskChunkStore` (CRC-stamped
    like any disk chunk); ``get`` serves from memory first and falls
    back to disk transparently, so assembly and resume never notice
    where a chunk physically lives.
    """

    def __init__(self, directory: Optional[os.PathLike] = None, *,
                 tracer=None) -> None:
        super().__init__(tracer=tracer)
        self._spill_directory = directory
        self._disk: Optional[DiskChunkStore] = None
        self.spilled_bytes_total = 0  # cumulative bytes migrated to disk
        if directory is not None and Path(directory).exists():
            # adopt chunks a previous (killed) run already spilled here
            disk = DiskChunkStore(directory, tracer=tracer)
            if len(disk):
                self._disk = disk
                for rp, cp in disk.keys():
                    self._grow_shape(rp, cp)

    def _disk_store(self) -> DiskChunkStore:
        if self._disk is None:
            self._disk = DiskChunkStore(self._spill_directory,
                                        tracer=self._tracer)
        return self._disk

    @property
    def spill_directory(self) -> Optional[Path]:
        """Where spilled chunks land (``None`` until the first spill
        when no directory was configured)."""
        if self._disk is not None:
            return self._disk.directory
        return Path(self._spill_directory) if self._spill_directory else None

    def put(self, row_panel: int, col_panel: int, chunk: CSRMatrix) -> None:
        super().put(row_panel, col_panel, chunk)
        if self._disk is not None:
            # a recompute supersedes any spilled copy of the same chunk
            self._disk.discard(row_panel, col_panel)

    def spill(self, min_bytes: int) -> int:
        """Migrate in-memory chunks to disk until ``min_bytes`` of host
        memory are freed (largest first — fewest files for the most
        relief); returns the bytes actually freed."""
        freed = 0
        while freed < min_bytes:
            with self._lock:
                if not self._chunks:
                    break
                key = max(self._chunks, key=lambda k: self._chunks[k].nbytes())
                chunk = self._chunks.pop(key)
                self._held_bytes -= chunk.nbytes()
            self._disk_store().put(key[0], key[1], chunk)
            freed += chunk.nbytes()
            self.spilled_bytes_total += chunk.nbytes()
        if freed and self._tracer.enabled:
            self._tracer.gauge("chunk_store_bytes", held=self._held_bytes,
                               spilled=self.spilled_bytes_total)
            self._tracer.bump("governor", spills=1)
        return freed

    def get(self, row_panel: int, col_panel: int) -> CSRMatrix:
        with self._lock:
            chunk = self._chunks.get((row_panel, col_panel))
        if chunk is not None:
            return chunk
        if self._disk is not None:
            return self._disk.get(row_panel, col_panel)
        raise KeyError((row_panel, col_panel))

    def discard(self, row_panel: int, col_panel: int) -> None:
        super().discard(row_panel, col_panel)
        if self._disk is not None:
            self._disk.discard(row_panel, col_panel)

    def _keys(self):
        keys = set(self._chunks)
        if self._disk is not None:
            keys |= set(self._disk.keys())
        return keys

    def keys(self) -> Iterator[Tuple[int, int]]:
        return iter(sorted(self._keys()))

    def __len__(self) -> int:
        return len(self._keys())

    def assemble(self) -> CSRMatrix:
        from .assemble import assemble_chunks

        rows, cols = self.grid_shape()
        have = self._keys()
        missing = [
            (i, j) for i in range(rows) for j in range(cols)
            if (i, j) not in have
        ]
        if missing:
            raise ValueError(f"incomplete chunk grid; missing {missing[:4]}...")
        return assemble_chunks(
            [[self.get(i, j) for j in range(cols)] for i in range(rows)]
        )

    def nbytes(self) -> int:
        """Total stored bytes: host memory plus (compressed) disk."""
        disk = self._disk.nbytes() if self._disk is not None else 0
        return super().nbytes() + disk

    def close(self) -> None:
        super().close()
        if self._disk is not None:
            self._disk.close()
            self._disk = None


# ----------------------------------------------------------------------
# checkpoint / resume
# ----------------------------------------------------------------------
class ManifestMismatch(ValueError):
    """A manifest does not belong to the (operands, grid) being resumed."""


def operand_grid_hash(a: CSRMatrix, b: CSRMatrix, grid: ChunkGrid) -> str:
    """SHA-256 fingerprint binding a manifest to its exact computation.

    Hashes the full CSR content of both operands plus the grid bounds —
    a resumed run with different inputs (or a different partitioning)
    must be rejected, not silently mixed with stale chunks.
    """
    h = hashlib.sha256()
    for mat in (a, b):
        h.update(repr(mat.shape).encode())
        for arr in (mat.row_offsets, mat.col_ids, mat.data):
            h.update(arr.tobytes())
    h.update(grid.row_bounds.tobytes())
    h.update(grid.col_bounds.tobytes())
    return h.hexdigest()


class RunManifest:
    """Incremental JSON checkpoint of one chunk-grid execution.

    Created by :meth:`create` at run start and handed to the executor,
    which calls :meth:`mark_done` *after* each chunk's durable sink
    write.  Every update rewrites the file atomically, so the manifest on
    disk is always a consistent prefix of the run.  :meth:`load` +
    :meth:`validate` + :meth:`completed_stats` drive the resume path.

    Thread-safe: lane threads complete chunks concurrently (the executor
    additionally serializes sink writes, but the manifest does not rely
    on that).
    """

    VERSION = 1

    def __init__(self, path: os.PathLike, header: dict,
                 completed: Optional[Dict[int, ChunkStats]] = None,
                 chunk_crcs: Optional[Dict[int, int]] = None) -> None:
        self.path = Path(path)
        self._header = header
        self._completed: Dict[int, ChunkStats] = dict(completed or {})
        #: chunk id -> CRC32 of the chunk matrix recorded at sink time;
        #: resume verifies stored chunks against these before trusting them
        self._chunk_crcs: Dict[int, int] = dict(chunk_crcs or {})
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, path: os.PathLike, a: CSRMatrix, b: CSRMatrix,
               grid: ChunkGrid, *,
               store_dir: Optional[os.PathLike] = None) -> "RunManifest":
        """Start a fresh manifest for ``C = A x B`` over ``grid`` and
        write it (with zero completed chunks) immediately."""
        header = {
            "version": cls.VERSION,
            "run_id": uuid.uuid4().hex,
            "grid_hash": operand_grid_hash(a, b, grid),
            "num_chunks": grid.num_chunks,
            "row_bounds": grid.row_bounds.tolist(),
            "col_bounds": grid.col_bounds.tolist(),
            "store_dir": str(store_dir) if store_dir is not None else None,
        }
        manifest = cls(path, header)
        manifest._write()
        return manifest

    @classmethod
    def load(cls, path: os.PathLike) -> "RunManifest":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ManifestMismatch(
                f"manifest {path} is not valid JSON (truncated or "
                f"corrupted): {exc}"
            ) from exc
        # integrity: the manifest carries a CRC32 over its own canonical
        # serialization; a bit-flip in stats or header must not be
        # silently resumed against.  Manifests written before the field
        # existed load without the check.
        recorded_crc = payload.pop("manifest_crc32", None)
        if recorded_crc is not None:
            actual = cls._payload_crc(payload)
            if actual != int(recorded_crc):
                raise ManifestMismatch(
                    f"manifest {path} failed its integrity check "
                    f"(stored {int(recorded_crc):#010x}, recomputed "
                    f"{actual:#010x}) — refusing to resume from it"
                )
        version = payload.get("version")
        if version != cls.VERSION:
            raise ManifestMismatch(
                f"unsupported manifest version {version!r} in {path}"
            )
        header = {k: payload[k] for k in (
            "version", "run_id", "grid_hash", "num_chunks",
            "row_bounds", "col_bounds", "store_dir",
        )}
        completed = {}
        chunk_crcs = {}
        for cid, record in payload.get("chunks", {}).items():
            record = dict(record)
            crc = record.pop("crc32", None)
            if crc is not None:
                chunk_crcs[int(cid)] = int(crc)
            completed[int(cid)] = ChunkStats(**record)
        return cls(path, header, completed, chunk_crcs)

    @staticmethod
    def _payload_crc(payload: dict) -> int:
        """CRC32 over the canonical (sorted, compact) JSON serialization
        of the manifest payload, excluding the CRC field itself."""
        body = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        return zlib.crc32(body) & 0xFFFFFFFF

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def run_id(self) -> str:
        return self._header["run_id"]

    @property
    def num_chunks(self) -> int:
        return int(self._header["num_chunks"])

    @property
    def store_dir(self) -> Optional[str]:
        return self._header["store_dir"]

    @property
    def grid(self) -> ChunkGrid:
        return ChunkGrid(
            row_bounds=np.asarray(self._header["row_bounds"], dtype=np.int64),
            col_bounds=np.asarray(self._header["col_bounds"], dtype=np.int64),
        )

    def validate(self, a: CSRMatrix, b: CSRMatrix, grid: ChunkGrid) -> None:
        """Reject a manifest recorded for different operands or grid."""
        actual = operand_grid_hash(a, b, grid)
        if actual != self._header["grid_hash"]:
            raise ManifestMismatch(
                f"manifest {self.path} (run {self.run_id}) was recorded "
                "for different operands or a different chunk grid — "
                "refusing to resume against it"
            )

    # ------------------------------------------------------------------
    # progress
    # ------------------------------------------------------------------
    def mark_done(self, stats: ChunkStats,
                  crc32: Optional[int] = None) -> None:
        """Record one completed chunk and persist the manifest atomically.

        The executor calls this after the chunk's sink write, under the
        sink lock — completion on disk implies the data is on disk.
        ``crc32`` (the chunk matrix's integrity checksum) lets a resume
        verify the stored chunk before trusting it."""
        with self._lock:
            self._completed[stats.chunk_id] = stats
            if crc32 is not None:
                self._chunk_crcs[stats.chunk_id] = int(crc32)
            self._write()

    def completed_stats(self) -> Dict[int, ChunkStats]:
        """``{chunk_id: ChunkStats}`` of every recorded chunk."""
        with self._lock:
            return dict(self._completed)

    def chunk_crc(self, chunk_id: int) -> Optional[int]:
        """The CRC32 recorded for a completed chunk (``None`` when the
        manifest predates integrity stamping)."""
        with self._lock:
            return self._chunk_crcs.get(chunk_id)

    @property
    def completed_count(self) -> int:
        with self._lock:
            return len(self._completed)

    @property
    def is_complete(self) -> bool:
        return self.completed_count == self.num_chunks

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _write(self) -> None:
        payload = dict(self._header)
        chunks = {}
        for cid, st in sorted(self._completed.items()):
            record = {f: getattr(st, f) for f in STAT_FIELDS}
            if cid in self._chunk_crcs:
                record["crc32"] = self._chunk_crcs[cid]
            chunks[str(cid)] = record
        payload["chunks"] = chunks
        payload["manifest_crc32"] = self._payload_crc(payload)
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
        os.replace(tmp, self.path)


@dataclass
class Checkpoint:
    """Checkpoint state of one chunk-grid run.

    ``manifest`` is what the executor extends as chunks complete;
    ``resume_stats`` (``None`` unless resuming) holds the verified
    chunks the executor skips; ``corrupt_recomputed`` counts stored
    chunks that failed verification and will be recomputed.
    """

    manifest: Optional[RunManifest] = None
    resume_stats: Optional[Dict[int, ChunkStats]] = None
    corrupt_recomputed: int = 0


def open_checkpoint(a: CSRMatrix, b: CSRMatrix, grid: ChunkGrid,
                    store=None, *, checkpoint: Optional[os.PathLike] = None,
                    resume=None, keep_output: bool = False) -> Checkpoint:
    """Start or resume the checkpoint of ``C = A x B`` over ``grid``.

    ``resume`` (a :class:`RunManifest` or its path) is loaded and
    validated against the operands and grid; each chunk it records is
    re-read from ``store`` and verified against the manifest's CRC, and
    corrupt, mismatched or missing chunks are evicted so the executor
    recomputes them (the recompute re-checkpoints with a fresh CRC).
    Otherwise ``checkpoint`` (a path) starts a fresh manifest; with
    neither the run is not checkpointed.  Resuming with
    ``keep_output=True`` needs the ``store`` holding the previous run's
    chunks.
    """
    if resume is None:
        if checkpoint is None:
            return Checkpoint()
        return Checkpoint(manifest=RunManifest.create(
            checkpoint, a, b, grid,
            store_dir=getattr(store, "directory", None)))
    manifest = (resume if isinstance(resume, RunManifest)
                else RunManifest.load(resume))
    manifest.validate(a, b, grid)
    resume_stats = manifest.completed_stats()
    if resume_stats and keep_output and store is None:
        raise ValueError(
            "resuming with keep_output=True requires the chunk_store "
            "holding the previous run's chunks (e.g. a DiskChunkStore "
            "over the original spill directory)"
        )
    dropped = 0
    if resume_stats and store is not None:
        verified = {}
        for cid, stats in resume_stats.items():
            rp, cp = stats.row_panel, stats.col_panel
            try:
                matrix = store.get(rp, cp)
            except KeyError:
                dropped += 1  # vanished from the store: recompute
                continue
            except ChunkCorruption:
                store.discard(rp, cp)
                dropped += 1
                continue
            expected = manifest.chunk_crc(cid)
            if expected is not None and crc32_matrix(matrix) != expected:
                # the store's copy parses but is not the chunk the
                # manifest checkpointed (e.g. silently overwritten)
                store.discard(rp, cp)
                dropped += 1
                continue
            verified[cid] = stats
        resume_stats = verified
    return Checkpoint(manifest, resume_stats, dropped)


def fill_skipped(outputs: List[List[Optional[CSRMatrix]]], grid: ChunkGrid,
                 chunk_ids: Iterable[int],
                 get: Callable[[int, int], CSRMatrix]) -> None:
    """Fill the output slots of chunks the executor skipped on resume
    with ``get(row_panel, col_panel)`` (e.g. the chunk store's ``get``)."""
    for cid in chunk_ids:
        rp, cp = grid.panel_of(cid)
        if outputs[rp][cp] is None:
            outputs[rp][cp] = get(rp, cp)
