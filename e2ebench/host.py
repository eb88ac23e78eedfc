"""Host-side bookkeeping: the run stamp, peak memory, and the resource
hygiene check that counts leaked processes, shared-memory segments and
socket directories as failures."""

from __future__ import annotations

import os
import platform
import re
import shutil
import signal
import subprocess
from pathlib import Path
from typing import Dict, Iterable, List

SHM_DIR = Path("/dev/shm")


def git_commit(root: Path) -> str:
    """HEAD of ``root`` when ``root`` itself is a git checkout, else
    ``"unknown"`` (an exported tree carries no commit)."""
    try:
        top = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if len(top) != 2 or Path(top[0]).resolve() != root.resolve():
        return "unknown"
    return top[1]


def stamp(root: Path) -> Dict[str, object]:
    """What a record must carry to be comparable with another one."""
    import numpy
    import scipy

    from repro.spgemm.kernels import resolved_wire
    from repro.spgemm.native import native_available, native_build_error

    native = native_available()
    return {
        "commit": git_commit(root),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "native_available": native,
        "native_error": None if native else native_build_error(),
        "kernel_wire": resolved_wire(None),
    }


def cpu_ticks() -> List[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (empty if absent)."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_fraction(before: List[int], after: List[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests between two
    :func:`cpu_ticks` readings — the main source of run-to-run spread on
    a shared virtual machine."""
    if len(before) < 8 or len(after) < 8:
        return 0.0
    delta = [b - a for a, b in zip(before[:8], after[:8])]
    total = sum(delta)
    return delta[7] / total if total > 0 else 0.0


def vm_hwm_bytes(pid: int) -> int:
    """Peak resident set (``VmHWM``) of a live process, 0 if unreadable."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    m = re.search(r"^VmHWM:\s+(\d+)\s+kB", text, re.MULTILINE)
    return int(m.group(1)) * 1024 if m else 0


def live_children(pid: int) -> List[int]:
    """Non-zombie processes whose parent is ``pid``."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # "pid (comm) state ppid ..." — comm may hold spaces/parens
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) >= 2 and fields[0] != "Z" and int(fields[1]) == pid:
            found.append(int(entry.name))
    return found


def shm_segments(pids: Iterable[int]) -> List[Path]:
    """``/dev/shm`` entries named under a run prefix of any of ``pids``
    (``repro[-tag]-<pid>-<token>...``, see ``repro.sparse.shm``)."""
    if not SHM_DIR.is_dir():
        return []
    pattern = re.compile(
        r"^repro(?:-[A-Za-z0-9_]+)?-(%s)-" % "|".join(str(p) for p in pids))
    return [p for p in SHM_DIR.iterdir() if pattern.match(p.name)]


def socket_dirs(tmp: Path) -> List[Path]:
    """Leftover transport socket directories under the run's temp dir."""
    return sorted(tmp.glob("repro-transport-*")) if tmp.is_dir() else []


def collect_leaks(pids: Iterable[int], tmp: Path) -> Dict[str, list]:
    """Everything a finished workload left behind, by kind: live child
    processes, shared-memory segments of this process or of ``pids``
    (its server or shard workers), and transport socket directories."""
    return {
        "processes": live_children(os.getpid()),
        "shm": [p.name for p in shm_segments(set(pids) | {os.getpid()})],
        "sockets": [p.name for p in socket_dirs(tmp)],
    }


def reap(leaks: Dict[str, list], tmp: Path) -> None:
    """Remove what :func:`collect_leaks` found, so the benchmark never
    leaves anything running or mapped after it exits."""
    for pid in leaks["processes"]:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    for name in leaks["shm"]:
        (SHM_DIR / name).unlink(missing_ok=True)
    for name in leaks["sockets"]:
        shutil.rmtree(tmp / name, ignore_errors=True)


def leak_count(leaks: Dict[str, list]) -> int:
    return sum(len(v) for v in leaks.values())
