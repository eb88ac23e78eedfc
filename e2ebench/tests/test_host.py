import os
import subprocess
import sys
from multiprocessing import shared_memory

from e2ebench import host


def test_leaked_child_segment_and_socket_dir_are_found_and_reaped(tmp_path):
    child = subprocess.Popen([sys.executable, "-c",
                              "import time; time.sleep(60)"])
    seg = shared_memory.SharedMemory(
        name=f"repro-test-{child.pid}-leak", create=True, size=64)
    (tmp_path / "repro-transport-leak").mkdir()
    try:
        leaks = host.collect_leaks([child.pid], tmp_path)
        assert child.pid in leaks["processes"]
        assert seg.name in leaks["shm"]
        assert leaks["sockets"] == ["repro-transport-leak"]
        assert host.leak_count(leaks) >= 3
        host.reap(leaks, tmp_path)
        assert child.poll() is not None
        assert host.leak_count(host.collect_leaks([child.pid],
                                                  tmp_path)) == 0
    finally:
        seg.close()
        if child.poll() is None:
            child.kill()
            child.wait(timeout=10)


def test_clean_state_has_no_leaks(tmp_path):
    assert host.leak_count(host.collect_leaks([], tmp_path)) == 0


def test_steal_fraction():
    before = [0, 0, 0, 0, 0, 0, 0, 0]
    after = [60, 0, 10, 20, 0, 0, 0, 10]
    assert host.steal_fraction(before, after) == 0.1
    assert host.steal_fraction([], after) == 0.0
    assert host.vm_hwm_bytes(os.getpid()) > 0
