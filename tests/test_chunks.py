"""The worker pool behind map_chunks: one per process and worker count, nested calls inline, whole calls."""

import os
import pathlib
import subprocess
import sys
import threading
import time

import pytest

from vsheet import chunks


@pytest.fixture
def fresh_pools(monkeypatch):
    """An empty pool cache for the test; the pools it makes are shut down after it."""
    pools = {}
    monkeypatch.setattr(chunks, "_POOLS", pools)
    yield pools
    for pool in pools.values():
        pool.shutdown()


def test_many_calls_make_one_executor_per_worker_count(fresh_pools, monkeypatch):
    made = []
    executor = chunks.ThreadPoolExecutor

    def counting(**kwargs):
        made.append(kwargs["max_workers"])
        return executor(**kwargs)

    monkeypatch.setattr(chunks, "ThreadPoolExecutor", counting)
    for threads in ("2", "3", "2", "3"):
        monkeypatch.setenv("VFS_THREADS", threads)
        for _ in range(5):
            assert chunks.map_chunks(lambda lo, hi: (lo, hi), 10, 3) == [(0, 3), (3, 6), (6, 9), (9, 10)]
    monkeypatch.delenv("VFS_THREADS")
    chunks.map_chunks(lambda lo, hi: hi - lo, 10, 3)
    assert sorted(made, key=str) == [2, 3, None]
    assert set(fresh_pools) == {2, 3, None}


def test_callers_racing_to_a_first_call_share_one_executor(fresh_pools, monkeypatch):
    # eight caller threads, more than the cores, with a short switch interval to make a lost check-then-make show
    made = []
    executor = chunks.ThreadPoolExecutor

    def counting(**kwargs):
        made.append(kwargs["max_workers"])
        time.sleep(0.01)
        return executor(**kwargs)

    monkeypatch.setattr(chunks, "ThreadPoolExecutor", counting)
    monkeypatch.setenv("VFS_THREADS", "2")
    results, start = [], threading.Barrier(8)

    def call():
        start.wait(timeout=30)
        results.append(chunks.map_chunks(lambda lo, hi: hi - lo, 6, 2))

    callers = [threading.Thread(target=call) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert results == [[2, 2, 2]] * 8 and made == [2]


# two workers, each outer task waiting on inner work: sent to the shared pool, that would wait forever,
# so it runs in a child process that a timeout kills
_NESTED = """
import threading

from vsheet import chunks

inline = []

def outer(lo, hi):
    thread = threading.get_ident()
    inner = chunks.map_chunks(lambda a, b: (threading.get_ident() == thread, b - a), 8, 2)
    inline.extend(same for same, _ in inner)
    return sum(n for _, n in inner) + lo

print(chunks.map_chunks(outer, 4, 1), len(inline), all(inline))
"""


def _child(script: str) -> str:
    """The standard output of ``script`` run by a fresh interpreter at ``VFS_THREADS=2``, killed after 60 s."""
    src = str(pathlib.Path(chunks.__file__).resolve().parents[1])
    env = dict(os.environ, VFS_THREADS="2", PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_a_nested_call_runs_inline_and_completes():
    assert _child(_NESTED) == "[8, 9, 10, 11] 16 True\n"


def test_a_raising_task_reaches_the_caller_after_every_task_of_its_call(fresh_pools, monkeypatch):
    monkeypatch.setenv("VFS_THREADS", "2")
    finished = []

    def task(lo, hi):
        if lo == 0:
            raise ArithmeticError("chunk 0")
        time.sleep(0.02)
        finished.append(lo)

    with pytest.raises(ArithmeticError, match="^chunk 0$"):
        chunks.map_chunks(task, 6, 1)
    assert sorted(finished) == [1, 2, 3, 4, 5]


def test_the_first_exception_in_chunk_order_is_raised(fresh_pools, monkeypatch):
    monkeypatch.setenv("VFS_THREADS", "2")

    def task(lo, hi):
        if lo == 1:
            time.sleep(0.02)
        if lo in (1, 2):
            raise ValueError(f"chunk {lo}")

    with pytest.raises(ValueError, match="^chunk 1$"):
        chunks.map_chunks(task, 4, 1)


# the child of a fork has none of the parent's worker threads: a pool it inherited would never run its tasks
_FORKED = """
import os, time
from vsheet import chunks

chunks.map_chunks(lambda lo, hi: hi - lo, 8, 1)
pid = os.fork()
if pid == 0:
    os._exit(0 if chunks.map_chunks(lambda lo, hi: hi - lo, 8, 1) == [1] * 8 else 1)
for _ in range(200):
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        print(os.waitstatus_to_exitcode(status))
        break
    time.sleep(0.05)
else:
    os.kill(pid, 9)
    os.waitpid(pid, 0)
    print("hung")
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_makes_its_own_pool():
    assert _child(_FORKED) == "0\n"
