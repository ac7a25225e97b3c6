"""Order-preserving parallel map: order, share placement, the CPU cap and the
error paths, with real forks. Every test caps pmap at 3 processes, the
caller included, by pinning the CPUs it sees."""

import os
import time

import pytest

from pathscope import parallel
from pathscope.errors import NumericalError

MAX_PROCESSES = 3


@pytest.fixture(autouse=True)
def three_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(MAX_PROCESSES)),
                        raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 7])
def test_results_in_input_order(n, workers):
    assert parallel.pmap(lambda i: i * i, range(n), workers) == [i * i for i in range(n)]
    assert_no_child_left()


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
@pytest.mark.parametrize("n", [1, 2, 5, 7])
def test_one_process_per_share_and_share_0_in_the_caller(n, workers):
    pids = parallel.pmap(lambda _: os.getpid(), range(n), workers)
    w = min(workers, n, MAX_PROCESSES)
    assert len(set(pids)) == w
    assert pids[:n // w] == [os.getpid()] * (n // w)
    assert os.getpid() not in pids[n // w:]
    assert_no_child_left()


@pytest.mark.parametrize("workers, n_items, pools", [
    (8, 2, [2]),
    (2, 5, [2]),
    (3, 3, [3]),
    (8, 1, []),
    (1, 5, []),
    (4, 0, []),
])
def test_pmap_forks_at_most_one_worker_per_item(monkeypatch, workers, n_items, pools):
    """`pools` is [processes] when the map forks, [] when it stays in the caller,
    which maps one share itself and so forks one process fewer."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()
    monkeypatch.setattr(os, "fork", counting_fork)
    assert parallel.pmap(str, range(n_items), workers) == [str(i) for i in range(n_items)]
    assert len(forks) == (pools[0] - 1 if pools else 0)
    assert_no_child_left()


def test_processes_capped_at_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked on a single usable CPU"))
    assert parallel.pmap(lambda _: os.getpid(), range(5), 64) == [os.getpid()] * 5


def test_without_fork_maps_serially(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert parallel.pmap(lambda _: os.getpid(), range(5), 3) == [os.getpid()] * 5


def _raise_at(bad):
    def fn(i):
        if i == bad:
            raise NumericalError(f"non-finite value at item {i}")
        return i
    return fn


def test_child_exception_reraised_with_type_and_message():
    # 7 items on 3 processes: shares [0, 1], [2, 3], [4, 5, 6]
    with pytest.raises(NumericalError, match="^non-finite value at item 5$") as caught:
        parallel.pmap(_raise_at(5), range(7), 3)
    assert "share 2" in str(caught.value.__cause__)
    assert 'raise NumericalError(f"non-finite value' in str(caught.value.__cause__)
    assert_no_child_left()


def test_first_failing_share_wins():
    # items 2 and 5 fail in shares 1 and 2; a serial map would raise at 2 first
    def fn(i):
        if i in (2, 5):
            raise NumericalError(f"item {i}")
        return i
    with pytest.raises(NumericalError, match="^item 2$"):
        parallel.pmap(fn, range(7), 3)
    assert_no_child_left()


class TwoArgError(Exception):
    """Pickles by reference, but unpickling calls __init__ with one arg and fails."""

    def __init__(self, a, b):
        super().__init__(a)


def test_unpicklable_exception_arrives_as_runtime_error():
    def fn(i):
        if i == 3:
            raise TwoArgError("lost", 0)
        return i
    with pytest.raises(RuntimeError, match=r"^TwoArgError\('lost'\)$"):
        parallel.pmap(fn, range(4), 2)
    assert_no_child_left()


def test_unpicklable_result_arrives_as_runtime_error():
    with pytest.raises(RuntimeError, match="pickle"):
        parallel.pmap(lambda i: lambda: i, range(4), 2)
    assert_no_child_left()


def test_child_exit_without_result_names_its_status():
    caller = os.getpid()

    def fn(i):
        if os.getpid() != caller and i == 3:
            os._exit(3)
        return i
    with pytest.raises(RuntimeError, match=r"share 1 .*wait status 768, exit code 3"):
        parallel.pmap(fn, range(4), 2)
    assert_no_child_left()


def test_caller_share_exception_kills_and_reaps_children():
    caller = os.getpid()

    def fn(i):
        if os.getpid() == caller:
            raise NumericalError("caller share")
        time.sleep(60)
        return i
    start = time.monotonic()
    with pytest.raises(NumericalError, match="caller share"):
        parallel.pmap(fn, range(6), 3)
    assert time.monotonic() - start < 30, "pmap waited for its children instead of killing them"
    assert_no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd to count")
def test_no_pipe_left_open():
    before = len(os.listdir("/proc/self/fd"))
    parallel.pmap(lambda i: i, range(6), 3)
    with pytest.raises(NumericalError):
        parallel.pmap(_raise_at(0), range(6), 3)
    with pytest.raises(NumericalError):
        parallel.pmap(_raise_at(5), range(6), 3)
    assert len(os.listdir("/proc/self/fd")) == before
