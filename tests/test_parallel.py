"""Order-preserving parallel map: pool sizing, checked without starting processes."""

import pytest

from pathscope import parallel


class _SerialPool:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return [fn(item) for item in items]


class _RecordingContext:
    """Stands in for a multiprocessing context; records each pool's size."""

    def __init__(self):
        self.processes = []

    def Pool(self, processes):
        self.processes.append(processes)
        return _SerialPool()


@pytest.mark.parametrize("workers, n_items, pools", [
    (8, 2, [2]),
    (2, 5, [2]),
    (3, 3, [3]),
    (8, 1, []),
    (1, 5, []),
    (4, 0, []),
])
def test_pmap_forks_at_most_one_worker_per_item(monkeypatch, workers, n_items, pools):
    ctx = _RecordingContext()
    monkeypatch.setattr(parallel.multiprocessing, "get_context", lambda *args: ctx)
    assert parallel.pmap(str, range(n_items), workers) == [str(i) for i in range(n_items)]
    assert ctx.processes == pools
