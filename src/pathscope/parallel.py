"""Order-preserving parallel map over forked processes.

`pmap` cuts its items into contiguous shares, one per process. It forks one
child per share but the first; the caller maps share 0 itself while the
children work, then reads each child's pickled results from its own pipe, in
share order. Results therefore come back in input order, so any reduction
over them is identical whatever the worker count — reports produced with
workers=1 and workers=N are byte-for-byte the same.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import sys
import traceback


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pmap(fn, items, workers: int = 1) -> list:
    """Map `fn` over `items`, in order, on min(`workers`, len(items), usable
    CPUs) processes: the caller and one forked child per further share.

    A child's results, or the exception that ended its share, must be
    picklable; `fn` and the items need not be, since children are forked.
    An exception in any share is re-raised in the caller, after every child
    is reaped. Platforms without `os.fork` map serially.
    """
    items = list(items)
    w = min(workers, len(items), _usable_cpus())
    if w <= 1 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    cuts = [len(items) * i // w for i in range(w + 1)]
    _flush_std_streams()  # else each child inherits, and may repeat, unflushed output
    children = []  # (pid, read end of its pipe), in share order, until reaped
    try:
        for s in range(1, w):
            children.append(_fork_share(fn, items[cuts[s]:cuts[s + 1]], children))
        results = [fn(item) for item in items[:cuts[1]]]
        for s in range(1, w):
            pid, fd = children[0]
            with open(fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            os.close(fd)
            results.extend(_unpack(data, s, pid, status))
        return results
    finally:
        for pid, _ in children:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        for pid, fd in children:
            os.close(fd)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


def _fork_share(fn, share: list, siblings: list) -> tuple[int, int]:
    """Fork a child that maps `share` and sends the outcome down a new pipe;
    return (its pid, the pipe's read end). The child never returns."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            for _, fd in siblings:
                os.close(fd)
            with open(write_fd, "wb") as pipe:
                pipe.write(_pack(fn, share))
            _flush_std_streams()
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _pack(fn, share: list) -> bytes:
    """Pickle `(results, None)`, or `(exception, its traceback text)` if a
    call raised. An exception, or a pickling error, that would not survive
    the trip is sent as a RuntimeError carrying its repr."""
    try:
        payload = ([fn(item) for item in share], None)
    except BaseException as exc:
        payload = (exc, traceback.format_exc())
    try:
        data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        if payload[1] is not None:
            pickle.loads(data)  # an exception's constructor may refuse its own args
        return data
    except Exception as exc:
        if payload[1] is None:  # the results would not pickle
            payload = (exc, traceback.format_exc())
        return pickle.dumps((RuntimeError(repr(payload[0])), payload[1]),
                            pickle.HIGHEST_PROTOCOL)


def _unpack(data: bytes, share: int, pid: int, status: int) -> list:
    """A child's results; re-raise its exception, or raise if it sent nothing whole."""
    try:
        value, tb = pickle.loads(data)
    except Exception as exc:
        raise RuntimeError(
            f"pmap: the process for share {share} (pid {pid}) ended without sending its "
            f"results (wait status {status}, exit code {os.waitstatus_to_exitcode(status)})"
        ) from exc
    if tb is not None:
        raise value from RuntimeError(f"raised in the process for share {share}:\n{tb}")
    return value


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
