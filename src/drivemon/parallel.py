"""One contiguous block of rows per CPU: the first in this process, each later one
in a forked child that writes its results where this process can read them.

`write_stream`, `read_table` and `feature_matrix` share this helper. A child
runs only the caller's per-block function, calls no BLAS and ends with
`os._exit`, so it never returns into the caller or flushes the parent's buffers.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
from typing import Callable

import numpy as np

from .errors import DataError

#: Fewest frames (or table rows) a forked process is handed. Forking and joining a
#: child costs a detect-sized process 2-4 ms, and 2 048 frames take about 10 ms to
#: parse, 25 ms to format and 4 ms to featurize, so even the smallest split gains.
FORK_MIN_ROWS = 2048

# a child's exit status: its block is done, it raised DataError, anything else
_DONE, _FAILED, _BAD_DATA = 0, 1, 2


def block_bounds(n: int, frames: int | None = None, step: int = 1) -> list[int]:
    """Bounds of contiguous blocks over n items, one per process (`_process_count` of
    `frames`, n by default), each cut at a multiple of step; no block is empty."""
    k = _process_count(n if frames is None else frames)
    return sorted({n * i // k // step * step for i in range(k)} | {n})


def _process_count(n_frames: int) -> int:
    """Processes to split n_frames over: one per CPU this process may run on, each
    with at least FORK_MIN_ROWS frames; one without fork or affinity."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_frames // FORK_MIN_ROWS))


def shared_empty(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialized float64 array in anonymous shared memory, so rows a forked
    child writes into it are seen by this process; freed when the array is."""
    size = math.prod(shape) * 8
    if size == 0:
        return np.empty(shape)
    return np.frombuffer(mmap.mmap(-1, size), dtype=np.float64).reshape(shape)


def run_blocks(bounds: list[int], work: Callable[[int, int], None], name: str,
               joined: Callable[[int, int], None] = lambda lo, hi: None) -> None:
    """Run work(lo, hi) on every block [bounds[i], bounds[i + 1]).

    Forks one child per block after the first, runs the first block here, then
    waits for the children in row order and calls joined(lo, hi) after each one
    that finished. A child's DataError comes back as a DataError, any other
    failure as an OSError, each naming `name` and the child's rows. Whatever
    stops this process, Ctrl-C included, kills and reaps every child still
    running, so none outlives the call.
    """
    blocks = list(zip(bounds[:-1], bounds[1:]))
    pids = []
    reaped = 0
    try:
        for lo, hi in blocks[1:]:
            pids.append(_fork(work, lo, hi))
        if blocks:
            work(*blocks[0])
        for pid, (lo, hi) in zip(pids, blocks[1:]):
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped += 1
            if status == _BAD_DATA:
                raise DataError(f"{name} {lo}-{hi - 1} found a bad row")
            if status != _DONE:
                raise OSError(f"{name} {lo}-{hi - 1} exited with status {status}")
            joined(lo, hi)
    finally:
        for pid in pids[reaped:]:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork(work: Callable[[int, int], None], lo: int, hi: int) -> int:
    """Fork a child that runs work(lo, hi) and exits with its status; returns its pid."""
    pid = os.fork()
    if pid:
        return pid
    code = _FAILED
    try:
        work(lo, hi)
        code = _DONE
    except DataError:
        code = _BAD_DATA
    finally:
        os._exit(code)
