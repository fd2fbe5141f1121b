"""One contiguous block of rows per CPU: the first in this process, each later one
in a forked child that writes its results where this process can read them.

`write_stream` and `featurize_csv` share this helper. A child runs only the
caller's per-block phases, calls no BLAS and ends with `os._exit`, so it never
returns into the caller or flushes the parent's buffers. Between the fork and
the wait this process runs only its own block: whatever a caller must check
that needs no block, it checks before the round.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
from typing import Callable, Sequence

import numpy as np

from .errors import DataError

#: Fewest frames a forked process is handed. Forking and joining a child costs a
#: detect-sized process 2-4 ms, and 1 024 frames take about 5 ms to parse, 2 ms to
#: featurize and 13 ms to format; one fork round pays for both the parse and the
#: featurize. On 2 CPUs, a pass of bench detect's 40 drives through featurize_csv
#: took 1.17 s at 2 048 and 1.08 s at 1 024, where every drive of at least 2 048
#: frames splits; 512, which splits all 40, gained another 1 %.
FORK_MIN_ROWS = 1024

# a child's exit status: its block is done, it raised DataError, anything else
_DONE, _FAILED, _BAD_DATA = 0, 1, 2

#: One step of every process's work: (name, work). work(lo, hi) runs on the block;
#: name(lo, hi) names it in an error, e.g. "reader of rows 0-1023".
Phase = tuple[Callable[[int, int], str], Callable[[int, int], None]]


def named(what: str) -> Callable[[int, int], str]:
    """A phase name that gives a block's items as they are: "reader of rows 0-1023"."""
    return lambda lo, hi: f"{what} {lo}-{hi - 1}"


class BlockError(OSError):
    """A process of run_blocks failed in phases[phase] for a reason other than bad data."""

    def __init__(self, message: str, phase: int):
        super().__init__(message)
        self.phase = phase


def block_bounds(n: int, frames: int | None = None, step: int = 1) -> list[int]:
    """Bounds of contiguous blocks over n items, one per process (`_process_count` of
    `frames`, n by default), each cut at the multiple of step nearest to an even
    share, so that no process waits long on another; no block is empty."""
    k = _process_count(n if frames is None else frames)
    return sorted({min(n, (2 * n * i + k * step) // (2 * k * step) * step)
                   for i in range(k)} | {n})


def _process_count(n_frames: int) -> int:
    """Processes to split n_frames over: one per CPU this process may run on, each
    with at least FORK_MIN_ROWS frames; one without fork or affinity."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_frames // FORK_MIN_ROWS))


def shared_empty(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialized float64 array in anonymous shared memory, so rows a forked
    child writes into it are seen by this process; freed when the array is."""
    return np.frombuffer(mmap.mmap(-1, math.prod(shape) * 8), dtype=np.float64).reshape(shape)


def block_empty(shape: tuple[int, ...], bounds: list[int]) -> np.ndarray:
    """An uninitialized float64 array that the blocks of bounds fill: shared when
    there is more than one block, else a plain array of this process."""
    return shared_empty(shape) if len(bounds) > 2 else np.empty(shape)


def run_blocks(bounds: list[int], phases: Sequence[Phase]) -> None:
    """Run every phase, in order, on each of one or more blocks [bounds[i], bounds[i + 1]).

    Forks one child per block after the first, runs the first block here, then
    waits for every child in row order. Each process runs work(lo, hi) of each
    phase in turn and stops at the first that raises. The earliest phase that
    failed in any process, bad data before other failures and then the lowest
    block, raises here: bad data as a DataError, anything else as a BlockError,
    each naming the block by its phase's name. A child marks each
    phase in shared memory as it starts it, so one that dies, even by a signal,
    is named by the phase it died in. Other exceptions of this process
    (MemoryError, Ctrl-C) pass through at once. Whatever stops this process
    kills and reaps every child still running, so none outlives the call.
    """
    blocks = list(zip(bounds[:-1], bounds[1:]))
    reached = block_empty((len(blocks),), bounds)  # the phase each process is in
    failures = []  # (phase, 0 for bad data else 1, block, what)
    pids = []
    reaped = 0
    try:
        for i, (lo, hi) in enumerate(blocks[1:], 1):
            pids.append(_fork(phases, reached, i, lo, hi))
        try:
            _run_phases(phases, reached, 0, *blocks[0])
        except DataError:
            failures.append((int(reached[0]), 0, 0, "found a bad row"))
        except OSError as exc:
            failures.append((int(reached[0]), 1, 0, f"failed: {exc}"))
        for i, pid in enumerate(pids, 1):
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped += 1
            if status != _DONE:
                failures.append((int(reached[i]), int(status != _BAD_DATA), i,
                                 "found a bad row" if status == _BAD_DATA
                                 else f"exited with status {status}"))
    finally:
        for pid in pids[reaped:]:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if failures:
        phase, other, i, what = min(failures)
        message = f"{phases[phase][0](*blocks[i])} {what}"
        raise BlockError(message, phase) if other else DataError(message)


def _run_phases(phases: Sequence[Phase], reached: np.ndarray, i: int, lo: int,
                hi: int) -> None:
    """Block i's work of every phase in turn, each marked in reached[i] as it starts."""
    for phase, (_, work) in enumerate(phases):
        reached[i] = phase
        work(lo, hi)


def _fork(phases: Sequence[Phase], reached: np.ndarray, i: int, lo: int, hi: int) -> int:
    """Fork a child that runs block i's phases and exits with its status; returns its
    pid."""
    pid = os.fork()
    if pid:
        return pid
    code = _FAILED
    try:
        _run_phases(phases, reached, i, lo, hi)
        code = _DONE
    except DataError:
        code = _BAD_DATA
    finally:
        os._exit(code)
