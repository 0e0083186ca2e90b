"""Small shared helpers: RNG coercion, and the program's one worker pool,
which runs the Scheffe tournament's, the gd encoder's and the harness
trials' independent units."""

from __future__ import annotations

import atexit
import os

import numpy as np

from .errors import ValidationError, WorkerPoolError


def as_generator(seed) -> np.random.Generator:
    """Coerce ``seed`` into a ``numpy.random.Generator``.

    Parameters
    ----------
    seed : int or numpy.random.Generator
        A non-negative integer seed (a Python or numpy integer), or an
        existing generator (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(
            "seed must be a non-negative int or a numpy Generator")
    return np.random.default_rng(int(seed))


# blocks per worker process when a caller splits its work by count, so
# uneven blocks even out
POOL_BLOCKS_PER_WORKER = 4

# the ProcessPoolExecutor, once created; multiprocessing and
# concurrent.futures load with it, not when the package is imported
_POOL = None


def _forget_pool() -> None:
    global _POOL
    _POOL = None


# a forked child must not submit to its parent's workers
os.register_at_fork(after_in_child=_forget_pool)
# the pool is collected at exit before modules are torn down:
# concurrent.futures loads after this module, so it is torn down first
atexit.register(_forget_pool)


def _worker_pool():
    """``(pool, workers)``; the pool is ``None`` where units run in-process.

    The pool is created at the first call that can use one: a ``fork``
    pool with one worker per CPU this process may run on (``taskset``
    limits that).  Work stays in-process on one CPU, without ``fork``,
    and inside a child process (for example a pool worker running a
    harness trial), which would otherwise fork again.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    global _POOL
    workers = len(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else 1
    if workers < 2 or multiprocessing.parent_process() is not None \
            or "fork" not in multiprocessing.get_all_start_methods():
        return None, 1
    if _POOL is None:
        _POOL = ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"))
    return _POOL, workers


def _blocks(n: int, parts: int) -> list:
    """At most ``parts`` contiguous, nonempty ``(start, stop)`` blocks of
    ``range(n)``, split evenly."""
    bounds = [n * k // parts for k in range(parts + 1)]
    return [(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]


def _run_units(units: list) -> list:
    """``[fn(*args) for fn, *args in units]``, on the worker pool when
    there is one and more than one unit (so one unit never forks a pool).
    Each ``fn`` is a module-level function, so it pickles by reference.
    A dead worker raises :class:`WorkerPoolError`, and the next call
    starts a new pool."""
    pool = _worker_pool()[0] if len(units) > 1 else None
    if pool is None:
        return [fn(*args) for fn, *args in units]
    from concurrent.futures.process import BrokenProcessPool

    futures = []
    try:
        futures = [pool.submit(*unit) for unit in units]
        return [f.result() for f in futures]
    except BrokenProcessPool as exc:
        if _POOL is pool:
            _forget_pool()
        pool.shutdown(wait=False, cancel_futures=True)
        raise WorkerPoolError(
            f"a worker process died ({exc}); the next call starts a new "
            "pool") from exc
    finally:
        for f in futures:
            f.cancel()
