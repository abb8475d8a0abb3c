"""Small shared helpers: atomic, deterministic CSV output and the one
forked-worker map that pipeline stages and synth ensembles run on."""

from __future__ import annotations

import csv
import gc
import os
import threading
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path):
    """Text handle on a temporary file beside ``path``.

    Renamed into place once written, removed if writing raises.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, header, rows):
    """Write rows (already deterministically ordered) with ``\\n`` endings.

    A cell is empty for None (never 0), the repr of a float and the str
    of anything else. ``csv.writer`` writes None and str() the same way,
    and a Python float's str is its repr, so only a column holding a
    float subclass whose str may differ, such as numpy.float64, is
    converted first. Rows must all have one length.
    """
    columns = list(zip(*rows, strict=True))
    for i, column in enumerate(columns):
        if any(issubclass(kind, float) for kind in set(map(type, column))
               - {float}):
            columns[i] = [repr(v) if isinstance(v, float) else v
                          for v in column]
    with atomic_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*columns))


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_forked = None      # (fn, items), set only in a forked worker


def _init_forked(fn, items):
    global _forked
    _forked = fn, items


def _call_forked(index):
    fn, items = _forked
    return fn(items[index])


def fork_map(fn, items, workers, lost=None):
    """``[fn(item) for item in items]``, in forked workers where it can.

    Two or more items with ``workers > 1`` run in a pool of
    ``min(workers, len(items))`` forked processes, which is shut down
    before this returns. Workers inherit ``fn`` and ``items`` from this
    process rather than unpickling them, so ``fn`` may close over any
    state; only results are pickled. Collections are frozen meanwhile so
    that a worker's garbage collector does not copy every inherited
    page. Without ``fork``, or in a process running other threads (a
    lock one of them holds would stay held in the child), the items run
    here. Results come in ``items`` order at any worker count.

    An exception ``fn`` raises is raised here. When a worker dies, each
    item still without a result gets ``lost(item, error)``, or, without
    ``lost``, the error is raised.
    """
    import multiprocessing      # here, so that importing citnet stays cheap

    items = list(items)
    workers = min(workers, len(items))
    if (workers < 2 or threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()):
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    results = []
    gc.freeze()
    try:
        with ProcessPoolExecutor(workers,
                                 mp_context=multiprocessing.get_context("fork"),
                                 initializer=_init_forked,
                                 initargs=(fn, items)) as pool:
            futures = [pool.submit(_call_forked, i) for i in range(len(items))]
            for item, future in zip(items, futures):
                try:
                    results.append(future.result())
                except BrokenProcessPool as exc:
                    if lost is None:
                        raise
                    results.append(lost(item, exc))
    finally:
        gc.unfreeze()
    return results
