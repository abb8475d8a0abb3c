"""Small shared helpers: atomic deterministic output and worker pools."""

from __future__ import annotations

import csv
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path


def parallel_map(fn, items, threads=1):
    """Map ``fn`` over ``items`` preserving input order.

    With ``threads > 1`` work runs on a thread pool; results come back in
    input order either way, so reductions stay deterministic regardless
    of the worker count.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def fmt_cell(value):
    """CSV cell formatting: None becomes an empty cell, never 0."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


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
    """Write rows (already deterministically ordered) with ``\\n`` endings."""
    with atomic_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt_cell(v) for v in row])
