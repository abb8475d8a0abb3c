"""Small shared helpers: atomic, deterministic CSV output."""

from __future__ import annotations

import csv
import os
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
