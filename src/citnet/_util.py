"""Small shared helpers: atomic, deterministic CSV output."""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager
from pathlib import Path


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
