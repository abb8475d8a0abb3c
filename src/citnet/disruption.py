"""Disruptiveness of individual papers and grouped averages.

For a focal paper x with citers and references drawn from the corpus:

    n_i  citers of x citing none of x's references
    n_j  citers of x citing at least one of x's references
    n_k  papers citing at least one reference of x but not x

    D = (n_i - n_j) / (n_i + n_j + n_k)   in [-1, 1]

D = 1 means the follow-up literature ignores x's sources entirely;
D = -1 means it always carries them along. The focal paper itself never
counts as a citer of its own references. A zero denominator (never
cited, references never cited) leaves D undefined; such papers are
excluded from every group mean and counted instead.

``disruption_table`` gives the tallies of many focal papers in one pass,
and ``group_means`` averages their D by any property of the paper.

Method: one kernel counts every focal paper of a call on
``Corpus.graph``. The distinct citations are sorted keys ``s * N + t``,
so a repeated reference counts once, and their transpose, the sorted
``cited * N + citer`` keys, is the CSR of citers. For each citation
x -> r and each citer c of r other than x, the two-hop key ``x * N + c``
names a paper citing one of x's references; x has n_j + n_k distinct
such keys. Looking x's own ``x * N + citer`` keys up among them with
one ``searchsorted`` finds n_j; then n_k = |keys of x| - n_j and
n_i = in-degree(x) - n_j. A year window restricts the citers c, of x
and of its references alike, never x's references.

Focal papers go through in batches of whole papers whose two-hop pairs,
the sum of indeg(r) over their references, stay within ``PAIR_BUDGET``;
a paper over the budget forms a batch alone. Memory so stays bounded
when a few references are cited by thousands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .corpus import CitationGraph, Corpus, csr_expand, csr_pointer, distinct

__all__ = [
    "DisruptionCounts",
    "disruption_table",
    "group_means",
]

PAIR_BUDGET = 1 << 14          # two-hop pairs expanded per batch


@dataclass(frozen=True)
class DisruptionCounts:
    paper_id: str
    n_i: int
    n_j: int
    n_k: int

    @property
    def value(self) -> Optional[float]:
        total = self.n_i + self.n_j + self.n_k
        if total == 0:
            return None
        return (self.n_i - self.n_j) / total


def _counts(graph: CitationGraph, focal: np.ndarray, window):
    """n_i, n_j and n_k of the ascending focal nodes, as int64 arrays."""
    n = graph.n_nodes
    citing, cited = np.divmod(distinct(graph.src * n + graph.dst), n)
    if window is not None:
        year = graph.year_of[citing]
        keep = (window[0] <= year) & (year <= window[1])
        back = np.sort(cited[keep] * n + citing[keep])
    else:
        back = np.sort(cited * n + citing)
    citer_ptr = csr_pointer(back // n, n)
    citer = back % n
    ref_ptr = csr_pointer(citing, n)

    pairs_before = np.concatenate(([0], np.cumsum(np.diff(citer_ptr)[cited])))
    work = np.cumsum(pairs_before[ref_ptr[focal + 1]]
                     - pairs_before[ref_ptr[focal]])
    n_pairs = np.empty(len(focal), dtype=np.int64)
    n_j = np.empty(len(focal), dtype=np.int64)
    lo = 0
    while lo < len(focal):
        done = work[lo - 1] if lo else 0
        hi = max(int(np.searchsorted(work, done + PAIR_BUDGET, side="right")),
                 lo + 1)
        batch = focal[lo:hi]
        which, edge = csr_expand(batch, ref_ptr)
        pick, pos = csr_expand(cited[edge], citer_ptr)
        x, c = batch[which[pick]], citer[pos]
        other = c != x
        # a key past every pair key, so each lookup lands inside ``keys``
        keys = np.append(distinct(x[other] * n + c[other]), n * n)
        n_pairs[lo:hi] = (np.searchsorted(keys, (batch + 1) * n)
                          - np.searchsorted(keys, batch * n))
        # the batch's own (x, citer) keys, looked up among its pair keys
        which, pos = csr_expand(batch, citer_ptr)
        found = keys[np.searchsorted(keys, back[pos])] == back[pos]
        n_j[lo:hi] = np.bincount(which[found], minlength=len(batch))
        lo = hi
    indeg = citer_ptr[focal + 1] - citer_ptr[focal]
    return indeg - n_j, n_j, n_pairs - n_j


def disruption_table(corpus: Corpus, paper_ids: Iterable[str],
                     window=None) -> list[DisruptionCounts]:
    """The citer tallies of every distinct paper in ``paper_ids``, in id
    order.

    ``window`` optionally restricts the citers by publication year
    (sensitivity runs); by default every corpus paper may count.
    """
    focal_ids = sorted(set(paper_ids))
    focal = np.array([corpus.node[pid] for pid in focal_ids], dtype=np.int64)
    n_i, n_j, n_k = _counts(corpus.graph, focal, window)
    return [DisruptionCounts(pid, i, j, k) for pid, i, j, k in
            zip(focal_ids, n_i.tolist(), n_j.tolist(), n_k.tolist())]


def group_means(corpus: Corpus, counts: Iterable[DisruptionCounts], key):
    """Mean D per ``key(paper)``, summed in the order of ``counts``: per
    team size with ``lambda p: len(p.author_keys)``, per year with
    ``lambda p: p.year``, per journal with ``lambda p: p.journal_id``.

    Returns (means, undefined_count); papers with undefined D are left
    out, and buckets holding only such papers are absent.
    """
    sums: dict = {}
    sizes: dict = {}
    skipped = 0
    for c in counts:
        d = c.value
        if d is None:
            skipped += 1
            continue
        k = key(corpus.papers[c.paper_id])
        sums[k] = sums.get(k, 0.0) + d
        sizes[k] = sizes.get(k, 0) + 1
    return {k: sums[k] / sizes[k] for k in sorted(sums)}, skipped
