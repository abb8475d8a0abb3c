"""Rarity of journal pairings in reference lists, against a shuffled null.

The null model randomizes the paper-level citation network with
double-edge swaps stratified on (citing year, cited year), so every
paper keeps its exact reference count, its exact received-citation
count, and the year at both ends of every edge. Pair frequencies from an
ensemble of such shuffles give the expectation and spread against which
the observed pairing frequency is standardized:

    z = (observed - ensemble mean) / ensemble std

Pairs whose ensemble spread is zero stay undefined and are only counted;
an infinite z would otherwise dominate the per-paper percentiles.

The whole stage runs on the corpus's integer ``CitationGraph``: a
journal pair is the key ``lo * J + hi`` over journal codes (``lo <= hi``,
``J`` journals), and pair counts, z-scores and per-paper percentiles are
array operations over those keys. With ``threads > 1`` the replicates
run in forked worker processes where the platform supports ``fork``;
each replicate is seeded by (seed, replicate index) and the parent
reduces them in index order, so the worker count never changes a result.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .corpus import CitationGraph, Corpus, distinct, row_pairs

logger = logging.getLogger(__name__)

__all__ = [
    "ShuffleConfig",
    "PairStatistics",
    "PairZScores",
    "PaperNovelty",
    "shuffle_edges",
    "pair_counts",
    "pair_zscores",
    "paper_novelty",
]


@dataclass(frozen=True)
class ShuffleConfig:
    ensemble_count: int = 10
    swaps_per_edge: float = 10.0
    seed: int = 0
    # count each co-referenced journal pair once per paper instead of
    # per reference-pair instance
    collapse_multiplicity: bool = False

    def __post_init__(self):
        if self.ensemble_count < 1:
            raise ValueError("ensemble_count must be >= 1")
        if self.swaps_per_edge <= 0:
            raise ValueError("swaps_per_edge must be positive")


@dataclass(frozen=True)
class PairStatistics:
    journal_pair: tuple[str, str]       # unordered, stored sorted
    o: float
    e: float
    sigma: float
    z: Optional[float]


@dataclass(frozen=True)
class PairZScores:
    """Every observed journal pair with its count and null-model statistics.

    Row k is the pair ``divmod(keys[k], len(journal_ids))`` of journal
    codes; ``keys`` ascend, and ``z`` is NaN where ``sigma`` is 0.
    """

    journal_ids: list[str]
    keys: np.ndarray
    o: np.ndarray
    e: np.ndarray
    sigma: np.ndarray
    z: np.ndarray

    def stats(self) -> dict[tuple[str, str], PairStatistics]:
        """The table as PairStatistics per pair of journal ids."""
        ids, n = self.journal_ids, len(self.journal_ids)
        out = {}
        for key, o, e, sigma, z in zip(self.keys.tolist(), self.o.tolist(),
                                       self.e.tolist(), self.sigma.tolist(),
                                       self.z.tolist()):
            pair = (ids[key // n], ids[key % n])
            out[pair] = PairStatistics(pair, o, e, sigma,
                                       None if z != z else z)
        return out


@dataclass(frozen=True)
class PaperNovelty:
    paper_id: str
    median_z: Optional[float]
    p10_z: Optional[float]
    defined_pair_count: int = 0
    undefined_pair_count: int = 0


def shuffle_edges(graph: CitationGraph, config: ShuffleConfig,
                  replicate_index: int) -> tuple[np.ndarray, np.ndarray]:
    """One degree- and time-preserving randomization of the citation edges.

    Edges are grouped by (citing year, cited year); within each stratum
    target endpoints are exchanged by repeated double-edge swaps that
    reject self-citations and duplicate edges. Strata with fewer than two
    edges are left untouched. Returns (src, dst) node arrays, stratum by
    stratum in sorted year order and in graph edge order within one. The
    result is reproducible from (config.seed, replicate_index) alone.
    """
    rng = np.random.default_rng([config.seed, replicate_index])
    n = graph.n_nodes
    year_s, year_t = graph.year_of[graph.src], graph.year_of[graph.dst]
    order = np.lexsort((year_t, year_s))
    src, dst = graph.src[order], graph.dst[order]
    year_s, year_t = year_s[order], year_t[order]
    cuts = np.flatnonzero((np.diff(year_s) != 0) | (np.diff(year_t) != 0)) + 1
    bounds = [0, *cuts.tolist(), len(src)] if len(src) else []
    for lo, hi in zip(bounds, bounds[1:]):
        m = hi - lo
        if m < 2:
            logger.info("year stratum %s has %d edge(s); left untouched",
                        (int(year_s[lo]), int(year_t[lo])), m)
            continue
        s, t = src[lo:hi].tolist(), dst[lo:hi].tolist()
        present = {a * n + b for a, b in zip(s, t)}
        attempts = int(round(config.swaps_per_edge * m))
        for a, b in rng.integers(0, m, size=(attempts, 2)).tolist():
            if a == b:
                continue
            s1, t1, s2, t2 = s[a], t[a], s[b], t[b]
            if t1 == t2 or s1 == t2 or s2 == t1:
                continue
            k12, k21 = s1 * n + t2, s2 * n + t1
            if k12 in present or k21 in present:
                continue
            present.discard(s1 * n + t1)
            present.discard(s2 * n + t2)
            present.add(k12)
            present.add(k21)
            t[a], t[b] = t2, t1
        dst[lo:hi] = t
    return src, dst


def _reference_pairs(graph: CitationGraph, src, dst, collapse):
    """(citing node, pair key) for every pair of references in a row.

    References to an unregistered journal take no part. Without
    ``collapse`` a journal cited m times pairs with itself C(m, 2) times
    and with one cited k times m*k times; with it each (node, key) comes
    once. Nodes ascend.
    """
    n_j = len(graph.journal_ids)
    code = graph.journal_of[dst]
    keep = code >= 0
    node, code = np.divmod(np.sort(src[keep] * n_j + code[keep]), n_j)
    first, second = row_pairs(node)
    nodes, keys = node[first], code[first] * n_j + code[second]
    if collapse:
        nodes, keys = np.divmod(distinct(nodes * n_j * n_j + keys), n_j * n_j)
    return nodes, keys


def pair_counts(graph: CitationGraph, src, dst, collapse=False):
    """Journal-pair co-reference counts over the edges (src[e], dst[e]).

    Returns the ascending pair keys and their counts as int64 arrays.
    """
    _nodes, keys = _reference_pairs(graph, src, dst, collapse)
    return np.unique(keys, return_counts=True)


def _replicate_counts(graph, config, replicate_index):
    src, dst = shuffle_edges(graph, config, replicate_index)
    return pair_counts(graph, src, dst, config.collapse_multiplicity)


_worker_args = None       # (graph, config), set only in a forked worker


def _init_worker(graph, config):
    global _worker_args
    _worker_args = (graph, config)


def _worker_replicate(replicate_index):
    return _replicate_counts(*_worker_args, replicate_index)


def _ensemble_pair_counts(graph: CitationGraph, config: ShuffleConfig,
                          threads: int = 1):
    """(keys, counts) of every replicate of the shuffled ensemble, in order.

    With ``threads > 1`` and ``fork`` available, replicates run in a pool
    of ``min(threads, ensemble_count)`` forked worker processes, which is
    shut down before this returns. Forked workers share the graph with
    the parent instead of importing the package and unpickling it; a
    process running other threads is not forked (a lock one of them
    holds would stay held in the child) and runs the replicates itself.
    """
    import multiprocessing      # here, so that importing citnet stays cheap

    indices = range(config.ensemble_count)
    workers = min(threads, config.ensemble_count)
    if (workers <= 1 or threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()):
        return [_replicate_counts(graph, config, i) for i in indices]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(workers, _init_worker, (graph, config)) as pool:
        counts = pool.map(_worker_replicate, indices, chunksize=1)
        pool.close()
        pool.join()
    return counts


def pair_zscores(corpus: Corpus, config: ShuffleConfig,
                 ensembles=None, threads: int = 1) -> PairZScores:
    """Standardized rarity for every journal pair observed in the data.

    ``ensembles`` may inject precomputed replicate (keys, counts) (used
    by the estimator self-checks); otherwise the ensemble is generated.
    """
    graph = corpus.graph
    keys, o = pair_counts(graph, graph.src, graph.dst,
                          config.collapse_multiplicity)
    if ensembles is None:
        ensembles = _ensemble_pair_counts(graph, config, threads=threads)
    # pairs x replicates, C order: each pair's mean and std reduce along
    # the contiguous axis, as a 1-D array of its samples would
    samples = np.zeros((len(keys), len(ensembles)))
    for r, (rkeys, rcounts) in enumerate(ensembles):
        hit = np.isin(rkeys, keys, assume_unique=True)
        samples[np.searchsorted(keys, rkeys[hit]), r] = rcounts[hit]
    e = samples.mean(axis=1)
    sigma = samples.std(axis=1)
    z = np.full(len(keys), np.nan)
    ok = sigma > 0
    z[ok] = (o[ok] - e[ok]) / sigma[ok]
    return PairZScores(graph.journal_ids, keys, o, e, sigma, z)


def _percentiles(values, start, count, q):
    """``np.percentile(values[start:start + count], q)`` for every row.

    Rows hold sorted values and need count >= 1. numpy's ``linear``
    rule, operation for operation: virtual index (n - 1) * (q / 100); an
    index at or past the last position reads the last value with weight
    virtual index + 1; the interpolation switches to ``b - d * (1 - t)``
    from t >= 0.5.
    """
    virtual = (count - 1) * (q / 100)
    above = virtual >= count - 1
    lower = np.where(above, -1, np.floor(virtual)).astype(np.intp)
    t = virtual - lower
    a = values[start + np.where(above, count - 1, lower)]
    b = values[start + np.where(above, count - 1, lower + 1)]
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


def paper_novelty(corpus: Corpus, zscores: PairZScores,
                  collapse: bool = False) -> list[PaperNovelty]:
    """Median and 10th-percentile z over each paper's reference pairs.

    One entry per paper with at least two resolved references, in
    paper-id order. Percentiles use linear interpolation. Pairs with
    undefined z (or missing from ``zscores``) are excluded from the
    percentiles and reported in the count; a paper with no defined pair
    comes back undefined.
    """
    graph = corpus.graph
    n = graph.n_nodes
    nodes, keys = _reference_pairs(graph, graph.src, graph.dst, collapse)
    z = np.full(len(keys), np.nan)
    hit = np.isin(keys, zscores.keys)
    z[hit] = zscores.z[np.searchsorted(zscores.keys, keys[hit])]
    defined = ~np.isnan(z)
    undefined = np.bincount(nodes[~defined], minlength=n)
    order = np.lexsort((z[defined], nodes[defined]))
    values = z[defined][order]
    count = np.bincount(nodes[defined], minlength=n)
    start = np.cumsum(count) - count
    has = count > 0
    median = np.full(n, np.nan)
    p10 = np.full(n, np.nan)
    median[has] = _percentiles(values, start[has], count[has], 50)
    p10[has] = _percentiles(values, start[has], count[has], 10)

    ids = corpus.ids
    rows = np.flatnonzero(np.bincount(graph.src, minlength=n) >= 2)
    return [PaperNovelty(ids[v], m if c else None, p if c else None, c, u)
            for v, m, p, c, u in zip(rows.tolist(), median[rows].tolist(),
                                     p10[rows].tolist(), count[rows].tolist(),
                                     undefined[rows].tolist())]
