"""Rarity of journal pairings in reference lists, against a shuffled null.

The null model randomizes the paper-level citation network with
double-edge swaps stratified on (citing year, cited year), so every
paper keeps its exact reference count, its exact received-citation
count, and the year at both ends of every edge. The swaps are proposed
in rounds of disjoint edge pairs, one random pairing of every stratum
per round, and a round applies all of its proposals that keep the
edges simple at once (parallel edge switching). Pair frequencies from
an ensemble of such shuffles give the expectation and spread against
which the observed pairing frequency is standardized:

    z = (observed - ensemble mean) / ensemble std

Pairs whose ensemble spread is zero stay undefined and are only counted;
an infinite z would otherwise dominate the per-paper percentiles.

The whole stage runs on the corpus's integer ``CitationGraph``: a
journal pair is the key ``lo * J + hi`` over journal codes (``lo <= hi``,
``J`` journals), and pair counts, z-scores and per-paper percentiles are
array operations over those keys. Each replicate is seeded by (seed,
replicate index), and the replicates run one after another, in index
order, in the calling process.
"""

from __future__ import annotations

import logging
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


def _year_strata(graph: CitationGraph):
    """The edges grouped by (citing year, cited year), in sorted year order.

    Returns the stable order that groups them and, per stratum, its first
    position in that order and its size. Strata of fewer than two edges
    are logged: no swap can touch them.
    """
    year_s, year_t = graph.year_of[graph.src], graph.year_of[graph.dst]
    order = np.lexsort((year_t, year_s))
    year_s, year_t = year_s[order], year_t[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (year_s[1:] != year_s[:-1]) | (year_t[1:] != year_t[:-1])
    start = np.flatnonzero(first)
    size = np.diff(np.append(start, len(order)))
    for lo, m in zip(start[size < 2].tolist(), size[size < 2].tolist()):
        logger.info("year stratum %s has %d edge(s); left untouched",
                    (int(year_s[lo]), int(year_t[lo])), m)
    return order, start, size


def shuffle_edges(graph: CitationGraph, config: ShuffleConfig,
                  replicate_index: int) -> tuple[np.ndarray, np.ndarray]:
    """One degree- and time-preserving randomization of the citation edges.

    Edges are grouped by (citing year, cited year); within each stratum
    target endpoints are exchanged by double-edge swaps, proposed in
    rounds. Each round draws one uniform per edge and orders the edges
    by stratum plus that draw, so every stratum is permuted in place;
    the edges at positions 2i and 2i + 1 of a stratum make one proposal.
    A stratum of m edges makes ``round(swaps_per_edge * m)`` proposals,
    ``m // 2`` a round, and its last round takes only the first pairs
    its count has left. A proposal is rejected when t1 == t2, when it
    would make a self-citation or an edge present before the round, or
    when another proposal of the round would make the same edge; the
    others are all applied. So no round adds a duplicate or self edge,
    and every paper keeps its reference and citation counts and every
    edge the years at both ends. Strata with fewer than two edges are
    left untouched. Returns (src, dst) node arrays, stratum by stratum in
    sorted year order and in graph edge order within one. The result is
    reproducible from (config.seed, replicate_index) alone.
    """
    rng = np.random.default_rng([config.seed, replicate_index])
    n = graph.n_nodes
    order, start, size = _year_strata(graph)
    src, dst = graph.src[order], graph.dst[order]
    stratum = np.repeat(np.arange(len(size)), size)
    # twice the stratum, so that a uniform rounded up to 1.0 still sorts
    # inside its own stratum's block
    block = 2.0 * stratum
    offset = np.arange(len(src)) - start[stratum]
    # the first position of every pair a round can propose, its index i
    # among the stratum's pairs, and the stratum's pairs per round and
    # proposals in all
    lead = np.flatnonzero((offset % 2 == 0) & (offset + 1 < size[stratum]))
    index = offset[lead] // 2
    per_round = size[stratum[lead]] // 2
    budget = np.round(config.swaps_per_edge * size[stratum[lead]]
                      ).astype(np.int64)
    rounds = int(((budget + per_round - 1) // per_round).max(initial=0))
    for r in range(rounds):
        key = block + rng.random(len(src))
        perm = np.argsort(key)
        if (key[perm[1:]] == key[perm[:-1]]).any():    # ties go by position
            perm = np.argsort(key, kind="stable")
        pick = lead[index + r * per_round < budget]
        a, b = perm[pick], perm[pick + 1]
        take = _accepted(src, dst, a, b, n)
        dst[a[take]], dst[b[take]] = dst[b[take]], dst[a[take]]
    return src, dst


def _accepted(src, dst, a, b, n):
    """Which of the swaps of targets between edges a[i] and b[i] to make.

    The pairs are disjoint. Edge keys are ``s * n + t``; membership is a
    ``searchsorted`` of the sorted new keys in the sorted present ones.
    """
    s1, t1, s2, t2 = src[a], dst[a], src[b], dst[b]
    take = (t1 != t2) & (s1 != t2) & (s2 != t1)
    ok = np.flatnonzero(take)
    new = np.concatenate((s1[ok] * n + t2[ok], s2[ok] * n + t1[ok]))
    by_key = np.argsort(new)
    new, owner = new[by_key], np.tile(np.arange(len(ok)), 2)[by_key]
    # a key past every edge key, so each lookup lands inside ``present``
    present = np.append(np.sort(src * n + dst), n * n)
    fresh = np.ones(len(ok), dtype=bool)
    fresh[owner[present[np.searchsorted(present, new)] == new]] = False
    # among the proposals left, a new key made twice rejects every maker
    left = fresh[owner]
    new, owner = new[left], owner[left]
    same = new[1:] == new[:-1]
    fresh[owner[1:][same]] = False
    fresh[owner[:-1][same]] = False
    take[ok] = fresh
    return take


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


def pair_zscores(corpus: Corpus, config: ShuffleConfig,
                 ensembles=None) -> PairZScores:
    """Standardized rarity for every journal pair observed in the data.

    ``ensembles`` may inject precomputed replicate (keys, counts) (used
    by the estimator self-checks); otherwise replicates 0 to
    ``ensemble_count - 1`` are shuffled and counted, in index order.
    """
    graph = corpus.graph
    keys, o = pair_counts(graph, graph.src, graph.dst,
                          config.collapse_multiplicity)
    if ensembles is None:
        ensembles = [pair_counts(graph, *shuffle_edges(graph, config, i),
                                 config.collapse_multiplicity)
                     for i in range(config.ensemble_count)]
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
