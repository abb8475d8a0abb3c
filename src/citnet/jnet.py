"""Yearly journal citation networks and centrality scores.

A network for target year y has the journals publishing in y as nodes.
With citation links, an edge u -> v aggregates citations from u's papers
of years (y, y+window] to v's papers of year y; with reference links it
aggregates references from u's papers of year y to v's papers of years
[y-window, y). Weights count paper-level citation instances and journal
self-loops are kept.

Path metrics (betweenness, harmonic closeness, path-core) share one BFS
over the unweighted loop-free skeleton's sorted successor and predecessor
lists; the rank score uses weights and keeps loops. Closeness is harmonic
over incoming shortest paths so that disconnected graphs stay well-defined.

The core score follows the geodesic core-periphery method: for every
edge (s, t), the shortest s -> t paths of the graph *without* that edge
are enumerated, and each interior node collects its fractional
participation; totals are rescaled by the maximum into [0, 1]. Core
nodes score high because the periphery's detours run through them. The
algorithm is isolated behind :func:`pathcore` so alternates can be
swapped without touching callers.
"""

from __future__ import annotations

import logging
import math
from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

logger = logging.getLogger(__name__)

from .corpus import Corpus
from .matching import MatchRecord

__all__ = [
    "JournalCitationNetwork",
    "CentralityVector",
    "ComparisonReport",
    "PageRankConvergenceError",
    "build_journal_network",
    "betweenness",
    "closeness",
    "pagerank",
    "pathcore",
    "centrality_comparison",
    "centrality_variants",
    "robustness_sweep",
]


@dataclass(frozen=True)
class JournalCitationNetwork:
    year: int
    window_years: int
    link_type: str                       # "citation" | "reference"
    nodes: tuple[str, ...]
    edges: dict[tuple[str, str], int] = field(default_factory=dict)

    @property
    def empty(self) -> bool:
        return not self.nodes

    def skeleton(self):
        """Sorted (successors, predecessors) lists of the loop-free skeleton."""
        succ = {u: [] for u in self.nodes}
        pred = {u: [] for u in self.nodes}
        for u, v in sorted(self.edges):
            if u != v:
                succ[u].append(v)
                pred[v].append(u)
        return succ, pred


@dataclass(frozen=True)
class CentralityVector:
    metric: str                          # "BC" | "CC" | "PR" | "PathCore"
    year: int
    window_years: int
    link_type: str
    scores: dict[str, float]


class PageRankConvergenceError(RuntimeError):
    def __init__(self, iterations, residual):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"no fixed point after {iterations} iterations "
            f"(residual {residual:.3e})")


def _window_error(corpus, year, window_years, link_type) -> Optional[str]:
    """Why the variant's year window leaves the corpus range, if it does."""
    lo, hi = corpus.year_range
    if link_type == "citation" and year + window_years > hi:
        return (f"window [{year + 1}, {year + window_years}] exceeds "
                f"corpus range end {hi}")
    if link_type == "reference" and year - window_years < lo:
        return (f"window [{year - window_years}, {year - 1}] precedes "
                f"corpus range start {lo}")
    return None


def build_journal_network(corpus: Corpus, year: int, window_years: int = 2,
                          link_type: str = "citation") -> JournalCitationNetwork:
    """Aggregate paper citations into the year's journal graph.

    Both endpoints must be node journals (publishing in the target year);
    paper pairs falling outside the year window contribute nothing.
    Returns an empty network (with no nodes) when nothing was published.
    """
    if link_type not in ("citation", "reference"):
        raise ValueError(f"unknown link type: {link_type!r}")
    error = _window_error(corpus, year, window_years, link_type)
    if error:
        raise ValueError(error)

    nodes = tuple(sorted(j for j in corpus.journals
                         if corpus.journals[j].paper_count_by_year.get(year, 0)))
    if not nodes:
        logger.warning("no journal published in %d; returning an empty "
                       "network", year)
    node_set = set(nodes)
    edges: dict[tuple[str, str], int] = {}
    for citing, cited in corpus.citation_edges():
        cy = corpus.papers[citing].year
        ty = corpus.papers[cited].year
        if link_type == "citation":
            ok = ty == year and year + 1 <= cy <= year + window_years
        else:
            ok = cy == year and year - window_years <= ty <= year - 1
        if not ok:
            continue
        src = corpus.journal_of(citing)
        dst = corpus.journal_of(cited)
        if src in node_set and dst in node_set:
            edges[(src, dst)] = edges.get((src, dst), 0) + 1
    return JournalCitationNetwork(year=year, window_years=window_years,
                                  link_type=link_type, nodes=nodes, edges=edges)


def _vector(network, metric, scores) -> CentralityVector:
    return CentralityVector(metric=metric, year=network.year,
                            window_years=network.window_years,
                            link_type=network.link_type,
                            scores={n: float(scores.get(n, 0.0))
                                    for n in network.nodes})


def betweenness(network: JournalCitationNetwork) -> CentralityVector:
    """Unnormalized directed betweenness by Brandes' accumulation."""
    if network.empty:
        raise ValueError("empty network")
    succ, pred = network.skeleton()
    scores = {u: 0.0 for u in network.nodes}
    for source in network.nodes:           # node order, as in closeness
        dist, sigma = _bfs_counts(succ, source)
        delta = dict.fromkeys(dist, 0.0)
        for w in reversed(dist):            # dist is filled in BFS order
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in pred[w]:
                if dist.get(v) == dist[w] - 1:
                    delta[v] += sigma[v] * coeff
            if w != source:
                scores[w] += delta[w]
    return _vector(network, "BC", scores)


def closeness(network: JournalCitationNetwork) -> CentralityVector:
    """Harmonic closeness over incoming shortest paths, unit lengths."""
    if network.empty:
        raise ValueError("empty network")
    succ, _pred = network.skeleton()
    # summing over sources in node order fixes the float summation order,
    # so scores do not depend on string hashing
    scores = {u: 0.0 for u in network.nodes}
    for source in network.nodes:
        for target, d in _bfs_counts(succ, source)[0].items():
            if d:
                scores[target] += 1 / d
    return _vector(network, "CC", scores)


def pagerank(network: JournalCitationNetwork, damping: float = 0.85,
             tol: float = 1e-10, max_iter: int = 1000) -> CentralityVector:
    """Weighted rank scores with dangling mass spread uniformly.

    Power iteration to an L1 fixed-point residual below ``tol``; raises
    PageRankConvergenceError with the residual when ``max_iter`` is hit.
    Self-loops participate like any other edge. Scores sum to 1.
    """
    if network.empty:
        raise ValueError("empty network")
    nodes = network.nodes
    n = len(nodes)
    out_weight = {u: 0.0 for u in nodes}
    succ: dict[str, list[tuple[str, float]]] = {u: [] for u in nodes}
    for (u, v), w in network.edges.items():
        out_weight[u] += w
        succ[u].append((v, float(w)))

    rank = {u: 1.0 / n for u in nodes}
    base = (1.0 - damping) / n
    residual = math.inf
    for _ in range(max_iter):
        dangling = sum(rank[u] for u in nodes if out_weight[u] == 0.0)
        nxt = {u: base + damping * dangling / n for u in nodes}
        for u in nodes:
            if out_weight[u] == 0.0:
                continue
            share = damping * rank[u] / out_weight[u]
            for v, w in succ[u]:
                nxt[v] += share * w
        residual = sum(abs(nxt[u] - rank[u]) for u in nodes)
        rank = nxt
        if residual < tol:
            return _vector(network, "PR", rank)
    raise PageRankConvergenceError(max_iter, residual)


def _bfs_counts(adj, source):
    """Distances and shortest-path counts from one node (unit lengths)."""
    dist = {source: 0}
    sigma = {source: 1.0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                sigma[v] = 0.0
                queue.append(v)
            if dist[v] == dist[u] + 1:
                sigma[v] += sigma[u]
    return dist, sigma


def pathcore(network: JournalCitationNetwork) -> CentralityVector:
    """Core membership score from edge-bypass geodesic participation.

    For each directed edge (s, t) with an alternative route, the shortest
    s -> t paths in the graph minus (s, t) are counted; every interior
    node v accrues (paths through v) / (all such paths). Raw totals are
    divided by the maximum so scores land in [0, 1]; an all-isolated
    graph scores 0 everywhere.
    """
    if network.empty:
        raise ValueError("empty network")
    succ, pred = network.skeleton()
    raw = {u: 0.0 for u in network.nodes}
    edges = [(s, t) for s in sorted(succ) for t in succ[s]]

    for s, t in edges:
        succ[s].remove(t)
        pred[t].remove(s)
        dist_f, sigma_f = _bfs_counts(succ, s)
        if t in dist_f:
            dist_b, sigma_b = _bfs_counts(pred, t)
            d = dist_f[t]
            total = sigma_f[t]
            for v in dist_f:
                if v in (s, t) or v not in dist_b:
                    continue
                if dist_f[v] + dist_b[v] == d:
                    raw[v] += sigma_f[v] * sigma_b[v] / total
        insort(succ[s], t)
        insort(pred[t], s)

    top = max(raw.values(), default=0.0)
    if top > 0:
        raw = {u: x / top for u, x in raw.items()}
    return _vector(network, "PathCore", raw)


@dataclass
class ComparisonReport:
    """Per-metric comparison of matched pairs' centrality scores."""

    metric: str
    uj_higher_fraction: Optional[float]
    pair_count: int
    excluded_pairs: int
    log_differences: list[tuple[str, str, float]] = field(default_factory=list)


def centrality_comparison(matches: Iterable[MatchRecord],
                          vectors: Iterable[CentralityVector]
                          ) -> dict[str, ComparisonReport]:
    """Fraction of matched pairs where the control scores strictly higher.

    Pairs missing either score are excluded and counted. Log differences
    log10(control / flagged) are emitted for pairs where both scores are
    positive, as plotting material.
    """
    pairs = sorted({(m.qj_id, m.uj_id) for m in matches if m.uj_id})
    out = {}
    for vec in vectors:
        higher = 0
        used = 0
        excluded = 0
        logdiffs = []
        for qj, uj in pairs:
            if qj not in vec.scores or uj not in vec.scores:
                excluded += 1
                continue
            used += 1
            q, u = vec.scores[qj], vec.scores[uj]
            if u > q:
                higher += 1
            if q > 0 and u > 0:
                logdiffs.append((qj, uj, math.log10(u / q)))
        out[vec.metric] = ComparisonReport(
            metric=vec.metric,
            uj_higher_fraction=higher / used if used else None,
            pair_count=used,
            excluded_pairs=excluded,
            log_differences=logdiffs,
        )
    return out


def centrality_variants(corpus: Corpus, year, windows, link_types):
    """All four centralities of every window/link-type network variant.

    Returns (computed, skipped). ``computed`` lists (network, vectors) in
    variant order; ``skipped`` maps the name ``<year>_<window><link_type>``
    of each variant whose window leaves the corpus range, or whose
    network is empty, to the reason.
    """
    computed = []
    skipped = {}
    for window in map(int, windows):
        for link_type in link_types:
            name = f"{year}_{window}{link_type}"
            reason = _window_error(corpus, year, window, link_type)
            if reason is None:
                network = build_journal_network(corpus, year, window,
                                                link_type)
                if network.empty:
                    reason = f"no journal published in {year}"
            if reason:
                skipped[name] = reason
                continue
            computed.append((network, [betweenness(network),
                                       closeness(network),
                                       pagerank(network),
                                       pathcore(network)]))
    return computed, skipped


def robustness_sweep(corpus: Corpus, matches, year,
                     windows=(2, 5), link_types=("citation", "reference")):
    """Replay all four centralities over every window/link-type variant.

    Returns {(window, link_type): {metric: ComparisonReport}}; variants
    whose window falls outside the corpus range are skipped.
    """
    computed, _skipped = centrality_variants(corpus, year, windows,
                                             link_types)
    return {(network.window_years, network.link_type):
            centrality_comparison(matches, vectors)
            for network, vectors in computed}
