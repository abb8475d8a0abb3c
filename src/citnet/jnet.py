"""Yearly journal citation networks and centrality scores.

A network for target year y has the journals publishing in y as nodes.
With citation links, an edge u -> v aggregates citations from u's papers
of years (y, y+window] to v's papers of year y; with reference links it
aggregates references from u's papers of year y to v's papers of years
[y-window, y). Weights count paper-level citation instances and journal
self-loops are kept.

Path metrics (betweenness, harmonic closeness, path-core) share one
batched BFS kernel over integer CSR arrays of the unweighted loop-free
skeleton: each row of a batch is one search, frontiers expand level by
level, and path counts are summed with ``np.bincount`` over the cells
``row * n + node``. Betweenness and closeness come from the same
searches: one sweep over the sources feeds both. Closeness is harmonic
over incoming shortest paths so that disconnected graphs stay
well-defined. Scores sum over batch rows in source (or edge) order, so
they do not depend on the batch size or on string hashing. The rank
score uses weights and keeps loops. It runs on position arrays of the
edges, which receive their adds in the order of a loop over nodes and
then over each node's edges in insertion order.

The core score follows the geodesic core-periphery method: for every
edge (s, t), the shortest s -> t paths of the graph *without* that edge
are enumerated, and each interior node collects its fractional
participation; totals are rescaled by the maximum into [0, 1]. Core
nodes score high because the periphery's detours run through them. An
edge with a two-step bypass s -> v -> t needs no search: its interior
nodes are those v, found by matching the graph's two-paths against the
edge keys. The other edges are searched, and no copy of the graph is
made per edge: a search never re-enters its source, so removing (s, t)
only changes the first expansion, and the forward search from s skips t
there while the backward search from t over the predecessor arrays
skips s. The algorithm is isolated behind :func:`pathcore` so alternates
can be swapped without touching callers.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

logger = logging.getLogger(__name__)

from .corpus import Corpus, csr_expand, csr_pointer
from .matching import MatchRecord, matched_pairs

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

    def _positions(self, pairs):
        """(citing, cited) int64 node-position arrays of name pairs."""
        index = {u: i for i, u in enumerate(self.nodes)}
        pos = np.array([(index[u], index[v]) for u, v in pairs],
                       dtype=np.int64).reshape(-1, 2)
        return pos[:, 0], pos[:, 1]

    def skeleton(self):
        """The unweighted loop-free skeleton over positions in ``nodes``.

        Returns (src, dst, succ, pred): the edges as two int64 position
        arrays in sorted (citing, cited) name order, and the successor and
        predecessor adjacency as CSR pairs (indptr, indices) whose rows
        keep that order. The batched BFS kernel runs on ``succ``; PathCore
        expands its two-paths from ``succ``, and for an edge without a
        two-step bypass also runs the kernel on ``pred``, one row per
        edge, whose first expansion skips the edge's other end instead of
        copying the graph.
        """
        src, dst = self._positions(sorted(e for e in self.edges
                                         if e[0] != e[1]))
        n = len(self.nodes)
        succ = csr_pointer(src, n), dst[np.argsort(src, kind="stable")]
        pred = csr_pointer(dst, n), src[np.argsort(dst, kind="stable")]
        return src, dst, succ, pred


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

    nodes = tuple(sorted(j for j, papers in corpus.paper_counts.items()
                         if year in papers))
    if not nodes:
        logger.warning("no journal published in %d; returning an empty "
                       "network", year)
    graph = corpus.graph
    cy, ty = graph.year_of[graph.src], graph.year_of[graph.dst]
    if link_type == "citation":
        mask = (ty == year) & (cy > year) & (cy <= year + window_years)
    else:
        mask = (cy == year) & (ty < year) & (ty >= year - window_years)
    node_set = set(nodes)
    edges = {pair: c for pair, c in graph.journal_pair_counts(mask).items()
             if pair[0] in node_set and pair[1] in node_set}
    return JournalCitationNetwork(year=year, window_years=window_years,
                                  link_type=link_type, nodes=nodes, edges=edges)


def _scored(network, metric, values) -> CentralityVector:
    """The vector of a metric's scores, given by node position."""
    return CentralityVector(metric=metric, year=network.year,
                            window_years=network.window_years,
                            link_type=network.link_type,
                            scores=dict(zip(network.nodes, values.tolist())))


# Cells the largest array of one batch of searches may hold: the
# searches from every source for betweenness and closeness, and for
# PathCore only those of the edges without a two-step bypass. A search
# expands each skeleton edge at most once and fills one row of n cells,
# so _BATCH_CELLS // max(n, edges) searches per batch stay below it.
# At 512 KiB per int64 array, a larger budget ran no faster on 200- and
# 1000-node networks and only raised peak memory. PathCore's runs of
# edges keep their two-step bypass candidates within the same budget.
_BATCH_CELLS = 1 << 16


def _batches(count, n, m):
    """Slices of range(count), ``_BATCH_CELLS // max(n, m)`` items each:
    searches over n nodes and m edges, or edges of at most n bypass
    candidates each."""
    step = max(1, _BATCH_CELLS // max(n, m))
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _bfs(csr, sources, targets=None):
    """One breadth-first search per row, all rows at once (unit lengths).

    Row i searches from sources[i] over the CSR adjacency ``csr``.
    Returns dist (-1 where unreached) and sigma, the shortest-path
    counts, as flat row-major arrays of rows * n cells (cell
    row * n + node), and per level the (child, parent) cells of the
    shortest-path edges it expanded.

    With ``targets``, row i searches the graph without the edge
    (sources[i], targets[i]) and stops after the level that reaches
    targets[i]. No search re-enters its source, so leaving targets[i]
    out of the first expansion is what removes that edge.
    """
    indptr, indices = csr
    n = len(indptr) - 1
    cells = len(sources) * n
    dist = np.full(cells, -1, dtype=np.int64)
    sigma = np.zeros(cells)
    frontier = np.arange(len(sources), dtype=np.int64) * n + sources
    dist[frontier] = 0
    sigma[frontier] = 1.0
    levels = []
    while frontier.size:
        node = frontier % n
        owner, pos = csr_expand(node, indptr)
        nbr = indices[pos]
        if targets is not None and not levels:    # owner is the row here
            keep = nbr != targets[owner]
            owner, nbr = owner[keep], nbr[keep]
        parent = frontier[owner]
        child = parent - node[owner] + nbr
        fresh = dist[child] < 0
        child, parent = child[fresh], parent[fresh]
        dist[child] = len(levels) + 1
        sigma += np.bincount(child, weights=sigma[parent], minlength=cells)
        levels.append((child, parent))
        frontier = np.flatnonzero(dist == len(levels))
        if targets is not None:
            row = frontier // n
            frontier = frontier[dist[row * n + targets[row]] < 0]
    return dist, sigma, levels


def _add_rows(total, cells):
    """Add the rows of ``cells`` to ``total`` one at a time, in order.

    Each score then sums its terms in source order, whatever the batch
    size, and adding 0.0 for a cell that takes no part is exact.
    """
    for row in cells.reshape(-1, total.size):
        total += row


def _path_scores(network):
    """The BC and CC vectors from one sweep: each batch's dist rows give
    the 1/dist terms, and its levels Brandes' delta."""
    if network.empty:
        raise ValueError("empty network")
    n = len(network.nodes)
    src, _dst, succ, _pred = network.skeleton()
    bc, cc = np.zeros(n), np.zeros(n)
    for batch in _batches(n, n, len(src)):
        sources = np.arange(n)[batch]
        dist, sigma, levels = _bfs(succ, sources)
        _add_rows(cc, np.divide(1.0, dist, out=np.zeros(dist.size),
                                where=dist > 0))
        delta = np.zeros_like(sigma)
        for child, parent in reversed(levels):
            coeff = (1.0 + delta[child]) / sigma[child]
            delta += np.bincount(parent, weights=sigma[parent] * coeff,
                                 minlength=delta.size)
        delta[np.arange(sources.size) * n + sources] = 0.0  # not interior
        _add_rows(bc, delta)
    return _scored(network, "BC", bc), _scored(network, "CC", cc)


def betweenness(network: JournalCitationNetwork) -> CentralityVector:
    """Unnormalized directed betweenness by Brandes' accumulation."""
    return _path_scores(network)[0]


def closeness(network: JournalCitationNetwork) -> CentralityVector:
    """Harmonic closeness over incoming shortest paths, unit lengths.

    The sweep is shared with betweenness, whose accumulation this pays
    for too; centrality_variants takes both from one sweep.
    """
    return _path_scores(network)[1]


def pagerank(network: JournalCitationNetwork, damping: float = 0.85,
             tol: float = 1e-10, max_iter: int = 1000) -> CentralityVector:
    """Weighted rank scores with dangling mass spread uniformly.

    Power iteration to an L1 fixed-point residual below ``tol``; raises
    PageRankConvergenceError with the residual when ``max_iter`` is hit.
    Self-loops participate like any other edge. Scores sum to 1.
    """
    if network.empty:
        raise ValueError("empty network")
    n = len(network.nodes)
    src, dst = network._positions(network.edges)
    order = np.argsort(src, kind="stable")   # keeps insertion order per node
    src, dst = src[order], dst[order]
    weight = np.array(list(network.edges.values()), dtype=float)[order]
    out_weight = np.zeros(n)
    np.add.at(out_weight, src, weight)
    live = out_weight[src] != 0.0          # a weightless node passes none on
    src, dst, weight = src[live], dst[live], weight[live]
    rank = np.full(n, 1.0 / n)
    residual = math.inf
    for _ in range(max_iter):
        dangling = sum(rank[out_weight == 0.0].tolist())
        nxt = np.full(n, (1.0 - damping) / n + damping * dangling / n)
        np.add.at(nxt, dst, damping * rank[src] / out_weight[src] * weight)
        residual = sum(np.abs(nxt - rank).tolist())
        rank = nxt
        if residual < tol:
            return _scored(network, "PR", rank)
    raise PageRankConvergenceError(max_iter, residual)


def pathcore(network: JournalCitationNetwork) -> CentralityVector:
    """Core membership score from edge-bypass geodesic participation.

    For each directed edge (s, t) with an alternative route, the shortest
    s -> t paths in the graph minus (s, t) are counted; every interior
    node v accrues (paths through v) / (all such paths). Raw totals are
    divided by the maximum so scores land in [0, 1]; an all-isolated
    graph scores 0 everywhere.

    Most edges have a two-step bypass s -> v -> t. Its interior nodes
    are exactly those v, and each adds ``1.0 / c`` with c the number of
    them, the float the searches below would add. So for each edge the
    successors v of s are looked up as keys ``v * n + t`` among the
    sorted edge keys. Only the edges with no two-step bypass go through
    batched searches: a forward search from s to t and a backward search
    from t to s, both without the edge (s, t) and both ending at the
    level that reaches the other end. Edges go in runs of consecutive
    sorted edges whose candidates fit ``_BATCH_CELLS``, and each run adds
    its terms into the node totals in sorted edge order, as one search
    row after another would add them.
    """
    if network.empty:
        raise ValueError("empty network")
    n = len(network.nodes)
    src, dst, succ, pred = network.skeleton()
    # a key past every edge key, so each lookup lands inside ``keys``
    keys = np.append(np.sort(src * n + dst), n * n)
    fanout = np.diff(succ[0])[src]          # candidates v of each edge
    raw = np.zeros(n)
    for run in _batches(len(src), int(fanout.max(initial=1)), 0):
        edges = np.arange(len(src))[run]
        which, pos = csr_expand(src[edges], succ[0])
        edge, node = edges[which], succ[1][pos]
        bypass = node * n + dst[edge]
        hit = keys[np.searchsorted(keys, bypass)] == bypass
        edge, node = edge[hit], node[hit]
        count = np.bincount(edge - edges[0], minlength=len(edges))
        terms = [(edge, node, 1.0 / count[edge - edges[0]])]
        longer = edges[count == 0]
        for batch in _batches(len(longer), n, len(src)):
            s, t = src[longer[batch]], dst[longer[batch]]
            rows = np.arange(s.size) * n
            dist_f, sigma_f, _ = _bfs(succ, s, targets=t)
            dist_b, sigma_b, _ = _bfs(pred, t, targets=s)
            length = np.repeat(dist_f[rows + t], n)
            on = (dist_f >= 0) & (dist_b >= 0) & (dist_f + dist_b == length)
            on[rows + s] = False
            on[rows + t] = False
            cells = np.flatnonzero(on)
            row = cells // n
            terms.append((longer[batch][row], cells % n,
                          sigma_f[cells] * sigma_b[cells]
                          / sigma_f[rows[row] + t[row]]))
        edge, node, value = (np.concatenate(column) for column in zip(*terms))
        # a node takes at most one term per edge; np.add.at adds in order
        order = np.argsort(edge, kind="stable")
        np.add.at(raw, node[order], value[order])
    top = raw.max()
    if top > 0:
        raw = raw / top
    return _scored(network, "PathCore", raw)


@dataclass
class ComparisonReport:
    """Per-metric comparison of matched pairs' centrality scores."""

    metric: str
    uj_higher_fraction: Optional[float]
    pair_count: int
    excluded_pairs: int


def centrality_comparison(matches: Iterable[MatchRecord],
                          vectors: Iterable[CentralityVector]
                          ) -> dict[str, ComparisonReport]:
    """Fraction of matched pairs where the control scores strictly higher.

    Pairs missing either score are excluded and counted.
    """
    pairs = matched_pairs(matches)
    out = {}
    for vec in vectors:
        higher = 0
        used = 0
        excluded = 0
        for qj, uj in pairs:
            if qj not in vec.scores or uj not in vec.scores:
                excluded += 1
                continue
            used += 1
            if vec.scores[uj] > vec.scores[qj]:
                higher += 1
        out[vec.metric] = ComparisonReport(
            metric=vec.metric,
            uj_higher_fraction=higher / used if used else None,
            pair_count=used,
            excluded_pairs=excluded,
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
            computed.append((network, [*_path_scores(network),
                                       pagerank(network),
                                       pathcore(network)]))
    return computed, skipped
