"""Citation and reference rates, publisher expectations, and the
publication solidarity index.

All rate computations flow through an aggregated journal-level count
table (``CitationCounts``): ``counts[(i, j)]`` is the number of citation
instances from papers in journal i to papers in journal j, restricted to
edges whose endpoint journals are both registered. Edges with an
unresolvable journal never enter a numerator or a denominator. The
pairs are tallied by ``CitationGraph.journal_pair_counts``, the one
journal-pair tally that the synthetic nets and the journal networks
also use.

The solidarity index of journal i with publisher P is

    solidarity(i) = (1 / sum_{j in P} N_j)
                    * [ sum_{j in P} ref_rate(i; j)  / Q_r ]
                    / [ sum_{j in P} cite_rate(i; j) / Q_c ]

where N_j counts journal j's papers, Q_r is the publisher's internal
share of all references its journals make, and Q_c the internal share of
all citations its journals receive. High values flag journals that
direct citations at their own publisher well beyond what the publisher's
overall exchange patterns predict.

``share`` is the one reader of the table: the share of the references
a journal set makes (with ``received=True``, of the citations it
receives) that land in (come from) a group. It gives a journal's rate
into any group and, over a publisher's own journals, the publisher's
Q_r and Q_c. ``solidarity_scores`` gives psi of every journal of a
``CitationGraph``, four ``share`` terms each; the graph is a corpus's
``graph`` or a synthetic net, so the pipeline's ``solidarity.csv`` and
the rewiring experiment score psi the same way. ``_scores`` is the one
psi kernel, for it and ``psi_from_counts``. The ratio of a flagged
journal's psi to its matched control's is formed in figure 2F.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .corpus import CitationGraph, Corpus

__all__ = [
    "CitationCounts",
    "RateQuery",
    "SolidarityScore",
    "aggregate_citation_counts",
    "resolve_group",
    "share",
    "solidarity_scores",
    "psi_from_counts",
]


@dataclass
class CitationCounts:
    """Journal-to-journal citation totals over a year window.

    counts[(citing, cited)] -> number of citation instances
    out_total[j] -> all references j's papers make (to known journals)
    in_total[j]  -> all citations j's papers receive (from known journals)
    """

    counts: dict[tuple[str, str], float] = field(default_factory=dict)
    out_total: dict[str, float] = field(default_factory=dict)
    in_total: dict[str, float] = field(default_factory=dict)
    window: Optional[tuple[int, int]] = None

    @classmethod
    def from_counts(cls, counts: dict[tuple[str, str], float],
                    window: Optional[tuple[int, int]] = None
                    ) -> "CitationCounts":
        """Table over journal-pair totals; the marginals are summed here."""
        table = cls(counts=dict(counts), window=window)
        for (src, dst), c in table.counts.items():
            table.out_total[src] = table.out_total.get(src, 0) + c
            table.in_total[dst] = table.in_total.get(dst, 0) + c
        return table


def aggregate_citation_counts(graph: CitationGraph,
                              window: Optional[tuple[int, int]] = None
                              ) -> CitationCounts:
    """Aggregate paper-level citation edges to the journal level.

    ``graph`` is a corpus's ``graph`` or a synthetic net. ``window``
    restricts to citations made in those years (citing paper's
    publication year). Edges whose citing or cited journal is not
    registered are skipped entirely.
    """
    mask = True
    if window is not None:
        year = graph.year_of[graph.src]
        mask = (window[0] <= year) & (year <= window[1])
    return CitationCounts.from_counts(graph.journal_pair_counts(mask), window)


@dataclass(frozen=True)
class RateQuery:
    """One batched rate request: a source and a target group of journals."""

    source: str                       # journal or publisher id
    targets: tuple[str, ...]          # journal and/or publisher ids
    window: Optional[tuple[int, int]] = None
    kind: str = "citation"            # "citation" or "reference"


def resolve_group(corpus: Corpus, group) -> set[str]:
    """Resolve a journal id, publisher id, or iterable of either to journals."""
    if isinstance(group, str):
        group = (group,)
    journals: set[str] = set()
    for gid in group:
        if gid in corpus.journals:
            journals.add(gid)
        elif gid in corpus.publisher_journals:
            journals.update(corpus.publisher_journals[gid])
        else:
            raise KeyError(f"unknown journal or publisher id: {gid!r}")
    return journals


def share(table: CitationCounts, sources, group,
          received: bool = False) -> Optional[float]:
    """Share of the references made by the journals ``sources`` that land
    in the journals ``group``; with ``received``, share of the citations
    they receive that come from ``group``. None when they make (receive)
    none."""
    if received:
        whole = sum(table.in_total.get(j, 0) for j in sources)
        part = sum(table.counts.get((g, j), 0) for j in sources for g in group)
    else:
        whole = sum(table.out_total.get(j, 0) for j in sources)
        part = sum(table.counts.get((j, g), 0) for j in sources for g in group)
    return part / whole if whole else None


@dataclass(frozen=True)
class SolidarityScore:
    journal_id: str
    psi: Optional[float]
    publisher_paper_total: int
    numerator_rate_sum: Optional[float]
    denominator_rate_sum: Optional[float]
    q_r: Optional[float] = None
    q_c: Optional[float] = None
    status: str = "ok"     # "ok" | "excluded" | "undefined"


def _excluded(journal_id) -> SolidarityScore:
    """The row of a journal whose publisher is unknown or has one journal."""
    return SolidarityScore(journal_id, None, 0, None, None, status="excluded")


def _scores(table, journals, members, paper_total,
            include_self) -> list[SolidarityScore]:
    """psi of each of ``journals`` against the publisher whose journals
    are ``members`` and whose papers number ``paper_total``.

    The publisher's Q_r and Q_c are computed once. Without
    ``include_self`` a journal's own terms leave its two rate sums.
    """
    q_r = share(table, members, members)
    q_c = share(table, members, members, received=True)
    scores = []
    for jid in journals:
        summed = [j for j in members if include_self or j != jid]
        ref = share(table, (jid,), summed)
        cite = share(table, (jid,), summed, received=True)
        if (q_r is None or q_c is None or ref is None or cite is None
                or q_r == 0 or q_c == 0 or cite == 0 or paper_total == 0):
            scores.append(SolidarityScore(jid, None, paper_total, ref, cite,
                                          q_r, q_c, status="undefined"))
            continue
        psi = (1.0 / paper_total) * (ref / q_r) / (cite / q_c)
        scores.append(SolidarityScore(jid, psi, paper_total, ref, cite,
                                      q_r, q_c, status="ok"))
    return scores


def psi_from_counts(table: CitationCounts, journal_id: str,
                    members: Sequence[str], paper_totals,
                    include_self: bool = True) -> SolidarityScore:
    """Solidarity index evaluated on an explicit count table.

    ``members`` is the journal set of the publisher; ``paper_totals``
    maps journal -> paper count N_j. ``include_self`` keeps journal_id
    itself inside the publisher sums (the publisher contains its own
    journal); disabling it drops the i=j terms from both rate sums.
    """
    if len(members) < 2:
        return _excluded(journal_id)
    paper_total = sum(paper_totals[j] for j in members)
    return _scores(table, [journal_id], members, paper_total,
                   include_self)[0]


def solidarity_scores(graph: CitationGraph,
                      table: Optional[CitationCounts] = None,
                      include_self: bool = True) -> list[SolidarityScore]:
    """Solidarity index of every journal of ``graph`` against its own
    publisher, in ``graph.journal_ids`` order (sorted for a corpus).

    ``table`` is the count table to score, the all-years table when None;
    the publishers' paper totals cover the years of its window.
    Standalone journals (publisher unknown or with a single journal) are
    excluded rather than scored; zero denominators on either side give an
    undefined score. Each publisher's expectation and paper total are
    computed once and shared by its journals.
    """
    if table is None:
        table = aggregate_citation_counts(graph)
    publisher_of = graph.publisher_of
    if table.window is not None:
        lo, hi = table.window
        publisher_of = publisher_of[(lo <= graph.year_of)
                                    & (graph.year_of <= hi)]
    paper_totals = np.bincount(publisher_of[publisher_of >= 0],
                               minlength=len(graph.publishers)).tolist()
    scored = {}
    for members, paper_total in zip(graph.publishers, paper_totals):
        if len(members) < 2:
            continue
        scored.update((s.journal_id, s) for s in _scores(
            table, members, members, paper_total, include_self))
    return [scored.get(jid) or _excluded(jid) for jid in graph.journal_ids]
