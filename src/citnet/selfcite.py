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

psi is four ``_share`` terms: i's references into P and citations from
P, then P's own two. ``_share``, the share of the references a journal
set makes (or the citations it receives) that land in (come from) a
group, is the one reader of the table behind every rate and
expectation; ``_scores`` is the one psi kernel, for the public
functions, the selfcite stage and the synthetic ensembles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .corpus import Corpus

__all__ = [
    "CitationCounts",
    "RateQuery",
    "PublisherExpectation",
    "SolidarityScore",
    "aggregate_citation_counts",
    "resolve_group",
    "citation_rate",
    "reference_rate",
    "publisher_self_expectations",
    "solidarity_index",
    "solidarity_scores",
    "solidarity_ratio",
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

    @property
    def years(self) -> Optional[range]:
        """The years of ``window``; None for every year."""
        if self.window is None:
            return None
        return range(self.window[0], self.window[1] + 1)

    def scaled(self, k: float) -> "CitationCounts":
        """Uniformly scaled copy; rates computed from it are unchanged."""
        return CitationCounts(
            counts={p: c * k for p, c in self.counts.items()},
            out_total={j: c * k for j, c in self.out_total.items()},
            in_total={j: c * k for j, c in self.in_total.items()},
            window=self.window,
        )


def aggregate_citation_counts(corpus: Corpus,
                              window: Optional[tuple[int, int]] = None
                              ) -> CitationCounts:
    """Aggregate paper-level citation edges to the journal level.

    ``window`` restricts to citations made in those years (citing paper's
    publication year). Edges whose citing or cited journal is not
    registered are skipped entirely.
    """
    graph = corpus.graph
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


def _share(table: CitationCounts, sources, group,
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


def citation_rate(corpus, source, target_group, window=None,
                  table: Optional[CitationCounts] = None) -> Optional[float]:
    """Fraction of the citations received by ``source`` coming from the group.

    None when the source received no attributable citations in the window.
    """
    if table is None:
        table = aggregate_citation_counts(corpus, window)
    return _share(table, resolve_group(corpus, source),
                  resolve_group(corpus, target_group), received=True)


def reference_rate(corpus, source, target_group, window=None,
                   table: Optional[CitationCounts] = None) -> Optional[float]:
    """Fraction of the references made by ``source`` landing in the group."""
    if table is None:
        table = aggregate_citation_counts(corpus, window)
    return _share(table, resolve_group(corpus, source),
                  resolve_group(corpus, target_group))


@dataclass(frozen=True)
class PublisherExpectation:
    publisher_id: str
    q_r: Optional[float]   # internal share of references made
    q_c: Optional[float]   # internal share of citations received


def publisher_self_expectations(corpus, publisher_id, window=None,
                                table: Optional[CitationCounts] = None
                                ) -> PublisherExpectation:
    """Publisher-wide expected self-reference and self-citation shares.

    q_r: citations among the publisher's own journals over everything its
    journals reference; q_c: the same internal count over everything its
    journals are cited by. A zero denominator leaves that side None.
    """
    if table is None:
        table = aggregate_citation_counts(corpus, window)
    members = corpus.publisher_journals[publisher_id]
    return PublisherExpectation(publisher_id, _share(table, members, members),
                                _share(table, members, members, received=True))


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
    q_r = _share(table, members, members)
    q_c = _share(table, members, members, received=True)
    scores = []
    for jid in journals:
        summed = [j for j in members if include_self or j != jid]
        ref = _share(table, (jid,), summed)
        cite = _share(table, (jid,), summed, received=True)
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


def solidarity_index(corpus, journal_id, window=None, include_self=True,
                     table: Optional[CitationCounts] = None) -> SolidarityScore:
    """Solidarity index of a journal against its own publisher.

    Standalone journals (publisher unknown or with a single journal) are
    excluded rather than scored; zero denominators on either side give an
    undefined score. The paper totals cover the years of the count
    table's window; ``window`` only picks the table when none is passed.
    """
    members = corpus.publisher_journals.get(
        corpus.journals[journal_id].publisher_id, ())
    if len(members) < 2:                      # excluded, counts unread
        return _excluded(journal_id)
    if table is None:
        table = aggregate_citation_counts(corpus, window)
    paper_total = sum(corpus.paper_count(j, table.years) for j in members)
    return _scores(table, [journal_id], members, paper_total,
                   include_self)[0]


def solidarity_scores(corpus, window=None, include_self=True,
                      table: Optional[CitationCounts] = None
                      ) -> list[SolidarityScore]:
    """``solidarity_index`` of every journal, in journal-id order.

    Each publisher's expectation and paper total are computed once and
    shared by its journals.
    """
    if table is None:
        table = aggregate_citation_counts(corpus, window)
    scored = {}
    for members in corpus.publisher_journals.values():
        if len(members) < 2:
            continue
        paper_total = sum(corpus.paper_count(j, table.years) for j in members)
        scored.update((s.journal_id, s) for s in _scores(
            table, members, members, paper_total, include_self))
    return [scored.get(jid) or _excluded(jid)
            for jid in sorted(corpus.journals)]


def solidarity_ratio(score_q: SolidarityScore,
                     score_u: SolidarityScore) -> Optional[float]:
    """Ratio of two solidarity scores; >1 flags the questioned journal."""
    if score_q.psi is None or score_u.psi is None or score_u.psi == 0:
        return None
    return score_q.psi / score_u.psi
