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
    "expectations_from_counts",
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


def citation_rate(corpus, source, target_group, window=None,
                  table: Optional[CitationCounts] = None) -> Optional[float]:
    """Fraction of the citations received by ``source`` coming from the group.

    None when the source received no attributable citations in the window.
    """
    if table is None:
        table = aggregate_citation_counts(corpus, window)
    src = resolve_group(corpus, source)
    grp = resolve_group(corpus, target_group)
    received = sum(table.in_total.get(j, 0) for j in src)
    if received == 0:
        return None
    from_group = sum(table.counts.get((g, j), 0) for j in src for g in grp)
    return from_group / received


def reference_rate(corpus, source, target_group, window=None,
                   table: Optional[CitationCounts] = None) -> Optional[float]:
    """Fraction of the references made by ``source`` landing in the group."""
    if table is None:
        table = aggregate_citation_counts(corpus, window)
    src = resolve_group(corpus, source)
    grp = resolve_group(corpus, target_group)
    made = sum(table.out_total.get(j, 0) for j in src)
    if made == 0:
        return None
    into_group = sum(table.counts.get((j, g), 0) for j in src for g in grp)
    return into_group / made


@dataclass(frozen=True)
class PublisherExpectation:
    publisher_id: str
    q_r: Optional[float]   # internal share of references made
    q_c: Optional[float]   # internal share of citations received


def expectations_from_counts(table: CitationCounts,
                             publisher_id: str,
                             members: Sequence[str]) -> PublisherExpectation:
    members = set(members)
    internal = sum(table.counts.get((k, j), 0) for k in members for j in members)
    made = sum(table.out_total.get(k, 0) for k in members)
    received = sum(table.in_total.get(k, 0) for k in members)
    q_r = internal / made if made > 0 else None
    q_c = internal / received if received > 0 else None
    return PublisherExpectation(publisher_id=publisher_id, q_r=q_r, q_c=q_c)


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
    return expectations_from_counts(table, publisher_id, members)


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


def psi_from_counts(table: CitationCounts, journal_id: str,
                    members: Sequence[str], paper_totals,
                    include_self: bool = True) -> SolidarityScore:
    """Solidarity index evaluated on an explicit count table.

    ``members`` is the journal set of the publisher; ``paper_totals``
    maps journal -> paper count N_j. ``include_self`` keeps journal_id
    itself inside the publisher sums (the publisher contains its own
    journal); disabling it drops the i=j terms from both rate sums.
    """
    members = list(members)
    if len(members) < 2:
        return SolidarityScore(journal_id, None, 0, None, None,
                               status="excluded")
    paper_total = sum(paper_totals[j] for j in members)
    exp = expectations_from_counts(table, "", members)
    return _score(table, journal_id, members, paper_total, exp, include_self)


def _score(table, journal_id, members, paper_total, exp, include_self):
    """psi of one journal from its publisher's members, paper total and
    expectation."""
    summed = [j for j in members if include_self or j != journal_id]
    made = table.out_total.get(journal_id, 0)
    received = table.in_total.get(journal_id, 0)
    ref_sum = (sum(table.counts.get((journal_id, j), 0) for j in summed) / made
               if made > 0 else None)
    cite_sum = (sum(table.counts.get((j, journal_id), 0) for j in summed) / received
                if received > 0 else None)

    undefined = (exp.q_r is None or exp.q_c is None or ref_sum is None
                 or cite_sum is None or exp.q_r == 0 or exp.q_c == 0
                 or cite_sum == 0 or paper_total == 0)
    if undefined:
        return SolidarityScore(journal_id, None, paper_total, ref_sum,
                               cite_sum, exp.q_r, exp.q_c, status="undefined")
    psi = (1.0 / paper_total) * (ref_sum / exp.q_r) / (cite_sum / exp.q_c)
    return SolidarityScore(journal_id, psi, paper_total, ref_sum, cite_sum,
                           exp.q_r, exp.q_c, status="ok")


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
    if table is None and len(members) > 1:    # else excluded, counts unread
        table = aggregate_citation_counts(corpus, window)
    years = None if table is None else table.years
    totals = {j: corpus.paper_count(j, years) for j in members}
    return psi_from_counts(table, journal_id, members, totals,
                           include_self=include_self)


def solidarity_scores(corpus, window=None, include_self=True,
                      table: Optional[CitationCounts] = None
                      ) -> list[SolidarityScore]:
    """``solidarity_index`` of every journal, in journal-id order.

    Each publisher's expectation and paper total are computed once and
    shared by its journals.
    """
    if table is None:
        table = aggregate_citation_counts(corpus, window)
    years = table.years
    terms = {}      # publisher id -> (members, paper total, expectation)
    scores = []
    for jid in sorted(corpus.journals):
        pub_id = corpus.journals[jid].publisher_id
        members = corpus.publisher_journals.get(pub_id, ())
        if len(members) < 2:
            scores.append(SolidarityScore(jid, None, 0, None, None,
                                          status="excluded"))
            continue
        if pub_id not in terms:
            total = sum(corpus.paper_count(j, years) for j in members)
            terms[pub_id] = (members, total,
                             expectations_from_counts(table, pub_id, members))
        scores.append(_score(table, jid, *terms[pub_id], include_self))
    return scores


def solidarity_ratio(score_q: SolidarityScore,
                     score_u: SolidarityScore) -> Optional[float]:
    """Ratio of two solidarity scores; >1 flags the questioned journal."""
    if score_q.psi is None or score_u.psi is None or score_u.psi == 0:
        return None
    return score_q.psi / score_u.psi
