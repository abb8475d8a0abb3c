"""Journal-level citation timing metrics.

Impact here follows the two-year convention: the impact of a journal in
year y is the number of citations made during y to the journal's papers
of years y-1 and y-2, divided by the number of those papers. Undefined
values (no eligible papers, no citations with resolvable years) are
returned as None and must never be conflated with 0.

Each metric has one entry that answers for every journal or publisher at
once: ``impact_table`` gives one ``ImpactRecord`` per journal and year,
and ``market_shares`` one share per publisher and year.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .corpus import Corpus, count_rows

__all__ = [
    "ImpactRecord",
    "NormalizationTable",
    "build_normalization_table",
    "impact_table",
    "market_shares",
]


@dataclass(frozen=True)
class ImpactRecord:
    """One journal's timing metrics in one year.

    ``impact`` is the exact two-year impact; ``normalized_impact`` the
    same with the numerator deflated to reference-year citation levels.
    ``immediacy`` counts same-year citations per paper of the year.
    ``cited_half_life`` is the median age of the citations the journal
    receives during the year, ``citing_half_life`` that of the
    references made by its papers of the year.
    """

    journal_id: str
    year: int
    impact: Optional[Fraction]
    normalized_impact: Optional[float]
    immediacy: Optional[float] = None
    cited_half_life: Optional[float] = None
    citing_half_life: Optional[float] = None


@dataclass(frozen=True)
class NormalizationTable:
    """Per-year article counts of the reference field used to deflate citations.

    ``top_field`` is the 2-digit category with the greatest total
    citations received during ``reference_year``; ``n_top[y]`` is that
    field's article count in year y.
    """

    reference_year: int
    n_top: dict[int, int]
    top_field: str = ""

    def __post_init__(self):
        if self.reference_year not in self.n_top:
            raise ValueError("reference_year missing from table")
        if any(c <= 0 for c in self.n_top.values()):
            raise ValueError("article counts must be positive")


def _tally(graph):
    """(received, made): ``received[j, y, py]`` counts the citations made
    during y to journal code j's papers of year py, ``made[j, y, cy]`` the
    references from j's papers of year y to papers of year cy."""
    src, dst, year = graph.src, graph.dst, graph.year_of
    return (count_rows(graph.journal_of[dst], year[src], year[dst]),
            count_rows(graph.journal_of[src], year[src], year[dst]))


def _median_age(ages: dict[int, int]) -> Optional[float]:
    """Median of the ages counted in ``ages`` (age -> count): the middle
    age, or the mean of the two middle ages; None when there are none."""
    total = sum(ages.values())
    if not total:
        return None
    ranks = ((total - 1) // 2, total // 2)      # one rank twice if odd
    seen, middle = 0, []
    for age in sorted(ages):
        seen += ages[age]
        while len(middle) < 2 and seen > ranks[len(middle)]:
            middle.append(age)
    return (middle[0] + middle[1]) / 2


def _normalized(raw, year, table: Optional[NormalizationTable]
                ) -> Optional[float]:
    """Deflate a raw impact by the reference field's yearly growth:
    raw * n_top(reference_year) / n_top(year); None without a table or
    for an uncovered year."""
    if raw is None or table is None or year not in table.n_top:
        return None
    return float(raw) * table.n_top[table.reference_year] / table.n_top[year]


def build_normalization_table(corpus: Corpus, reference_year: int = 2017
                              ) -> NormalizationTable:
    """Derive the normalization table from the corpus.

    The reference field is the 2-digit category whose papers received
    the most citations during ``reference_year`` (papers in several
    categories count toward each).
    """
    graph = corpus.graph
    cited = graph.journal_of[graph.dst]
    during = (graph.year_of[graph.src] == reference_year) & (cited >= 0)
    received: dict[str, int] = {}
    for j, n in enumerate(np.bincount(cited[during]).tolist()):
        if n:
            for cat in corpus.journals[graph.journal_ids[j]].categories:
                received[cat] = received.get(cat, 0) + n
    if not received:
        raise ValueError(f"no citations received in {reference_year}")
    top_field = max(sorted(received), key=lambda c: received[c])

    n_top: dict[int, int] = {}
    for jid, by_year in corpus.paper_counts.items():
        if top_field in corpus.journals[jid].categories:
            for y, n in by_year.items():
                n_top[y] = n_top.get(y, 0) + n
    if n_top.get(reference_year, 0) <= 0:
        raise ValueError(f"reference field {top_field!r} published nothing "
                         f"in {reference_year}")
    return NormalizationTable(reference_year=reference_year,
                              n_top=dict(sorted(n_top.items())),
                              top_field=top_field)


def market_shares(corpus, years) -> dict[tuple[str, int], float]:
    """Each publisher's fraction of the year's articles with known
    publisher, for every publisher and each of ``years``, in one pass.

    Keys are (publisher_id, year). A year without an article of known
    publisher has no keys.
    """
    graph = corpus.graph
    known = (graph.publisher_of >= 0) & np.isin(graph.year_of, list(years))
    own = count_rows(graph.publisher_of[known], graph.year_of[known])
    total = Counter(graph.year_of[known].tolist())
    return {(pub, y): own.get((p, y), 0) / total[y]
            for y in total for p, pub in enumerate(sorted(corpus.publishers))}


def impact_table(corpus, years, table: Optional[NormalizationTable] = None
                 ) -> list[ImpactRecord]:
    """All timing metrics for every journal over ``years``, sorted rows."""
    graph = corpus.graph
    received, made = _tally(graph)
    every_year = sorted(set(graph.year_of.tolist()))
    records = []
    for j, jid in enumerate(graph.journal_ids):
        papers = corpus.paper_counts[jid]
        for y in years:
            eligible = papers.get(y - 2, 0) + papers.get(y - 1, 0)
            raw = Fraction(received.get((j, y, y - 2), 0)
                           + received.get((j, y, y - 1), 0),
                           eligible) if eligible else None
            same_year = papers.get(y, 0)
            records.append(ImpactRecord(
                journal_id=jid,
                year=y,
                impact=raw,
                normalized_impact=_normalized(raw, y, table),
                immediacy=(received.get((j, y, y), 0) / same_year
                           if same_year else None),
                cited_half_life=_median_age(
                    {y - py: received.get((j, y, py), 0) for py in papers}),
                citing_half_life=_median_age(
                    {y - cy: made.get((j, y, cy), 0) for cy in every_year}),
            ))
    return records
