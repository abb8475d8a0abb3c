"""Journal-level citation timing metrics.

Impact here follows the two-year convention: the impact of a journal in
year y is the number of citations made during y to the journal's papers
of years y-1 and y-2, divided by the number of those papers. Undefined
values (no eligible papers, no citations with resolvable years) are
returned as None and must never be conflated with 0.
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
    "journal_impact",
    "normalize_citations",
    "normalized_journal_impact",
    "build_normalization_table",
    "immediacy_index",
    "cited_half_life",
    "citing_half_life",
    "market_share",
    "impact_table",
]


@dataclass(frozen=True)
class ImpactRecord:
    journal_id: str
    year: int
    impact: Optional[Fraction]
    normalized_impact: Optional[float]
    eligible_paper_count: int
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


def _record(corpus, journal_id, year) -> ImpactRecord:
    """impact_table's row of one journal and year; KeyError if unregistered."""
    return {r.journal_id: r for r in impact_table(corpus, (year,))}[journal_id]


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


def journal_impact(corpus: Corpus, journal_id: str, year: int) -> Optional[Fraction]:
    """Two-year impact: citations in ``year`` to papers of the two prior years.

    Returns an exact rational; None when the journal published nothing in
    the window (never divides by zero).
    """
    return _record(corpus, journal_id, year).impact


def normalize_citations(count, year, table: NormalizationTable) -> float:
    """Deflate a citation count by the reference field's yearly growth.

    normalized = count * n_top(reference_year) / n_top(year)

    Raises KeyError for a year the table does not cover.
    """
    if year not in table.n_top:
        raise KeyError(f"year {year} not covered by normalization table")
    return _normalized(count, year, table)


def _normalized(raw, year, table: Optional[NormalizationTable]
                ) -> Optional[float]:
    """Deflate a raw impact; None without a table or for an uncovered year."""
    if raw is None or table is None or year not in table.n_top:
        return None
    return float(raw) * table.n_top[table.reference_year] / table.n_top[year]


def normalized_journal_impact(corpus, journal_id, year,
                              table: Optional[NormalizationTable]
                              ) -> Optional[float]:
    """Impact with the numerator deflated to reference-year citation levels.

    None when the impact is undefined, when there is no table, or when
    the table does not cover ``year``.
    """
    return _normalized(journal_impact(corpus, journal_id, year), year, table)


def build_normalization_table(corpus: Corpus, reference_year: int = 2017
                              ) -> NormalizationTable:
    """Derive the normalization table from the corpus.

    The reference field is the 2-digit category whose papers received
    the most citations during ``reference_year`` (papers in several
    categories count toward each).
    """
    graph = corpus.graph
    cited, _made = _tally(graph)
    categories = [corpus.journals[jid].categories for jid in graph.journal_ids]
    received: dict[str, int] = {}
    for (j, y, _py), n in cited.items():
        if y == reference_year:
            for cat in categories[j]:
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


def immediacy_index(corpus, journal_id, year) -> Optional[float]:
    """Same-year citations per paper; None when nothing was published."""
    return _record(corpus, journal_id, year).immediacy


def cited_half_life(corpus, journal_id, year) -> Optional[float]:
    """Median age of the citations the journal receives during ``year``."""
    return _record(corpus, journal_id, year).cited_half_life


def citing_half_life(corpus, journal_id, year) -> Optional[float]:
    """Median age of the references made by the journal's ``year`` papers."""
    return _record(corpus, journal_id, year).citing_half_life


def market_share(corpus, publisher_id, year) -> Optional[float]:
    """Publisher's fraction of the year's articles with known publisher."""
    shares = _market_shares(corpus, (year,))
    if not shares:
        return None
    return shares.get((publisher_id, year), 0.0)


def _market_shares(corpus, years) -> dict[tuple[str, int], float]:
    """market_share of every publisher in each of ``years``, in one pass.

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
                eligible_paper_count=eligible,
                immediacy=(received.get((j, y, y), 0) / same_year
                           if same_year else None),
                cited_half_life=_median_age(
                    {y - py: received.get((j, y, py), 0) for py in papers}),
                citing_half_life=_median_age(
                    {y - cy: made.get((j, y, cy), 0) for cy in every_year}),
            ))
    return records
