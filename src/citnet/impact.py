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
from statistics import median
from typing import Optional

from .corpus import Corpus

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


def _citations_in_year_to(corpus: Corpus, paper_ids, year) -> int:
    total = 0
    for pid in paper_ids:
        for _citer, citer_year in corpus.citers[pid]:
            if citer_year == year:
                total += 1
    return total


def journal_impact(corpus: Corpus, journal_id: str, year: int) -> Optional[Fraction]:
    """Two-year impact: citations in ``year`` to papers of the two prior years.

    Returns an exact rational; None when the journal published nothing in
    the window (never divides by zero).
    """
    window_papers = corpus.papers_of_journal(journal_id, (year - 2, year - 1))
    if not window_papers:
        return None
    cites = _citations_in_year_to(corpus, window_papers, year)
    return Fraction(cites, len(window_papers))


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


def build_normalization_table(corpus: Corpus, reference_year: int = 2017,
                              top_field: Optional[str] = None) -> NormalizationTable:
    """Derive the normalization table from the corpus.

    The reference field defaults to the 2-digit category whose papers
    received the most citations during ``reference_year`` (papers in
    several categories count toward each). Supplying ``top_field`` skips
    that choice; a precomputed table can also be loaded from file by the
    pipeline instead of calling this.
    """
    if top_field is None:
        received: dict[str, int] = {}
        for pid, paper in corpus.papers.items():
            jid = corpus.journal_of(pid)
            if jid is None:
                continue
            cites = sum(1 for _c, cy in corpus.citers[pid] if cy == reference_year)
            if cites == 0:
                continue
            for cat in corpus.journals[jid].categories:
                received[cat] = received.get(cat, 0) + cites
        if not received:
            raise ValueError(f"no citations received in {reference_year}")
        top_field = max(sorted(received), key=lambda c: received[c])

    n_top: dict[int, int] = {}
    for pid, paper in corpus.papers.items():
        jid = corpus.journal_of(pid)
        if jid is None or top_field not in corpus.journals[jid].categories:
            continue
        n_top[paper.year] = n_top.get(paper.year, 0) + 1
    if n_top.get(reference_year, 0) <= 0:
        raise ValueError(f"reference field {top_field!r} published nothing "
                         f"in {reference_year}")
    return NormalizationTable(reference_year=reference_year,
                              n_top=dict(sorted(n_top.items())),
                              top_field=top_field)


def immediacy_index(corpus, journal_id, year) -> Optional[float]:
    """Same-year citations per paper; None when nothing was published."""
    papers = corpus.papers_of_journal(journal_id, (year,))
    if not papers:
        return None
    return _citations_in_year_to(corpus, papers, year) / len(papers)


def cited_half_life(corpus, journal_id, year) -> Optional[float]:
    """Median age of the citations the journal receives during ``year``."""
    ages = []
    for jy in sorted(corpus.journals[journal_id].paper_count_by_year):
        for pid in corpus.papers_of_journal(journal_id, (jy,)):
            for _citer, citer_year in corpus.citers[pid]:
                if citer_year == year:
                    ages.append(year - jy)
    if not ages:
        return None
    return float(median(ages))


def citing_half_life(corpus, journal_id, year) -> Optional[float]:
    """Median age of the references made by the journal's ``year`` papers."""
    ages = []
    for pid in corpus.papers_of_journal(journal_id, (year,)):
        for ref in corpus.forward[pid]:
            ages.append(year - corpus.papers[ref].year)
    if not ages:
        return None
    return float(median(ages))


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
    wanted = set(years)
    own: Counter = Counter()
    total: Counter = Counter()
    for paper in corpus.papers.values():
        if paper.year not in wanted:
            continue
        journal = corpus.journals.get(paper.journal_id)
        if journal is None or journal.publisher_id not in corpus.publishers:
            continue
        total[paper.year] += 1
        own[(journal.publisher_id, paper.year)] += 1
    return {(pub, year): own[(pub, year)] / total[year]
            for year in total for pub in corpus.publishers}


def impact_table(corpus, years, table: Optional[NormalizationTable] = None
                 ) -> list[ImpactRecord]:
    """All timing metrics for every journal over ``years``, sorted rows."""
    records = []
    for jid in sorted(corpus.journals):
        for y in years:
            raw = journal_impact(corpus, jid, y)
            records.append(ImpactRecord(
                journal_id=jid,
                year=y,
                impact=raw,
                normalized_impact=_normalized(raw, y, table),
                eligible_paper_count=len(
                    corpus.papers_of_journal(jid, (y - 2, y - 1))),
                immediacy=immediacy_index(corpus, jid, y),
                cited_half_life=cited_half_life(corpus, jid, y),
                citing_half_life=citing_half_life(corpus, jid, y),
            ))
    return records
