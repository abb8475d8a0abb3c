"""Control-journal selection for flagged journals.

Flagged (questionable) journals are paired with unflagged controls that
share a subject category and a publication-size tercile and sit closest
in impact. Matching runs off a *registry*: a per-journal snapshot of
categories, flag, annual size, and impact for one year. The registry is
built from a corpus and the impact rows of that year, or directly
(synthetic registries are used heavily in tests).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from statistics import mean, stdev
from typing import Iterable, Optional

from .corpus import Corpus
from .impact import ImpactRecord, NormalizationTable, impact_table

logger = logging.getLogger(__name__)

__all__ = [
    "ACTIVE_MIN_PAPERS",
    "RegistryEntry",
    "MatchRecord",
    "TercileReport",
    "build_registry",
    "assign_terciles",
    "select_control",
    "match_registry",
    "binning_diagnostics",
]

# Journals publishing fewer papers than this in the target year are
# inactive and take no part in tercile assignment or matching.
ACTIVE_MIN_PAPERS = 30


@dataclass(frozen=True)
class RegistryEntry:
    journal_id: str
    categories: tuple[str, ...]
    questionable: bool
    annual_size: int
    impact: Optional[float]


@dataclass(frozen=True)
class MatchRecord:
    qj_id: str
    category: str
    uj_id: Optional[str]
    impact_gap: Optional[float]
    tercile: Optional[str]


@dataclass
class TercileReport:
    assignment: dict[str, str]
    degenerate: bool = False    # fewer than 3 active journals


def build_registry(corpus: Corpus, records: Iterable[ImpactRecord],
                   impact_kind: str = "normalized") -> dict[str, RegistryEntry]:
    """Snapshot every journal of ``records``, the impact rows of one year.

    ``impact_kind`` selects the impact used for gap comparisons:
    "normalized" (default; None where the rows carry none) or "raw".
    """
    if impact_kind not in ("normalized", "raw"):
        raise ValueError(f"unknown impact kind: {impact_kind!r}")
    registry = {}
    for record in records:
        jid = record.journal_id
        journal = corpus.journals[jid]
        if impact_kind == "normalized":
            imp = record.normalized_impact
        else:
            imp = None if record.impact is None else float(record.impact)
        registry[jid] = RegistryEntry(
            journal_id=jid,
            categories=journal.categories,
            questionable=journal.questionable_flag,
            annual_size=corpus.paper_counts[jid].get(record.year, 0),
            impact=imp,
        )
    return registry


def _tercile_split(ordered, scheme="terciles"):
    """Partition an ordered (largest first) id list into named bins."""
    n = len(ordered)
    if scheme == "terciles":
        cut1 = math.ceil(n / 3)
        cut2 = math.ceil(2 * n / 3)
    elif scheme == "quartiles":
        # top quartile / middle two / bottom quartile
        cut1 = math.ceil(n / 4)
        cut2 = math.ceil(3 * n / 4)
    else:
        raise ValueError(f"unknown split scheme: {scheme!r}")
    out = {}
    for rank, jid in enumerate(ordered):
        if rank < cut1:
            out[jid] = "large"
        elif rank < cut2:
            out[jid] = "moderate"
        else:
            out[jid] = "small"
    return out


def assign_terciles(sizes: dict[str, int], scheme: str = "terciles"
                    ) -> TercileReport:
    """Tercile assignment from journal -> annual size, largest first.

    Only journals with size >= ACTIVE_MIN_PAPERS participate. Boundary
    ties resolve by journal id. With fewer than 3 active journals no
    partition is meaningful: everything lands in "small" and the report
    is flagged degenerate.
    """
    active = {j: s for j, s in sizes.items() if s >= ACTIVE_MIN_PAPERS}
    ordered = sorted(active, key=lambda j: (-active[j], j))
    if len(ordered) < 3:
        return TercileReport(assignment={j: "small" for j in ordered},
                             degenerate=bool(ordered))
    if scheme == "log_sigma":
        logs = [math.log(active[j]) for j in ordered]
        mu = mean(logs)
        sigma = stdev(logs) if len(logs) > 1 else 0.0
        out = {}
        for jid in ordered:
            lg = math.log(active[jid])
            if lg > mu + sigma:
                out[jid] = "large"
            elif lg < mu - sigma:
                out[jid] = "small"
            else:
                out[jid] = "moderate"
        return TercileReport(assignment=out)
    return TercileReport(assignment=_tercile_split(ordered, scheme))


def _category_terciles(registry, scheme="terciles"):
    by_category: dict[str, dict[str, int]] = {}
    for entry in registry.values():
        for cat in entry.categories:
            by_category.setdefault(cat, {})[entry.journal_id] = entry.annual_size
    return {cat: assign_terciles(sizes, scheme=scheme)
            for cat, sizes in by_category.items()}


def match_registry(registry: dict[str, RegistryEntry], qj_id: str,
                   terciles: Optional[dict] = None) -> list[MatchRecord]:
    """Match one flagged journal against the registry, one record per category.

    The control minimizes |impact difference| among unflagged, active,
    same-category, same-tercile journals with defined impact. Ties break
    by smaller |size difference|, then journal id. Categories with no
    eligible candidate yield an empty record (uj_id None).
    """
    qj = registry[qj_id]
    if terciles is None:
        terciles = _category_terciles(registry)
    records = []
    for cat in qj.categories:
        report = terciles.get(cat)
        qj_tercile = report.assignment.get(qj_id) if report else None
        if qj_tercile is None or qj.impact is None:
            records.append(MatchRecord(qj_id, cat, None, None, qj_tercile))
            continue
        best = None
        for cand_id in sorted(report.assignment):
            if cand_id == qj_id:
                continue
            cand = registry[cand_id]
            if cand.questionable or cand.impact is None:
                continue
            if report.assignment[cand_id] != qj_tercile:
                continue
            key = (abs(cand.impact - qj.impact),
                   abs(cand.annual_size - qj.annual_size),
                   cand_id)
            if best is None or key < best:
                best = key
        if best is None:
            logger.info("no eligible control for %s in category %s", qj_id,
                        cat)
            records.append(MatchRecord(qj_id, cat, None, None, qj_tercile))
        else:
            records.append(MatchRecord(qj_id, cat, best[2], best[0], qj_tercile))
    return records


def select_control(corpus: Corpus, qj_id: str, year: int,
                   impact_kind: str = "normalized",
                   table: Optional[NormalizationTable] = None
                   ) -> list[MatchRecord]:
    """Corpus-facing matching: one control record per category of ``qj_id``."""
    registry = build_registry(corpus, impact_table(corpus, (year,), table),
                              impact_kind=impact_kind)
    return match_registry(registry, qj_id)


def binning_diagnostics(registry: dict[str, RegistryEntry],
                        schemes=("terciles", "quartiles", "log_sigma")):
    """Mean impact and size gaps of the matches produced by each size scheme.

    Diagnostic only; the production scheme stays terciles.
    """
    flagged = [j for j, e in sorted(registry.items()) if e.questionable]
    out = {}
    for scheme in schemes:
        terciles = _category_terciles(registry, scheme=scheme)
        impact_gaps = []
        size_gaps = []
        matched = 0
        for qj_id in flagged:
            for rec in match_registry(registry, qj_id, terciles=terciles):
                if rec.uj_id is None:
                    continue
                matched += 1
                impact_gaps.append(rec.impact_gap)
                size_gaps.append(abs(registry[rec.uj_id].annual_size
                                     - registry[qj_id].annual_size))
        out[scheme] = {
            "matched": matched,
            "mean_impact_gap": mean(impact_gaps) if impact_gaps else None,
            "mean_size_gap": mean(size_gaps) if size_gaps else None,
        }
    return out
