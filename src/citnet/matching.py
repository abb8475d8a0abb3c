"""Control-journal selection for flagged journals.

Flagged (questionable) journals are paired with unflagged controls that
share a subject category and a publication-size tercile and sit closest
in impact. Matching runs off a *registry*: a per-journal snapshot of
categories, flag, annual size, and impact for one year. The registry is
built from a corpus and the impact rows of that year, as
``build_registry(corpus, impact_table(corpus, (year,), table))``, or
directly (synthetic registries are used heavily in tests).

``match_all`` matches every flagged journal of a registry, and
``matched_pairs`` gives the sorted (QJ, UJ) pairs of its records.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from statistics import mean, stdev
from typing import Iterable, Optional

from .corpus import Corpus
from .impact import ImpactRecord

logger = logging.getLogger(__name__)

__all__ = [
    "ACTIVE_MIN_PAPERS",
    "RegistryEntry",
    "MatchRecord",
    "TercileReport",
    "build_registry",
    "assign_terciles",
    "match_registry",
    "match_all",
    "matched_pairs",
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


# Rank cuts ceil(n * a / b) of the n active journals, largest first: the
# ranks below the first are "large", below the second "moderate".
_RANK_CUTS = {"terciles": ((1, 3), (2, 3)), "quartiles": ((1, 4), (3, 4))}


def assign_terciles(sizes: dict[str, int], scheme: str = "terciles"
                    ) -> TercileReport:
    """Size bins from journal -> annual size, largest first.

    Only journals with size >= ACTIVE_MIN_PAPERS participate. Boundary
    ties resolve by journal id. ``scheme`` is "terciles", "quartiles"
    (the middle two are moderate) or "log_sigma" (beyond one stdev of
    the mean log size); any other raises ValueError. With fewer than 3
    active journals no partition is meaningful: everything lands in
    "small" and the report is flagged degenerate.
    """
    if scheme not in _RANK_CUTS and scheme != "log_sigma":
        raise ValueError(f"unknown split scheme: {scheme!r}")
    active = {j: s for j, s in sizes.items() if s >= ACTIVE_MIN_PAPERS}
    ordered = sorted(active, key=lambda j: (-active[j], j))
    if len(ordered) < 3:
        return TercileReport(assignment={j: "small" for j in ordered},
                             degenerate=bool(ordered))
    if scheme == "log_sigma":
        logs = [math.log(active[j]) for j in ordered]
        mu, sigma = mean(logs), stdev(logs)
        return TercileReport(assignment={
            jid: "large" if lg > mu + sigma else
                 "small" if lg < mu - sigma else "moderate"
            for jid, lg in zip(ordered, logs)})
    n = len(ordered)
    cut1, cut2 = (-(-n * a // b) for a, b in _RANK_CUTS[scheme])
    return TercileReport(assignment={
        jid: "large" if rank < cut1 else
             "moderate" if rank < cut2 else "small"
        for rank, jid in enumerate(ordered)})


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


def match_all(registry: dict[str, RegistryEntry], scheme: str = "terciles"
              ) -> list[MatchRecord]:
    """``match_registry`` of every flagged journal of the registry, on
    the size bins of ``scheme`` computed once; records by (QJ, category)."""
    terciles = _category_terciles(registry, scheme)
    return sorted((rec for qj_id in sorted(registry)
                   if registry[qj_id].questionable
                   for rec in match_registry(registry, qj_id, terciles)),
                  key=lambda r: (r.qj_id, r.category))


def matched_pairs(matches: Iterable[MatchRecord]) -> list[tuple[str, str]]:
    """The distinct (QJ, UJ) id pairs of the records with a control, sorted."""
    return sorted({(m.qj_id, m.uj_id) for m in matches if m.uj_id})


def binning_diagnostics(registry: dict[str, RegistryEntry],
                        schemes=("terciles", "quartiles", "log_sigma")):
    """Mean impact and size gaps of the matches produced by each size scheme.

    Diagnostic only; the production scheme stays terciles.
    """
    out = {}
    for scheme in schemes:
        matched = [rec for rec in match_all(registry, scheme)
                   if rec.uj_id is not None]
        size_gaps = [abs(registry[rec.uj_id].annual_size
                         - registry[rec.qj_id].annual_size)
                     for rec in matched]
        out[scheme] = {
            "matched": len(matched),
            "mean_impact_gap": (mean(rec.impact_gap for rec in matched)
                                if matched else None),
            "mean_size_gap": mean(size_gaps) if matched else None,
        }
    return out
