"""Bibliographic corpus: records, loading, the citation graph, and validation.

The corpus is the read-only substrate every metric runs on. It is built
from three interchange files (see ``load_corpus``) and, once loaded, is
never mutated. Its records hold only the fields of those files. What
the metrics read besides them is derived once, on first use: the one
citation structure, the integer ``CitationGraph`` over the papers'
reference lists in ``Corpus.ids`` node order, each journal's papers per
year and each publisher's journals.

Serial-number (ISSN) helpers live here as well because journal registry
construction is a corpus concern.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

__all__ = [
    "Paper",
    "Journal",
    "Publisher",
    "CitationGraph",
    "count_rows",
    "row_pairs",
    "distinct",
    "csr_pointer",
    "csr_expand",
    "Corpus",
    "CorpusFormatError",
    "LoadReport",
    "ValidationReport",
    "Violation",
    "load_corpus",
    "validate_corpus",
    "issn_check_digit",
    "validate_issn",
    "extract_issns",
]

DEFAULT_YEAR_RANGE = (1996, 2018)

# Multi-valued CSV cells (issns, categories) use this separator.
LIST_SEP = "|"


class CorpusFormatError(ValueError):
    """Raised when an input file cannot be parsed into corpus records."""

    def __init__(self, path, line, fieldname, message):
        self.path = str(path)
        self.line = line
        self.fieldname = fieldname
        super().__init__(f"{path}:{line}: field '{fieldname}': {message}")


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Paper:
    paper_id: str
    journal_id: str
    year: int
    author_keys: tuple[str, ...] = ()
    references: tuple[str, ...] = ()


@dataclass(frozen=True)
class Journal:
    journal_id: str
    issns: tuple[str, ...] = ()
    publisher_id: Optional[str] = None
    categories: tuple[str, ...] = ()
    questionable_flag: bool = False


@dataclass(frozen=True)
class Publisher:
    publisher_id: str
    name: str = ""


@dataclass
class LoadReport:
    """What the loader had to tolerate, kept for inspection.

    Dangling references stay listed here and are not citation graph
    edges, so no rate denominator ever counts an unresolvable edge.
    """

    dangling_references: list[tuple[str, str]] = field(default_factory=list)
    self_references: list[str] = field(default_factory=list)
    duplicate_references: list[tuple[str, str]] = field(default_factory=list)
    unknown_journal_papers: list[str] = field(default_factory=list)
    unknown_publisher_journals: list[str] = field(default_factory=list)

    def summary(self):
        return {
            "dangling_references": len(self.dangling_references),
            "self_references": len(self.self_references),
            "duplicate_references": len(self.duplicate_references),
            "unknown_journal_papers": len(self.unknown_journal_papers),
            "unknown_publisher_journals": len(self.unknown_publisher_journals),
        }


@dataclass
class CitationGraph:
    """Papers as integer nodes, citations as the edges (src[e], dst[e]).

    Node arrays hold codes into ``journal_ids`` and ``publishers`` (-1:
    journal or publisher unregistered). ``src`` and ``dst`` are int64
    arrays in a corpus's graph and lists in a synthetic net, whose
    ``dst`` the rewiring loop retargets in place.
    """

    journal_ids: list[str]            # journal code -> id
    publishers: list[list[str]]       # publisher code -> its journal ids
    journal_of: np.ndarray            # node -> journal code
    publisher_of: np.ndarray          # node -> publisher code
    year_of: np.ndarray               # node -> publication year
    src: np.ndarray | list[int]
    dst: np.ndarray | list[int]

    @property
    def n_nodes(self):
        return len(self.year_of)

    def paper_counts(self) -> dict[str, dict[int, int]]:
        """journal id -> {year: papers}, years ascending, for every
        journal code; papers of an unregistered journal never count."""
        counts: dict[str, dict[int, int]] = {j: {} for j in self.journal_ids}
        for (j, year), n in count_rows(self.journal_of, self.year_of).items():
            counts[self.journal_ids[j]][year] = n
        return counts

    def journal_pair_counts(self, mask=True) -> dict[tuple[str, str], int]:
        """Edges selected by ``mask`` per (citing, cited) journal pair.

        ``mask`` is a boolean per edge, or True for all edges. Pairs come
        sorted; edges with an unregistered journal never count.
        """
        cited = self.journal_of[self.dst]
        keep = (cited >= 0) & mask
        ids = self.journal_ids
        return {(ids[a], ids[b]): c for (a, b), c in count_rows(
            self.journal_of[self.src][keep], cited[keep]).items()}


def count_rows(*columns) -> dict[tuple, int]:
    """How often each row of the int arrays ``columns`` occurs, rows
    sorted, rows whose first entry (a journal or publisher code) is -1
    left out; one ``np.unique`` over mixed-radix row keys."""
    keep = columns[0] >= 0
    columns = [c[keep] for c in columns]
    lo = min(int(c.min(initial=0)) for c in columns)
    base = max(int(c.max(initial=0)) for c in columns) - lo + 1
    key = 0
    for c in columns:
        key = key * base + (c - lo)
    key, counts = np.unique(key, return_counts=True)
    rows = []
    for _c in columns:
        key, digit = np.divmod(key, base)
        rows.insert(0, (digit + lo).tolist())
    return dict(zip(zip(*rows), counts.tolist()))


def distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an integer array: ``np.unique(values)``
    without its first call importing ``numpy.ma`` (about 1.3 MiB)."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def csr_pointer(rows: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointer of n rows for items with row labels ``rows``, once
    the items are put in row order."""
    return np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))


def csr_expand(items: np.ndarray, pointer: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """(i, k) for every item i and every position k of row ``items[i]``."""
    start = pointer[items]
    count = pointer[items + 1] - start
    which = np.repeat(np.arange(len(items)), count)
    skip = np.cumsum(count) - count - start
    return which, np.arange(len(which)) - np.repeat(skip, count)


def row_pairs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions (i, j), i < j, of every two entries in one row.

    ``rows`` holds each entry's row label, sorted, so a row's entries are
    contiguous; a row of k entries gives its C(k, 2) pairs, i ascending
    and then j. Co-occurrence counts are one ``np.unique`` over a key
    built from the pairs.
    """
    row_end = np.searchsorted(rows, rows, side="right")
    later = row_end - np.arange(len(rows)) - 1      # row entries after each
    first = np.repeat(np.arange(len(rows)), later)
    offset = np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    return first, first + 1 + offset


class Corpus:
    """Immutable corpus: the records and what is derived from them.

    Attributes
    ----------
    papers : dict paper_id -> Paper
    journals : dict journal_id -> Journal
    publishers : dict publisher_id -> Publisher
    load_report : LoadReport
    ids : paper ids, sorted; node v of ``graph`` is ``ids[v]``
    node : dict paper_id -> graph node
    graph : CitationGraph, one edge per reference that ``is_edge``
        accepts, in node order and then list order, repeats kept
    paper_counts : dict journal_id -> {year: papers}, years ascending,
        for every registered journal (an empty dict when it has none)
    publisher_journals : dict publisher_id -> sorted ids of the
        journals that name it, for every registered publisher
    forward : read-only view of the graph, paper_id -> cited ids
    The records hold only what the input files hold; everything else
    is built on first use.
    """

    def __init__(self, papers, journals, publishers, load_report,
                 year_range=DEFAULT_YEAR_RANGE):
        self.papers: dict[str, Paper] = papers
        self.journals: dict[str, Journal] = journals
        self.publishers: dict[str, Publisher] = publishers
        self.load_report = load_report
        self.year_range = tuple(year_range)

    # -- lookups -----------------------------------------------------------

    def is_edge(self, paper_id, ref) -> bool:
        """Whether reference ``ref`` of ``paper_id`` is a graph edge: it
        names another paper of the corpus (not dangling, not self)."""
        return ref != paper_id and ref in self.papers

    @cached_property
    def ids(self) -> list[str]:
        return sorted(self.papers)

    @cached_property
    def node(self) -> dict[str, int]:
        return {pid: v for v, pid in enumerate(self.ids)}

    @cached_property
    def graph(self) -> CitationGraph:
        ids, node = self.ids, self.node
        journal_ids = sorted(self.journals)
        journal_code = {j: i for i, j in enumerate(journal_ids)}
        publisher_ids = sorted(self.publishers)
        publisher_code = {p: i for i, p in enumerate(publisher_ids)}
        papers = [self.papers[pid] for pid in ids]
        journal_of = np.array([journal_code.get(p.journal_id, -1)
                               for p in papers], dtype=np.int64)
        # the trailing -1 is the publisher of journal code -1
        publisher_of = np.array([publisher_code.get(
            self.journals[j].publisher_id, -1) for j in journal_ids] + [-1])
        cited = [[node[r] for r in p.references if self.is_edge(p.paper_id, r)]
                 for p in papers]
        return CitationGraph(
            journal_ids=journal_ids,
            publishers=[list(self.publisher_journals[p])
                        for p in publisher_ids],
            journal_of=journal_of, publisher_of=publisher_of[journal_of],
            year_of=np.array([p.year for p in papers], dtype=np.int64),
            src=np.repeat(np.arange(len(ids), dtype=np.int64),
                          [len(refs) for refs in cited]),
            dst=np.array([t for refs in cited for t in refs], dtype=np.int64))

    @cached_property
    def paper_counts(self) -> dict[str, dict[int, int]]:
        return self.graph.paper_counts()

    def paper_count(self, journal_id, years=None) -> int:
        """Papers of a registered journal, in ``years`` or in all years."""
        by_year = self.paper_counts[journal_id]
        if years is None:
            return sum(by_year.values())
        return sum(by_year.get(y, 0) for y in years)

    @cached_property
    def publisher_journals(self) -> dict[str, tuple[str, ...]]:
        members: dict[str, list[str]] = {p: [] for p in sorted(self.publishers)}
        for jid in sorted(self.journals):
            pub = self.journals[jid].publisher_id
            if pub in members:
                members[pub].append(jid)
        return {p: tuple(jids) for p, jids in members.items()}

    @cached_property
    def forward(self) -> Mapping[str, tuple[str, ...]]:
        graph, ids = self.graph, self.ids
        cited = [ids[t] for t in graph.dst.tolist()]
        pointer = csr_pointer(graph.src, len(ids)).tolist()
        return MappingProxyType({pid: tuple(cited[pointer[v]:pointer[v + 1]])
                                 for v, pid in enumerate(ids)})

    def citation_edges(self):
        """(citing_id, cited_id) for every edge of the graph, in its order."""
        ids = self.ids
        for s, t in zip(self.graph.src.tolist(), self.graph.dst.tolist()):
            yield ids[s], ids[t]


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

_PAPER_FIELDS = ("paper_id", "journal_id", "year", "author_keys", "references")


def _parse_paper_line(path, lineno, raw):
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(path, lineno, "<record>", f"invalid JSON: {exc}")
    if not isinstance(obj, dict):
        raise CorpusFormatError(path, lineno, "<record>", "expected an object")
    for name in _PAPER_FIELDS:
        if name not in obj:
            raise CorpusFormatError(path, lineno, name, "missing")
    if not isinstance(obj["paper_id"], str) or not obj["paper_id"]:
        raise CorpusFormatError(path, lineno, "paper_id", "must be a non-empty string")
    if not isinstance(obj["journal_id"], str):
        raise CorpusFormatError(path, lineno, "journal_id", "must be a string")
    if not isinstance(obj["year"], int):
        raise CorpusFormatError(path, lineno, "year", "must be an integer")
    for name in ("author_keys", "references"):
        val = obj[name]
        if not isinstance(val, list) or not all(isinstance(x, str) for x in val):
            raise CorpusFormatError(path, lineno, name, "must be a list of strings")
    return Paper(
        paper_id=obj["paper_id"],
        journal_id=obj["journal_id"],
        year=obj["year"],
        author_keys=tuple(obj["author_keys"]),
        references=tuple(obj["references"]),
    )


def _read_csv(path, required):
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for name in required:
            if name not in header:
                raise CorpusFormatError(path, 1, name, "missing column")
        for lineno, row in enumerate(reader, start=2):
            yield lineno, row


def _parse_bool(path, lineno, fieldname, raw):
    val = (raw or "").strip().lower()
    if val in ("true", "1", "yes"):
        return True
    if val in ("false", "0", "no", ""):
        return False
    raise CorpusFormatError(path, lineno, fieldname, f"not a boolean: {raw!r}")


def load_corpus(paths, year_range=DEFAULT_YEAR_RANGE) -> Corpus:
    """Load a corpus from interchange files.

    Parameters
    ----------
    paths : mapping with keys ``papers``, ``journals``, ``publishers``
        ``papers`` is a JSON-lines file (one object per paper with fields
        paper_id, journal_id, year, author_keys[], references[]);
        ``journals`` and ``publishers`` are CSV files with declared
        headers. Multi-valued cells use ``|`` as separator.
    year_range : inclusive (first, last) publication years considered
        in range; out-of-range years load fine and are reported by
        ``validate_corpus``.

    Raises
    ------
    CorpusFormatError
        On malformed records (naming file, line and field) and on
        duplicate ids. Dangling references are *not* errors; they are
        collected in the load report.
    """
    papers_path = Path(paths["papers"])
    journals_path = Path(paths["journals"])
    publishers_path = Path(paths["publishers"])
    for p in (papers_path, journals_path, publishers_path):
        if not p.exists():
            raise FileNotFoundError(p)

    report = LoadReport()

    publishers: dict[str, Publisher] = {}
    for lineno, row in _read_csv(publishers_path, ("publisher_id",)):
        pub_id = (row["publisher_id"] or "").strip()
        if not pub_id:
            raise CorpusFormatError(publishers_path, lineno, "publisher_id", "empty")
        if pub_id in publishers:
            raise CorpusFormatError(publishers_path, lineno, "publisher_id",
                                    f"duplicate id {pub_id!r}")
        publishers[pub_id] = Publisher(publisher_id=pub_id,
                                       name=(row.get("name") or "").strip())

    journals: dict[str, Journal] = {}
    journal_csv = ("journal_id", "issns", "publisher_id", "categories",
                   "questionable_flag")
    for lineno, row in _read_csv(journals_path, journal_csv):
        jid = (row["journal_id"] or "").strip()
        if not jid:
            raise CorpusFormatError(journals_path, lineno, "journal_id", "empty")
        if jid in journals:
            raise CorpusFormatError(journals_path, lineno, "journal_id",
                                    f"duplicate id {jid!r}")
        issns = tuple(s.strip() for s in (row["issns"] or "").split(LIST_SEP)
                      if s.strip())
        categories = tuple(s.strip() for s in (row["categories"] or "").split(LIST_SEP)
                           if s.strip())
        publisher_id = (row["publisher_id"] or "").strip() or None
        if publisher_id is not None and publisher_id not in publishers:
            report.unknown_publisher_journals.append(jid)
        journals[jid] = Journal(
            journal_id=jid,
            issns=issns,
            publisher_id=publisher_id,
            categories=categories,
            questionable_flag=_parse_bool(journals_path, lineno,
                                          "questionable_flag",
                                          row["questionable_flag"]),
        )

    papers: dict[str, Paper] = {}
    with papers_path.open(encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            paper = _parse_paper_line(papers_path, lineno, raw)
            if paper.paper_id in papers:
                raise CorpusFormatError(papers_path, lineno, "paper_id",
                                        f"duplicate id {paper.paper_id!r}")
            papers[paper.paper_id] = paper

    # Reference hygiene is reported, never silently repaired.
    for pid in sorted(papers):
        paper = papers[pid]
        seen: set[str] = set()
        for ref in paper.references:
            if ref == pid:
                report.self_references.append(pid)
            elif ref not in papers:
                report.dangling_references.append((pid, ref))
            if ref in seen:
                report.duplicate_references.append((pid, ref))
            seen.add(ref)
        if paper.journal_id not in journals:
            report.unknown_journal_papers.append(pid)

    return Corpus(papers, journals, publishers, report, year_range=year_range)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    kind: str
    entity: str
    detail: str


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def is_clean(self) -> bool:
        return not self.violations

    def add(self, kind, entity, detail):
        self.violations.append(Violation(kind, entity, detail))

    def by_kind(self, kind):
        return [v for v in self.violations if v.kind == kind]


def validate_corpus(corpus: Corpus) -> ValidationReport:
    """Check every record invariant; violations are report content, not errors."""
    report = ValidationReport()
    lo, hi = corpus.year_range

    for pid in corpus.ids:
        paper = corpus.papers[pid]
        if not (lo <= paper.year <= hi):
            report.add("year_out_of_range", pid,
                       f"year {paper.year} outside [{lo}, {hi}]")
        if pid in paper.references:
            report.add("self_reference", pid, "paper cites itself")
        if len(set(paper.references)) != len(paper.references):
            report.add("duplicate_reference", pid, "reference list has duplicates")
        if paper.journal_id not in corpus.journals:
            report.add("unknown_journal", pid,
                       f"journal {paper.journal_id!r} not registered")

    for jid in sorted(corpus.journals):
        journal = corpus.journals[jid]
        for issn in journal.issns:
            if not validate_issn(issn):
                report.add("issn_checksum", jid, f"invalid ISSN {issn!r}")
        if not journal.categories:
            report.add("empty_categories", jid, "no subject categories")
        if (journal.publisher_id is not None
                and journal.publisher_id not in corpus.publishers):
            report.add("unknown_publisher", jid,
                       f"publisher {journal.publisher_id!r} not registered")

    for pub_id, members in corpus.publisher_journals.items():
        if not members:
            report.add("empty_publisher", pub_id, "no journals")

    return report


# ---------------------------------------------------------------------------
# ISSN utilities
# ---------------------------------------------------------------------------

_ISSN_SHAPE = re.compile(r"^\d{4}-\d{3}[\dX]$")

# Token boundaries for keyword scanning: whitespace plus ,;()<>"'
_TOKEN_SPLIT = re.compile(r"[\s,;()<>\"']+")


def issn_check_digit(digits7: str) -> str:
    """Check character for the first seven digits: weights 8..2, mod 11.

    A remainder of 0 maps to '0'; a required check value of 10 is encoded
    as 'X'.
    """
    if len(digits7) != 7 or not digits7.isdigit():
        raise ValueError("expected exactly seven digits")
    total = sum(int(c) * w for c, w in zip(digits7, range(8, 1, -1)))
    rem = total % 11
    if rem == 0:
        return "0"
    check = 11 - rem
    return "X" if check == 10 else str(check)


def validate_issn(candidate: str) -> bool:
    """True iff ``candidate`` is a well-formed, checksum-valid serial number.

    The accepted shape is exactly ``XXXX-XXXX`` with a digit or ``X`` in
    the final position; anything else returns False (never raises).
    """
    if not isinstance(candidate, str) or not _ISSN_SHAPE.match(candidate):
        return False
    return candidate[-1] == issn_check_digit(candidate[:4] + candidate[5:8])


def extract_issns(text: str, keyword_case_sensitive: bool = False) -> list[str]:
    """Scan free text for serial numbers announced by an ``ISSN`` keyword.

    For every token equal to ``ISSN`` or ``ISSN:`` the next five tokens
    (split on whitespace and ``,;()<>"'``) are examined; tokens shaped
    ``XXXX-XXXX`` that pass the checksum are collected. Results are
    deduplicated in first-appearance order. Numbers not preceded by the
    keyword within five tokens are ignored.
    """
    tokens = [t for t in _TOKEN_SPLIT.split(text) if t]
    keywords = {"ISSN", "ISSN:"}
    found: list[str] = []
    seen: set[str] = set()
    for i, token in enumerate(tokens):
        probe = token if keyword_case_sensitive else token.upper()
        if probe not in keywords:
            continue
        for candidate in tokens[i + 1:i + 6]:
            if validate_issn(candidate) and candidate not in seen:
                seen.add(candidate)
                found.append(candidate)
    return found
