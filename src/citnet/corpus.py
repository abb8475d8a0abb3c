"""Bibliographic corpus: records, loading, the citation graph, and validation.

The corpus is the read-only substrate every metric runs on. It is built
from three interchange files (see ``load_corpus``) or in memory, and is
never mutated. Its records hold only the fields of those files. The rest
is derived once, on first use: the integer code of every reference (the
one pass over the reference strings), and from those codes the
``CitationGraph`` in ``Corpus.ids`` node order, the ``LoadReport`` and
the reference checks of ``validate_corpus``; each journal's papers per
year and each publisher's journals.

Serial-number (ISSN) helpers live here as well because journal registry
construction is a corpus concern.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field, fields
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
    """What a corpus holds that the metrics leave out, for inspection.

    References are listed by paper id and list position; a duplicate is
    each occurrence after the first in its list. Dangling references are
    not graph edges, so no rate denominator counts an unresolvable edge.
    """

    dangling_references: list[tuple[str, str]]
    self_references: list[str]
    duplicate_references: list[tuple[str, str]]
    unknown_journal_papers: list[str]
    unknown_publisher_journals: list[str]

    def summary(self):
        return {f.name: len(getattr(self, f.name)) for f in fields(self)}


@dataclass
class CitationGraph:
    """Papers as integer nodes, citations as the edges (src[e], dst[e]).

    Node arrays hold codes into ``journal_ids`` and ``publishers`` (-1:
    journal or publisher unregistered); ``src`` and ``dst`` are int64.
    """

    journal_ids: list[str]            # journal code -> id
    publishers: list[list[str]]       # publisher code -> its journal ids
    journal_of: np.ndarray            # node -> journal code
    publisher_of: np.ndarray          # node -> publisher code
    year_of: np.ndarray               # node -> publication year
    src: np.ndarray                   # edge -> citing node
    dst: np.ndarray                   # edge -> cited node

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
    ids : paper ids, sorted; node v of ``graph`` is ``ids[v]``
    node : dict paper_id -> graph node
    reference_codes : (row, code, edge, names) of every reference
    graph : CitationGraph, one edge per reference naming another paper,
        in node order and then list order, repeats kept; the selfcite
        count table and psi run on it as on a synthetic net
    load_report : LoadReport, derived for every corpus
    paper_counts : dict journal_id -> {year: papers}, years ascending,
        for every registered journal (an empty dict when it has none)
    publisher_journals : dict publisher_id -> sorted ids of the
        journals that name it, for every registered publisher
    forward : read-only view of the graph, paper_id -> cited ids
    The records hold only what the input files hold; everything else
    is built on first use.
    """

    def __init__(self, papers, journals, publishers,
                 year_range=DEFAULT_YEAR_RANGE):
        self.papers: dict[str, Paper] = papers
        self.journals: dict[str, Journal] = journals
        self.publishers: dict[str, Publisher] = publishers
        self.year_range = tuple(year_range)

    # -- lookups -----------------------------------------------------------

    @cached_property
    def ids(self) -> list[str]:
        return sorted(self.papers)

    @cached_property
    def node(self) -> dict[str, int]:
        return {pid: v for v, pid in enumerate(self.ids)}

    @cached_property
    def reference_codes(self):
        """The one walk over the reference strings: per reference, papers
        in ``ids`` order, its citing node, its code (the cited node, or a
        negative code per distinct id the corpus lacks) and whether it is
        a graph edge (names another paper); then ``names``, the id of
        each code c at ``names[c]``, so unresolved ids come last."""
        lists = [self.papers[pid].references for pid in self.ids]
        code_of = dict(self.node)
        n = len(code_of)
        code = np.array([code_of.setdefault(ref, n - 1 - len(code_of))
                         for refs in lists for ref in refs], dtype=np.int64)
        row = np.repeat(np.arange(n, dtype=np.int64),
                        [len(refs) for refs in lists])
        return (row, code, (code >= 0) & (code != row),
                self.ids + list(code_of)[n:][::-1])

    @cached_property
    def graph(self) -> CitationGraph:
        journal_ids = sorted(self.journals)
        journal_code = {j: i for i, j in enumerate(journal_ids)}
        publisher_ids = sorted(self.publishers)
        publisher_code = {p: i for i, p in enumerate(publisher_ids)}
        papers = [self.papers[pid] for pid in self.ids]
        journal_of = np.array([journal_code.get(p.journal_id, -1)
                               for p in papers], dtype=np.int64)
        # the trailing -1 is the publisher of journal code -1
        publisher_of = np.array([publisher_code.get(
            self.journals[j].publisher_id, -1) for j in journal_ids] + [-1])
        row, code, edge, _ = self.reference_codes
        return CitationGraph(
            journal_ids=journal_ids,
            publishers=[list(self.publisher_journals[p])
                        for p in publisher_ids],
            journal_of=journal_of, publisher_of=publisher_of[journal_of],
            year_of=np.array([p.year for p in papers], dtype=np.int64),
            src=row[edge], dst=code[edge])

    @cached_property
    def load_report(self) -> LoadReport:
        ids, (row, code, _, names) = self.ids, self.reference_codes
        key = row * len(names) + code   # argsort: np.unique imports numpy.ma
        order = np.argsort(key, kind="stable")
        repeat = np.zeros(len(key), dtype=bool)
        repeat[order[1:]] = key[order[1:]] == key[order[:-1]]

        def listed(mask):
            return [(ids[v], names[c]) for v, c in
                    zip(row[mask].tolist(), code[mask].tolist())]

        return LoadReport(
            dangling_references=listed(code < 0),
            self_references=[ids[v] for v in row[code == row].tolist()],
            duplicate_references=listed(repeat),
            unknown_journal_papers=[ids[v] for v in np.flatnonzero(
                self.graph.journal_of < 0).tolist()],
            unknown_publisher_journals=[
                jid for jid, journal in self.journals.items()
                if journal.publisher_id is not None
                and journal.publisher_id not in self.publishers])

    @cached_property
    def paper_counts(self) -> dict[str, dict[int, int]]:
        return self.graph.paper_counts()

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
        try:        # join raises TypeError on any element not a string
            "".join(val if isinstance(val, list) else [None])
        except TypeError:
            raise CorpusFormatError(path, lineno, name,
                                    "must be a list of strings") from None
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

    Only the records are read; ``Corpus.load_report`` is derived from
    them on first use, as for a corpus built in memory.

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
        listed in the load report.
    """
    papers_path = Path(paths["papers"])
    journals_path = Path(paths["journals"])
    publishers_path = Path(paths["publishers"])
    for p in (papers_path, journals_path, publishers_path):
        if not p.exists():
            raise FileNotFoundError(p)

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

    return Corpus(papers, journals, publishers, year_range=year_range)


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

    def by_kind(self, kind):
        return [v for v in self.violations if v.kind == kind]


def validate_corpus(corpus: Corpus) -> ValidationReport:
    """Check every record invariant; violations are report content, not errors.

    Papers come first, then journals, then publishers, each by id and
    each with its kinds in the order listed here.
    """
    lo, hi = corpus.year_range
    ids, journals, load = corpus.ids, corpus.journals, corpus.load_report
    year_of = corpus.graph.year_of
    out = np.flatnonzero((year_of < lo) | (year_of > hi))
    # (group, id, rank, kind, detail); groups: papers, journals, publishers
    found = [(0, ids[v], 0, "year_out_of_range",
              f"year {y} outside [{lo}, {hi}]")
             for v, y in zip(out.tolist(), year_of[out].tolist())]
    found += [(0, pid, 1, "self_reference", "paper cites itself")
              for pid in dict.fromkeys(load.self_references)]
    found += [(0, pid, 2, "duplicate_reference",
               "reference list has duplicates")
              for pid in dict.fromkeys(p for p, _ in
                                       load.duplicate_references)]
    found += [(0, pid, 3, "unknown_journal", f"journal "
               f"{corpus.papers[pid].journal_id!r} not registered")
              for pid in load.unknown_journal_papers]
    found += [(1, jid, 0, "issn_checksum", f"invalid ISSN {issn!r}")
              for jid, journal in journals.items()
              for issn in journal.issns if not validate_issn(issn)]
    found += [(1, jid, 1, "empty_categories", "no subject categories")
              for jid, journal in journals.items() if not journal.categories]
    found += [(1, jid, 2, "unknown_publisher", f"publisher "
               f"{journals[jid].publisher_id!r} not registered")
              for jid in load.unknown_publisher_journals]
    found += [(2, pub, 0, "empty_publisher", "no journals")
              for pub, members in corpus.publisher_journals.items()
              if not members]
    found.sort(key=lambda f: f[:3])     # stable: ISSNs keep their list order
    return ValidationReport([Violation(kind, entity, detail)
                             for _, entity, _, kind, detail in found])


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
