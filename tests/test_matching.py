import numpy as np
import pytest

from citnet.impact import impact_table
from citnet.matching import (MatchRecord, RegistryEntry, TercileReport,
                             _category_terciles, assign_terciles,
                             binning_diagnostics, build_registry, match_all,
                             match_registry, matched_pairs)

import oracles
from conftest import make_corpus

SCHEMES = ("terciles", "quartiles", "log_sigma")


def entry(jid, impact, size=100, categories=("10",), questionable=False):
    return RegistryEntry(journal_id=jid, categories=tuple(categories),
                         questionable=questionable, annual_size=size,
                         impact=impact)


def fillers(categories=("10",), prefix="F"):
    """Padding journals so the journals under test share one tercile.

    Four big ones claim "large" and four tiny ones claim "small",
    leaving the ~100-sized journals of interest together in "moderate".
    All carry impacts far from anything a test matches against.
    """
    pad = {}
    for i, size in enumerate((3000, 2900, 2800, 2700, 33, 32, 31, 30)):
        jid = f"{prefix}{i}"
        pad[jid] = entry(jid, 99.0 + i, size=size, categories=categories)
    return pad


def test_terciles_exact_split():
    # sizes 1..9, scaled into the active range
    sizes = {f"J{i}": 30 * i for i in range(1, 10)}
    report = assign_terciles(sizes)
    assert not report.degenerate
    assert {j for j, t in report.assignment.items() if t == "large"} == \
        {"J7", "J8", "J9"}
    assert {j for j, t in report.assignment.items() if t == "moderate"} == \
        {"J4", "J5", "J6"}
    assert {j for j, t in report.assignment.items() if t == "small"} == \
        {"J1", "J2", "J3"}


def test_terciles_partition():
    rng = np.random.default_rng(3)
    sizes = {f"J{i}": int(rng.integers(30, 500)) for i in range(40)}
    assignment = assign_terciles(sizes).assignment
    assert set(assignment) == set(sizes)
    for tercile in ("large", "moderate", "small"):
        assert any(t == tercile for t in assignment.values())


def test_inactive_journal_excluded():
    sizes = {"J1": 29, "J2": 30, "J3": 31, "J4": 40}
    report = assign_terciles(sizes)
    assert "J1" not in report.assignment
    assert set(report.assignment) == {"J2", "J3", "J4"}


def test_tercile_ties_break_by_id():
    sizes = {"B": 100, "A": 100, "C": 100}
    assignment = assign_terciles(sizes).assignment
    assert assignment == {"A": "large", "B": "moderate", "C": "small"}


def test_too_few_journals_flagged():
    report = assign_terciles({"J1": 50, "J2": 60})
    assert report.degenerate
    assert set(report.assignment.values()) == {"small"}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_assign_terciles_equals_reference(scheme):
    # sizes from 28-32 (around ACTIVE_MIN_PAPERS, many ties), 25-59 or
    # 1-4999, for 0-40 journals inserted in random id order
    rng = np.random.default_rng(7)
    degenerate_seen = set()
    for _ in range(600):
        n = int(rng.integers(0, 41))
        low, high = ((28, 33), (25, 60), (1, 5000))[int(rng.integers(0, 3))]
        sizes = {f"J{k}": int(size) for k, size in
                 zip(rng.permutation(n), rng.integers(low, high, size=n))}
        report = assign_terciles(sizes, scheme)
        assignment, degenerate = oracles.tercile_reference(sizes, scheme)
        assert list(report.assignment.items()) == list(assignment.items())
        assert report.degenerate == degenerate
        degenerate_seen.add(degenerate)
    assert degenerate_seen == {False, True}


@pytest.mark.parametrize("sizes", [{}, {"J1": 50, "J2": 60},
                                   {"J1": 50, "J2": 60, "J3": 70}])
def test_unknown_scheme_raises_at_every_size(sizes):
    with pytest.raises(ValueError, match="unknown split scheme: 'bogus'"):
        assign_terciles(sizes, "bogus")


def test_size_terciles_from_corpus():
    papers = []
    for i, count in enumerate((35, 40, 45), start=1):
        papers += [(f"p{i}_{k}", f"J{i}", 2005, []) for k in range(count)]
    corpus = make_corpus(papers, {f"J{i}": {"categories": ("10",)}
                                  for i in (1, 2, 3)})
    report = _category_terciles(build_registry(
        corpus, impact_table(corpus, (2005,)), impact_kind="raw"))["10"]
    assert report.assignment == {"J3": "large", "J2": "moderate",
                                 "J1": "small"}


def test_select_nearest_impact():
    registry = dict(fillers(), **{
        "Q": entry("Q", 1.2, questionable=True),
        "A": entry("A", 0.8), "B": entry("B", 1.3), "C": entry("C", 2.0),
    })
    records = match_registry(registry, "Q")
    assert len(records) == 1
    assert records[0].uj_id == "B"
    assert records[0].impact_gap == pytest.approx(0.1)
    assert records[0].tercile == "moderate"


def test_exact_match_gap_zero():
    registry = dict(fillers(), **{
        "Q": entry("Q", 1.2, questionable=True),
        "A": entry("A", 1.2), "B": entry("B", 1.4), "C": entry("C", 0.9)})
    records = match_registry(registry, "Q")
    assert records[0].uj_id == "A"
    assert records[0].impact_gap == 0.0


def two_category_registry():
    registry = {**fillers(("10",), "F"), **fillers(("20",), "G")}
    registry.update({
        "Q": entry("Q", 1.0, categories=("10", "20"), questionable=True),
        "A": entry("A", 1.1, categories=("10",)),
        "B": entry("B", 0.9, categories=("20",)),
        "C": entry("C", 3.0, categories=("10", "20")),
    })
    return registry


def test_one_record_per_category():
    records = match_registry(two_category_registry(), "Q")
    assert [r.category for r in records] == ["10", "20"]
    assert records[0].uj_id == "A"
    assert records[1].uj_id == "B"


def test_never_matches_flagged_or_self():
    registry = dict(fillers(), **{
        "Q": entry("Q", 1.0, questionable=True),
        "Q2": entry("Q2", 1.0, questionable=True),
        "A": entry("A", 5.0),
    })
    records = match_registry(registry, "Q")
    assert records[0].uj_id == "A"


def flagged_only_registry():
    return {"Q": entry("Q", 1.0, questionable=True),
            "Q2": entry("Q2", 1.1, questionable=True)}


def test_empty_category_logged_as_empty_record():
    records = match_registry(flagged_only_registry(), "Q")
    assert records[0].uj_id is None
    assert records[0].impact_gap is None


def test_tie_breaks_by_size_then_id():
    registry = dict(fillers(), **{
        "Q": entry("Q", 1.0, size=100, questionable=True),
        "A": entry("A", 1.1, size=300),
        "B": entry("B", 0.9, size=110),
        "C": entry("C", 0.9, size=110),
    })
    records = match_registry(registry, "Q")
    # equal impact gap 0.1: B and C are closer in size than A; B wins by id
    assert records[0].uj_id == "B"


def test_registry_from_corpus_selects_nearest_control():
    papers = []
    # journals under test: 40 papers in each of 2003-2005
    for jid in ("Q", "U1", "U2"):
        for year in (2003, 2004, 2005):
            papers += [(f"{jid}{year}_{k}", jid, year, [])
                       for k in range(40)]
    # padding so Q, U1, U2 share the moderate tercile in 2005
    journals = {"Q": {"categories": ("10",), "questionable": True},
                "U1": {"categories": ("10",)},
                "U2": {"categories": ("10",)},
                "EXT": {"categories": ("90",)}}
    for i, size in enumerate((100, 101, 102, 30, 31, 32)):
        jid = f"PAD{i}"
        journals[jid] = {"categories": ("10",)}
        papers += [(f"{jid}_{k}", jid, 2005, []) for k in range(size)]
    # citations in 2005 targeting the 2003/2004 papers: Q gets 4, U1 3, U2 8
    k = 0
    for jid, cites in (("Q", 4), ("U1", 3), ("U2", 8)):
        for i in range(cites):
            papers.append((f"c{k}", "EXT", 2005, [f"{jid}2004_{i}"]))
            k += 1
    corpus = make_corpus(papers, journals)
    registry = build_registry(corpus, impact_table(corpus, (2005,)),
                              impact_kind="raw")
    records = match_registry(registry, "Q")
    assert len(records) == 1
    # impacts: Q = 4/80, U1 = 3/80, U2 = 8/80; U1 is nearest
    assert records[0].uj_id == "U1"
    assert records[0].tercile == "moderate"


def test_registry_uses_normalized_impact_by_default():
    corpus = make_corpus([("a", "J1", 2003, []), ("c", "J2", 2005, ["a"])],
                         {"J1": {}, "J2": {}})
    registry = build_registry(corpus, impact_table(corpus, (2005,)),
                              impact_kind="raw")
    assert registry["J1"].impact == 1.0
    registry = build_registry(corpus, impact_table(corpus, (2005,), None),
                              impact_kind="normalized")
    # without a table the normalized impact cannot be computed
    assert registry["J1"].impact is None


def sixty_journal_registry():
    rng = np.random.default_rng(11)
    registry = {}
    for i in range(60):
        jid = f"J{i:02d}"
        registry[jid] = entry(jid, float(rng.uniform(0.1, 4.0)),
                              size=int(rng.integers(30, 400)),
                              questionable=(i % 10 == 0))
    return registry


def test_binning_diagnostics_reports_all_schemes():
    diag = binning_diagnostics(sixty_journal_registry())
    assert set(diag) == {"terciles", "quartiles", "log_sigma"}
    for stats in diag.values():
        assert stats["matched"] > 0
        assert stats["mean_impact_gap"] >= 0.0


def reversed_category_registry():
    """Q's categories out of order: its records come by category."""
    registry = two_category_registry()
    registry["Q"] = entry("Q", 1.0, categories=("20", "10"),
                          questionable=True)
    return registry


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("make_registry", [
    two_category_registry, reversed_category_registry,
    flagged_only_registry, sixty_journal_registry])
def test_match_all_equals_the_per_journal_loop(make_registry, scheme):
    registry = make_registry()
    by_category = {}
    for jid, e in registry.items():
        for cat in e.categories:
            by_category.setdefault(cat, {})[jid] = e.annual_size
    terciles = {cat: TercileReport(*oracles.tercile_reference(sizes, scheme))
                for cat, sizes in by_category.items()}
    expected = [rec for qj_id in sorted(registry)
                if registry[qj_id].questionable
                for rec in sorted(match_registry(registry, qj_id, terciles),
                                  key=lambda r: r.category)]
    assert match_all(registry, scheme) == expected
    if scheme == "terciles":
        assert match_all(registry) == expected


def test_matched_pairs_are_distinct_sorted_and_controlled():
    records = [MatchRecord("Q2", "10", "A", 0.1, "small"),
               MatchRecord("Q1", "20", "B", 0.2, "large"),
               MatchRecord("Q1", "10", "B", 0.3, "large"),
               MatchRecord("Q1", "30", None, None, "large"),
               MatchRecord("Q3", "10", None, None, None)]
    assert matched_pairs(records) == [("Q1", "B"), ("Q2", "A")]
