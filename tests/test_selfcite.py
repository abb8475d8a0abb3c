from dataclasses import replace

import pytest

from citnet.selfcite import (CitationCounts, aggregate_citation_counts,
                             psi_from_counts, share, solidarity_scores)
from citnet.synth import (SynthConfig, _SCENARIO_MEMBERS, _SCENARIO_TOTALS,
                          _scenario_table, generate_synthetic)

from conftest import make_corpus, messy_corpus
from oracles import journal_of, solidarity_reference


def rate_fixture():
    """J1 receives 4 citations: 1 from J2 (the group), 3 from J3."""
    papers = [("t", "J1", 2000, []),
              ("g", "J2", 2001, ["t"]),
              ("o1", "J3", 2001, ["t"]), ("o2", "J3", 2002, ["t"]),
              ("o3", "J3", 2002, ["t"])]
    return make_corpus(papers, {"J1": {}, "J2": {}, "J3": {}})


def test_citation_rate_fraction():
    table = aggregate_citation_counts(rate_fixture().graph)
    assert share(table, ["J1"], ["J2"], received=True) == 0.25
    assert share(table, ["J1"], ["J3"], received=True) == 0.75
    assert share(table, ["J1"], ["J1", "J2", "J3"], received=True) == 1.0
    assert share(table, ["J2"], ["J1"], received=True) is None  # never cited


def test_citation_rate_partition():
    table = aggregate_citation_counts(rate_fixture().graph)
    groups = [["J1"], ["J2"], ["J3"]]
    total = sum(share(table, ["J1"], g, received=True) for g in groups)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_citation_rate_window():
    table = aggregate_citation_counts(rate_fixture().graph, (2002, 2002))
    assert share(table, ["J1"], ["J3"], received=True) == 1.0
    assert share(table, ["J1"], ["J2"], received=True) == 0.0


def test_reference_rate():
    papers = [("s", "J1", 2005, [f"x{i}" for i in range(10)])]
    papers += [(f"x{i}", "J2" if i < 3 else "J3", 2000, [])
               for i in range(10)]
    corpus = make_corpus(papers, {"J1": {}, "J2": {}, "J3": {}})
    table = aggregate_citation_counts(corpus.graph)
    assert share(table, ["J1"], ["J2"]) == 0.3
    assert share(table, ["J1"], ["J1"]) == 0.0
    assert share(table, ["J1"], ["J1", "J2", "J3"]) == 1.0
    assert share(table, ["J2"], ["J1"]) is None  # no references


def expectation_fixture():
    """Publisher P with J1, J2: 2 internal, 2 outbound, 2 inbound edges."""
    papers = [
        ("a1", "J1", 2000, []), ("a2", "J1", 2002, ["b1", "e1"]),
        ("b1", "J2", 2000, []), ("b2", "J2", 2002, ["a1", "e1"]),
        ("e1", "E", 2000, []), ("e2", "E", 2002, ["a1", "b1"]),
    ]
    return make_corpus(papers, {"J1": {"publisher_id": "P"},
                                "J2": {"publisher_id": "P"},
                                "E": {"publisher_id": "Q"}})


def expectations(corpus, publisher_id):
    """(Q_r, Q_c) of a publisher: its internal share of the references
    its journals make and of the citations they receive."""
    table = aggregate_citation_counts(corpus.graph)
    members = corpus.publisher_journals[publisher_id]
    return (share(table, members, members),
            share(table, members, members, received=True))


def test_publisher_expectations_hand_count():
    q_r, q_c = expectations(expectation_fixture(), "P")
    assert q_r == pytest.approx(0.5)
    assert q_c == pytest.approx(0.5)


def test_pub_expectations_only_internal():
    papers = [("a", "J1", 2000, ["b"]), ("b", "J2", 2001, ["a"])]
    corpus = make_corpus(papers, {"J1": {"publisher_id": "P"},
                                  "J2": {"publisher_id": "P"}})
    assert expectations(corpus, "P")[0] == 1.0


def test_pub_expectations_undefined_side():
    # publisher never cited by anyone, including itself
    papers = [("a", "J1", 2001, ["e"]), ("b", "J2", 2001, ["e"]),
              ("e", "E", 2000, [])]
    corpus = make_corpus(papers, {"J1": {"publisher_id": "P"},
                                  "J2": {"publisher_id": "P"},
                                  "E": {"publisher_id": "Q"}})
    q_r, q_c = expectations(corpus, "P")
    assert q_c is None
    assert q_r == 0.0


def neutral_counts(paper_total_per_journal):
    """Count table where every rate ratio term cancels to 1.

    Two journals; each directs half its references at the other member
    and half outside, and receives likewise, so the journal's share
    equals the publisher-wide expectation exactly.
    """
    table = CitationCounts()
    for a, b in [("J1", "J2"), ("J2", "J1")]:
        table.counts[(a, b)] = 50
    for j in ("J1", "J2"):
        table.counts[(j, "E")] = 50
        table.counts[("E", j)] = 50
        table.out_total[j] = 100
        table.in_total[j] = 100
    table.out_total["E"] = 100
    table.in_total["E"] = 100
    return table


def test_psi_ratio_terms_cancel():
    table = neutral_counts(50)
    score = psi_from_counts(table, "J1", ["J1", "J2"],
                            {"J1": 50, "J2": 50})
    assert score.psi == pytest.approx(1 / 100)
    score = psi_from_counts(table, "J1", ["J1", "J2"],
                            {"J1": 500, "J2": 500})
    assert score.psi == pytest.approx(1 / 1000)


def solidarity_fixture(extra_self=0):
    """Three journals under publisher P plus outside world E.

    ``extra_self`` adds that many extra J1 -> publisher citations on top
    of a neutral baseline shared by J1 and J2.
    """
    papers = []
    # shared targets inside the publisher
    papers += [("t1", "J2", 2000, []), ("t2", "J3", 2000, []),
               ("te", "E", 2000, [])]
    refs_j1 = ["t1", "te"] + ["t2"] * min(extra_self, 1)
    papers += [("a", "J1", 2005, refs_j1)]
    papers += [("b", "J2", 2005, ["t2", "te"])]
    papers += [("c", "J3", 2005, ["t1", "te"])]
    # incoming citations toward J1 and the others
    papers += [("x", "E", 2006, ["a", "b", "c", "t1"])]
    papers += [("y", "J2", 2006, ["a"])]
    return make_corpus(papers, {"J1": {"publisher_id": "P"},
                                "J2": {"publisher_id": "P"},
                                "J3": {"publisher_id": "P"},
                                "E": {"publisher_id": "Q"}})


def scores_by_journal(corpus, include_self=True):
    """journal id -> its row of ``solidarity_scores``."""
    return {s.journal_id: s
            for s in solidarity_scores(corpus.graph,
                                       include_self=include_self)}


def brute_force_psi(corpus, journal_id):
    """Direct evaluation of the defining sums from raw paper loops."""
    publisher = corpus.journals[journal_id].publisher_id
    members = [j for j in sorted(corpus.journals)
               if corpus.journals[j].publisher_id == publisher]

    def jrnl(pid):
        return corpus.papers[pid].journal_id

    edges = [(jrnl(a), jrnl(b)) for a, b in corpus.citation_edges()]
    out_i = sum(1 for s, _t in edges if s == journal_id)
    in_i = sum(1 for _s, t in edges if t == journal_id)
    rr = sum(1 for s, t in edges if s == journal_id and t in members) / out_i
    rc = sum(1 for s, t in edges if t == journal_id and s in members) / in_i
    internal = sum(1 for s, t in edges if s in members and t in members)
    made = sum(1 for s, _t in edges if s in members)
    received = sum(1 for _s, t in edges if t in members)
    q_r = internal / made
    q_c = internal / received
    n_total = sum(1 for p in corpus.papers.values() if p.journal_id in members)
    return (1 / n_total) * (rr / q_r) / (rc / q_c)


def test_solidarity_against_bruteforce():
    corpus = solidarity_fixture(extra_self=1)
    scores = scores_by_journal(corpus)
    for jid in ("J1", "J2", "J3"):
        score = scores[jid]
        assert score.status == "ok"
        assert score.psi == pytest.approx(brute_force_psi(corpus, jid),
                                          abs=1e-12)


def test_self_favouring_journal_scores_higher():
    scores = scores_by_journal(solidarity_fixture(extra_self=1))
    eager = scores["J1"].psi
    neutral = scores["J3"].psi
    assert eager > neutral


def test_standalone_publisher_excluded():
    papers = [("a", "J1", 2000, []), ("b", "E", 2001, ["a"])]
    corpus = make_corpus(papers, {"J1": {"publisher_id": "P"},
                                  "E": {"publisher_id": "Q"}})
    score = scores_by_journal(corpus)["J1"]
    assert score.status == "excluded"
    assert score.psi is None
    # no publisher at all behaves the same way
    corpus = make_corpus(papers, {"J1": {}, "E": {}})
    assert scores_by_journal(corpus)["J1"].status == "excluded"


def test_solidarity_undefined_when_never_cited():
    papers = [("a", "J1", 2005, ["t"]), ("t", "J2", 2000, [])]
    corpus = make_corpus(papers, {"J1": {"publisher_id": "P"},
                                  "J2": {"publisher_id": "P"}})
    score = scores_by_journal(corpus)["J1"]
    assert score.status == "undefined"
    assert score.psi is None


def scaled_table(table, k):
    """``table`` with every count multiplied by ``k``."""
    return CitationCounts.from_counts(
        {p: c * k for p, c in table.counts.items()}, table.window)


def test_scaling_invariance():
    corpus = solidarity_fixture(extra_self=1)
    table = aggregate_citation_counts(corpus.graph)
    members = ["J1", "J2", "J3"]
    totals = {j: sum(1 for p in corpus.papers.values() if p.journal_id == j)
              for j in members}
    base = psi_from_counts(table, "J1", members, totals)
    for k in (2, 10, 1000):
        scaled = psi_from_counts(scaled_table(table, k), "J1", members,
                                 totals)
        assert abs(scaled.psi - base.psi) <= 1e-12
        assert scaled.q_r == pytest.approx(base.q_r, abs=1e-15)
        assert scaled.q_c == pytest.approx(base.q_c, abs=1e-15)


def test_include_self_flag_changes_level_not_order():
    corpus = solidarity_fixture(extra_self=1)
    with_self = {j: s.psi for j, s in
                 scores_by_journal(corpus, include_self=True).items()}
    without = {j: s.psi for j, s in
               scores_by_journal(corpus, include_self=False).items()}
    assert (with_self["J1"] > with_self["J3"]) == \
        (without["J1"] > without["J3"])


def _edge_loop_table(corpus, window):
    """Reference tally: one pass over the paper edges."""
    counts, out_total, in_total = {}, {}, {}
    for citing, cited in corpus.citation_edges():
        year = corpus.papers[citing].year
        if window is not None and not window[0] <= year <= window[1]:
            continue
        src, dst = journal_of(corpus, citing), journal_of(corpus, cited)
        if src is None or dst is None:
            continue
        counts[(src, dst)] = counts.get((src, dst), 0) + 1
        out_total[src] = out_total.get(src, 0) + 1
        in_total[dst] = in_total.get(dst, 0) + 1
    return counts, out_total, in_total


def test_count_table_matches_edge_loop():
    papers = [("a1", "A", 2000, []), ("b1", "B", 2000, []),
              ("x1", "X", 2000, []),               # X is not registered
              ("a2", "A", 2001, ["a1", "b1", "x1"]),
              ("b2", "B", 2001, ["a1", "a2", "b1"]),
              ("x2", "X", 2001, ["a1", "b1"]),
              ("b3", "B", 2002, ["a2", "b2", "b1", "a1"])]
    corpus = make_corpus(papers, {"A": {}, "B": {}})
    for window in (None, (2001, 2001), (2002, 2002), (1990, 1991)):
        table = aggregate_citation_counts(corpus.graph, window)
        assert table.window == window
        got = (table.counts, table.out_total, table.in_total)
        want = _edge_loop_table(corpus, window)
        assert got == want
        assert [list(d) for d in got] == [list(d) for d in want]


def psi_case(case, window):
    """(corpus, count table or None, statuses) of a solidarity case.

    An int is a seeded messy corpus and "net" a generated net of
    one-journal publishers, both scored on their own count tables. A
    scenario and sweep value ("b200") is that synth scenario's table,
    carrying ``window``, beside a corpus holding its journals and paper
    totals (all in 2005) and the outside journal E of another publisher.
    """
    if case == "net":
        net = generate_synthetic(SynthConfig(
            publisher_count=3, journals_per_publisher=1,
            component_size_range=(30, 40), out_degree_mean=4.0,
            out_degree_std=1.0))
        return net, None, {"excluded"}
    if isinstance(case, int):
        return messy_corpus(case), None, {"ok", "excluded"}
    table = replace(_scenario_table(case[0], float(case[1:])), window=window)
    papers = [(f"{jid}-{k}", jid, 2005, [])
              for jid in _SCENARIO_MEMBERS
              for k in range(_SCENARIO_TOTALS[jid])]
    journals = {jid: {"publisher_id": "P"} for jid in _SCENARIO_MEMBERS}
    journals["E"] = {"publisher_id": "Q"}
    # in "a", J2-J4 make no references, so their psi is undefined
    statuses = {"ok", "excluded", "undefined"} if case[0] == "a" else \
        {"ok", "excluded"}
    return make_corpus(papers, journals), table, statuses


@pytest.mark.parametrize("window", [None, (2003, 2007)])
@pytest.mark.parametrize("include_self", [True, False])
@pytest.mark.parametrize("case", [0, 1, 2, 3, "net", "a0", "a100", "a200",
                                  "b0", "b200", "c10", "c200"])
def test_solidarity_scores_equal_solidarity_index(case, include_self, window):
    """solidarity_scores gives the reference formula's scores, exactly."""
    corpus, table, statuses = psi_case(case, window)
    counts = table
    if table is None and window is not None:
        counts = aggregate_citation_counts(corpus.graph, window)
    got = solidarity_scores(corpus.graph, counts, include_self)
    reference = solidarity_reference(
        corpus, counts or aggregate_citation_counts(corpus.graph),
        include_self)
    assert repr(got) == repr(reference)
    assert {s.status for s in got} == statuses
    if table is not None:       # psi_scenarios' path scores the focal F
        focal = psi_from_counts(table, "F", _SCENARIO_MEMBERS,
                                _SCENARIO_TOTALS, include_self)
        assert repr(focal) == repr(got[1])


@pytest.mark.parametrize("include_self", [True, False])
def test_a_count_table_carries_its_window(include_self):
    """A table built for W scores psi against W's paper totals, and no
    table means the all-years table."""
    corpus = messy_corpus(0)
    window = (2003, 2007)
    by_window = solidarity_scores(
        corpus.graph, aggregate_citation_counts(corpus.graph, window),
        include_self)
    assert repr(by_window) == repr(solidarity_reference(
        corpus, aggregate_citation_counts(corpus.graph, window),
        include_self))
    all_years = solidarity_scores(corpus.graph, include_self=include_self)
    assert repr(all_years) == repr(solidarity_scores(
        corpus.graph, aggregate_citation_counts(corpus.graph), include_self))
    # the window shows: all-year paper totals give other scores
    assert repr(all_years) != repr(by_window)
