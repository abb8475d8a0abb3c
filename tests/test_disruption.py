import numpy as np
import pytest

import citnet.disruption as disruption_mod
from citnet.disruption import disruption_table, group_means

from conftest import make_corpus, messy_corpus
from oracles import disruption_counts_reference, disruption_oracle


def counts_of(corpus, paper_id):
    """disruption_table's row of one paper."""
    return disruption_table(corpus, [paper_id])[0]


def team_size(paper):
    return len(paper.author_keys)


def paper_year(paper):
    return paper.year


def focal_fixture(citers_only_x=2, citers_both=1, citers_refs_only=1):
    """Focal paper x with one reference and a configurable citer split."""
    papers = [("ref", "J1", 1998, []), ("x", "J1", 2000, ["ref"])]
    k = 0
    for _ in range(citers_only_x):
        papers.append((f"i{k}", "J2", 2002, ["x"]))
        k += 1
    for _ in range(citers_both):
        papers.append((f"j{k}", "J2", 2002, ["x", "ref"]))
        k += 1
    for _ in range(citers_refs_only):
        papers.append((f"k{k}", "J2", 2002, ["ref"]))
        k += 1
    return make_corpus(papers, {"J1": {}, "J2": {}})


def test_boundary_most_disruptive():
    corpus = focal_fixture(citers_only_x=3, citers_both=0,
                           citers_refs_only=0)
    assert counts_of(corpus, "x").value == 1.0


def test_boundary_least_disruptive():
    corpus = focal_fixture(citers_only_x=0, citers_both=2,
                           citers_refs_only=0)
    assert counts_of(corpus, "x").value == -1.0


def test_direct_substitution():
    corpus = focal_fixture(citers_only_x=2, citers_both=1,
                           citers_refs_only=1)
    counts = counts_of(corpus, "x")
    assert (counts.n_i, counts.n_j, counts.n_k) == (2, 1, 1)
    assert counts.value == 0.25


def test_undefined_when_denominator_empty():
    papers = [("x", "J1", 2000, []), ("y", "J1", 2001, [])]
    corpus = make_corpus(papers, {"J1": {}})
    assert counts_of(corpus, "x").value is None


def test_focal_paper_never_its_own_citer():
    # x cites its reference; x must not count in the reference's citers
    papers = [("ref", "J1", 1998, []), ("x", "J1", 2000, ["ref"]),
              ("c", "J2", 2002, ["x"])]
    corpus = make_corpus(papers, {"J1": {}, "J2": {}})
    counts = counts_of(corpus, "x")
    assert counts.n_k == 0
    assert counts.value == 1.0


def random_corpus(seed, n=60):
    rng = np.random.default_rng(seed)
    papers = []
    for i in range(n):
        year = 1996 + i // 10
        refs = sorted({f"p{int(r)}" for r in
                       rng.integers(0, max(i, 1), size=min(i, 5))
                       if int(r) < i})
        authors = [f"a{int(a)}" for a in rng.integers(0, 12,
                                                      size=rng.integers(1, 5))]
        papers.append((f"p{i}", f"J{i % 3}", year, refs, sorted(set(authors))))
    return make_corpus(papers, {"J0": {}, "J1": {}, "J2": {}})


def test_range_and_oracle_on_random_corpora():
    for seed in range(5):
        corpus = random_corpus(seed)
        for c in disruption_table(corpus, corpus.papers):
            d = c.value
            expected = disruption_oracle(corpus, c.paper_id)
            if expected is None:
                assert d is None
            else:
                assert -1.0 <= d <= 1.0
                assert d == pytest.approx(expected, abs=1e-12)


def test_role_antisymmetry():
    a = focal_fixture(citers_only_x=3, citers_both=1, citers_refs_only=2)
    b = focal_fixture(citers_only_x=1, citers_both=3, citers_refs_only=2)
    assert counts_of(a, "x").value == -counts_of(b, "x").value


def test_team_size_means():
    # disjoint references so neither focal paper is the other's n_k citer
    papers = [("rx", "J1", 1996, []), ("ry", "J1", 1996, []),
              ("x", "J1", 2000, ["rx"], ["solo"]),
              ("y", "J1", 2000, ["ry"], ["a", "b", "c"]),
              ("cx", "J2", 2002, ["x"]), ("cy", "J2", 2002, ["y"])]
    corpus = make_corpus(papers, {"J1": {}, "J2": {}})
    means, skipped = group_means(
        corpus, disruption_table(corpus, ["x", "y"]), team_size)
    assert means == {1: 1.0, 3: 1.0}
    assert skipped == 0


def test_team_size_excludes_undefined():
    papers = [("x", "J1", 2000, [], ["a", "b", "c"]),
              ("r", "J1", 1996, []),
              ("y", "J1", 2000, ["r"], ["a"]),
              ("cy", "J2", 2002, ["y"])]
    corpus = make_corpus(papers, {"J1": {}, "J2": {}})
    means, skipped = group_means(
        corpus, disruption_table(corpus, ["x", "y"]), team_size)
    assert 3 not in means            # only undefined papers in that bucket
    assert means == {1: 1.0}
    assert skipped == 1


def test_year_means_match_bruteforce():
    for seed in (7, 8):
        corpus = random_corpus(seed, n=80)
        paper_ids = sorted(corpus.papers)
        means, _ = group_means(corpus, disruption_table(corpus, paper_ids),
                               paper_year)
        expected = {}
        for pid in paper_ids:
            d = disruption_oracle(corpus, pid)
            if d is None:
                continue
            expected.setdefault(corpus.papers[pid].year, []).append(d)
        assert set(means) == set(expected)
        for year, values in expected.items():
            assert means[year] == pytest.approx(sum(values) / len(values),
                                                abs=1e-12)


def test_single_year_mean():
    # D(x) = 1 (its citer ignores rx); D(y) = 0 (one citer each way)
    papers = [("rx", "J1", 1996, []), ("ry", "J1", 1996, []),
              ("x", "J1", 2000, ["rx"]), ("y", "J1", 2000, ["ry"]),
              ("cx", "J2", 2002, ["x"]),
              ("cy1", "J2", 2002, ["y"]),
              ("cy2", "J2", 2002, ["y", "ry"])]
    corpus = make_corpus(papers, {"J1": {}, "J2": {}})
    means, _ = group_means(corpus, disruption_table(corpus, ["x", "y"]),
                           paper_year)
    assert means == {2000: 0.5}


def test_journal_means():
    corpus = random_corpus(3)
    means, _ = group_means(corpus, disruption_table(corpus, corpus.papers),
                           lambda p: p.journal_id)
    assert set(means) <= {"J0", "J1", "J2"}
    for value in means.values():
        assert -1.0 <= value <= 1.0


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("window", [None, (2004, 2006), (2011, 2020)])
@pytest.mark.parametrize("budget", [None, 40])
def test_table_equals_per_paper_sets(monkeypatch, seed, window, budget):
    # messy_corpus has self, repeated and dangling references and papers
    # of unregistered journals; (2011, 2020) holds no citer at all
    corpus = messy_corpus(seed)
    if budget is not None:
        monkeypatch.setattr(disruption_mod, "PAIR_BUDGET", budget)
    table = disruption_table(corpus, corpus.papers, window)
    assert [c.paper_id for c in table] == sorted(corpus.papers)
    for c in table:
        assert (c.n_i, c.n_j, c.n_k) == disruption_counts_reference(
            corpus, c.paper_id, window)
    if window == (2011, 2020):
        assert all((c.n_i, c.n_j, c.n_k) == (0, 0, 0) for c in table)
    else:
        assert sum(c.n_j for c in table) > 0


def test_batches_split_whole_papers_and_oversized_ones(monkeypatch):
    corpus = messy_corpus(5)
    expected = [disruption_counts_reference(corpus, pid)
                for pid in sorted(corpus.papers)]
    # a paper's two-hop pairs are at least its distinct keys n_j + n_k
    budget = max(n_j + n_k for _n_i, n_j, n_k in expected) - 1
    batches = []
    real_distinct = disruption_mod.distinct

    def spy(values):
        batches.append(len(values))
        return real_distinct(values)

    monkeypatch.setattr(disruption_mod, "PAIR_BUDGET", budget)
    monkeypatch.setattr(disruption_mod, "distinct", spy)
    table = disruption_table(corpus, corpus.papers)
    assert [(c.n_i, c.n_j, c.n_k) for c in table] == expected
    assert len(batches) > 3            # the edge keys, then the batches
    assert max(batches[1:]) > budget   # one paper over the budget alone


def test_table_over_a_subset_and_repeated_ids():
    corpus = messy_corpus(1)
    subset = ["p200", "p007", "p100", "p007"]
    table = disruption_table(corpus, subset, (2002, 2008))
    assert [c.paper_id for c in table] == ["p007", "p100", "p200"]
    for c in table:
        assert (c.n_i, c.n_j, c.n_k) == disruption_counts_reference(
            corpus, c.paper_id, (2002, 2008))
    with pytest.raises(KeyError):
        disruption_table(corpus, ["missing"])
