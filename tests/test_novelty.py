from collections import Counter

import numpy as np
import pytest

from citnet.novelty import (PairStatistics, PairZScores, ShuffleConfig,
                            _percentiles, pair_counts, pair_zscores,
                            paper_novelty, shuffle_edges)

import oracles
from citnet.synth import SynthConfig, generate_synthetic
from conftest import make_corpus, messy_corpus
from oracles import percentile_oracle


def shuffle_fixture(seed=0, n_targets=12, n_citers=10):
    """Citers spread over two years referencing a pool of older papers."""
    rng = np.random.default_rng(seed)
    papers = [(f"t{i}", f"J{i % 4}", 1998 + (i % 2), [])
              for i in range(n_targets)]
    for c in range(n_citers):
        refs = sorted({f"t{int(i)}" for i in
                       rng.integers(0, n_targets, size=4)})
        papers.append((f"c{c}", f"J{c % 4}", 2000 + (c % 2), refs))
    return make_corpus(papers, {f"J{k}": {} for k in range(4)})


def shuffled_ids(corpus, config, replicate_index):
    """shuffle_edges as (citing id, cited id) tuples; nodes are sorted ids."""
    ids = sorted(corpus.papers)
    src, dst = shuffle_edges(corpus.graph, config, replicate_index)
    return [(ids[s], ids[t]) for s, t in zip(src.tolist(), dst.tolist())]


def named_counts(graph, keys, counts):
    ids, n = graph.journal_ids, len(graph.journal_ids)
    return {(ids[k // n], ids[k % n]): c
            for k, c in zip(keys.tolist(), counts.tolist())}


def margins(corpus, edges):
    out = Counter(s for s, _t in edges)
    inn = Counter(t for _s, t in edges)
    years = Counter((corpus.papers[s].year, corpus.papers[t].year)
                    for s, t in edges)
    return out, inn, years


def test_shuffle_preserves_all_margins():
    corpus = shuffle_fixture()
    original = list(corpus.citation_edges())
    config = ShuffleConfig(seed=5)
    for replicate in range(5):
        shuffled = shuffled_ids(corpus, config, replicate)
        assert len(shuffled) == len(original)
        assert margins(corpus, shuffled) == margins(corpus, original)


def test_shuffle_keeps_edges_simple():
    corpus = shuffle_fixture(seed=3)
    shuffled = shuffled_ids(corpus, ShuffleConfig(seed=9), 0)
    assert len(set(shuffled)) == len(shuffled)
    assert all(s != t for s, t in shuffled)


def test_shuffle_actually_moves_edges():
    corpus = shuffle_fixture(seed=1, n_targets=20, n_citers=20)
    original = set(corpus.citation_edges())
    shuffled = set(shuffled_ids(corpus, ShuffleConfig(seed=2), 0))
    assert shuffled != original


def test_shuffle_seeded_determinism():
    corpus = shuffle_fixture()
    config = ShuffleConfig(seed=11)
    first = shuffled_ids(corpus, config, 3)
    second = shuffled_ids(corpus, config, 3)
    assert first == second
    other_replicate = shuffled_ids(corpus, config, 4)
    assert other_replicate != first


def test_tiny_stratum_left_untouched():
    papers = [("t", "J1", 1999, []), ("c", "J2", 2000, ["t"])]
    corpus = make_corpus(papers, {"J1": {}, "J2": {}})
    assert shuffled_ids(corpus, ShuffleConfig(seed=0), 0) == [("c", "t")]


def test_paper_pairs_multiplicity():
    papers = [("p", "J1", 2005, ["r1", "r2", "r3"]),
              ("r1", "A", 2000, []), ("r2", "A", 2000, []),
              ("r3", "B", 2000, [])]
    graph = make_corpus(papers, {"J1": {}, "A": {}, "B": {}}).graph
    pairs = named_counts(graph, *pair_counts(graph, graph.src, graph.dst))
    assert pairs == {("A", "A"): 1, ("A", "B"): 2}
    collapsed = named_counts(graph, *pair_counts(graph, graph.src, graph.dst,
                                                 collapse=True))
    assert collapsed == {("A", "A"): 1, ("A", "B"): 1}


def test_zscore_direct_substitution():
    stats = PairStatistics(("A", "B"), o=8, e=5, sigma=1.5, z=2.0)
    assert stats.z == (stats.o - stats.e) / stats.sigma


def test_pair_zscores_centered_and_degenerate():
    corpus = shuffle_fixture(seed=2)
    graph = corpus.graph
    observed = oracles.pair_frequencies(corpus, list(corpus.citation_edges()))
    # inject the real network as every ensemble member: e == o, sigma == 0
    ensembles = [pair_counts(graph, graph.src, graph.dst) for _ in range(10)]
    stats = pair_zscores(corpus, ShuffleConfig(seed=1),
                         ensembles=ensembles).stats()
    assert set(stats) == set(observed)
    for pair, st in stats.items():
        assert st.e == observed[pair]
        assert st.sigma == 0.0
        assert st.z is None


def test_pair_zscores_from_real_ensemble():
    corpus = shuffle_fixture(seed=4, n_targets=16, n_citers=16)
    stats = pair_zscores(corpus,
                         ShuffleConfig(ensemble_count=10, seed=21)).stats()
    assert stats
    for pair, st in stats.items():
        assert st.o >= 1
        assert st.sigma >= 0.0
        if st.sigma > 0:
            assert st.z == pytest.approx((st.o - st.e) / st.sigma)
        else:
            assert st.z is None


def zscores_of(corpus, pairs):
    """A PairZScores holding the given z per journal pair (None: undefined)."""
    ids = corpus.graph.journal_ids
    code = {j: i for i, j in enumerate(ids)}
    items = sorted((code[a] * len(ids) + code[b], z) for (a, b), z in
                   ((tuple(sorted(p)), z) for p, z in pairs.items()))
    z = np.array([np.nan if v is None else v for _k, v in items])
    return PairZScores(ids, np.array([k for k, _z in items], dtype=np.int64),
                       np.ones(len(items), dtype=np.int64),
                       np.full(len(items), 0.5),
                       np.where(np.isnan(z), 0.0, 1.0), z)


def novelty_of(corpus, scores, paper_id):
    return next(n for n in paper_novelty(corpus, scores)
                if n.paper_id == paper_id)


def test_paper_novelty_interpolated_percentiles():
    papers = [("p", "J1", 2005, ["r1", "r2", "r3"]),
              ("r1", "A", 2000, []), ("r2", "B", 2000, []),
              ("r3", "C", 2000, [])]
    corpus = make_corpus(papers, {"J1": {}, "A": {}, "B": {}, "C": {}})
    scores = zscores_of(corpus, {("A", "B"): -2.0, ("A", "C"): 0.0,
                                 ("B", "C"): 1.0})
    nov = novelty_of(corpus, scores, "p")
    assert nov.median_z == pytest.approx(0.0)
    assert nov.p10_z == pytest.approx(-1.6)
    assert nov.p10_z == pytest.approx(percentile_oracle([-2.0, 0.0, 1.0], 10))
    assert nov.median_z == pytest.approx(
        percentile_oracle([-2.0, 0.0, 1.0], 50))
    assert nov.defined_pair_count == 3


def test_paper_novelty_single_pair():
    papers = [("p", "J1", 2005, ["r1", "r2"]),
              ("r1", "A", 2000, []), ("r2", "B", 2000, [])]
    corpus = make_corpus(papers, {"J1": {}, "A": {}, "B": {}})
    nov = novelty_of(corpus, zscores_of(corpus, {("A", "B"): 1.0}), "p")
    assert nov.median_z == 1.0
    assert nov.p10_z == 1.0


def test_paper_novelty_all_undefined():
    papers = [("p", "J1", 2005, ["r1", "r2"]),
              ("r1", "A", 2000, []), ("r2", "B", 2000, [])]
    corpus = make_corpus(papers, {"J1": {}, "A": {}, "B": {}})
    nov = novelty_of(corpus, zscores_of(corpus, {("A", "B"): None}), "p")
    assert nov.median_z is None
    assert nov.p10_z is None
    assert nov.undefined_pair_count == 1


def test_two_references_one_unregistered_keeps_empty_row():
    papers = [("p", "J1", 2005, ["r1", "r2"]),
              ("r1", "A", 2000, []), ("r2", "X", 2000, [])]
    corpus = make_corpus(papers, {"J1": {}, "A": {}})
    rows = paper_novelty(corpus, pair_zscores(corpus, ShuffleConfig(seed=0)))
    assert [(n.paper_id, n.median_z, n.p10_z, n.defined_pair_count,
             n.undefined_pair_count) for n in rows] == [("p", None, None,
                                                         0, 0)]


def test_p10_never_exceeds_median():
    corpus = shuffle_fixture(seed=6, n_targets=16, n_citers=16)
    stats = pair_zscores(corpus, ShuffleConfig(ensemble_count=8, seed=3))
    rows = paper_novelty(corpus, stats)
    assert {n.paper_id for n in rows} == {
        p for p in corpus.papers if len(corpus.forward[p]) >= 2}
    for nov in rows:
        if nov.median_z is not None:
            assert nov.p10_z <= nov.median_z + 1e-12


# -- the integer kernels against the string and dict references -------------


def messy_with_half_registered_pair(seed):
    """conftest.messy_corpus plus paper "q" citing one paper of a
    registered and one of an unregistered journal."""
    base = messy_corpus(seed)
    ids = sorted(base.papers)
    registered = next(p for p in ids if base.papers[p].journal_id == "J0")
    unregistered = next(p for p in ids if base.papers[p].journal_id == "X1")
    papers = [(p.paper_id, p.journal_id, p.year, list(p.references))
              for p in base.papers.values()]
    papers.append(("q", "J1", 2010, [registered, unregistered]))
    journals = {jid: ({"publisher_id": j.publisher_id} if j.publisher_id
                      else {}) for jid, j in base.journals.items()}
    return make_corpus(papers, journals, year_range=base.year_range)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shuffle_edges_equal_string_reference(seed):
    corpus = messy_corpus(seed)
    # the fixture's reference lists repeat references
    edges = list(corpus.citation_edges())
    assert len(set(edges)) < len(edges)
    for config in (ShuffleConfig(seed=seed),
                   ShuffleConfig(swaps_per_edge=0.5, seed=seed + 7),
                   ShuffleConfig(swaps_per_edge=0.002, seed=seed + 3)):
        for replicate in (0, 3):
            assert shuffled_ids(corpus, config, replicate) == \
                oracles.shuffle_rounds_reference(corpus, config, replicate)


def test_tied_draws_pair_edges_in_position_order(monkeypatch):
    """Draws rounded to one decimal tie within a stratum; the kernel then
    orders tied edges by position, as the reference's stable sort does."""
    real = np.random.default_rng

    class Rounded:
        def __init__(self, seed):
            self.rng = real(seed)

        def random(self, size):
            return np.round(self.rng.random(size), 1)

    corpus = messy_corpus(1)
    monkeypatch.setattr(np.random, "default_rng", Rounded)
    config = ShuffleConfig(swaps_per_edge=3.0, seed=4)
    assert shuffled_ids(corpus, config, 0) == \
        oracles.shuffle_rounds_reference(corpus, config, 0)


def test_rounds_z_as_stable_as_loop_z():
    """Pair z from the swap rounds rank the pairs as the one-swap loop's
    do, within 0.02 of how the loop agrees with itself at another seed."""
    from scipy.stats import spearmanr

    corpus = generate_synthetic(SynthConfig(
        publisher_count=4, journals_per_publisher=4,
        component_size_range=(60, 80), out_degree_mean=5.0,
        out_degree_std=2.0, seed=0, year_range=(2000, 2004)))

    def loop_z(config):
        ensembles = [oracles.pair_frequencies(
            corpus, oracles.shuffle_citations(corpus, config, replicate))
            for replicate in range(config.ensemble_count)]
        return oracles.pair_zscores(corpus, config, ensembles)

    first, second = (ShuffleConfig(ensemble_count=20, swaps_per_edge=5.0,
                                   seed=seed) for seed in (1, 2))
    loop, other_loop = loop_z(first), loop_z(second)
    rounds = pair_zscores(corpus, first).stats()
    pairs = [p for p in loop if None not in
             (loop[p].z, other_loop[p].z, rounds[p].z)]
    assert len(pairs) >= 100

    def agreement(a, b):
        return spearmanr([a[p].z for p in pairs], [b[p].z for p in pairs])[0]

    assert agreement(loop, rounds) >= agreement(loop, other_loop) - 0.02


@pytest.mark.parametrize("collapse", [False, True])
def test_pair_counts_equal_dict_reference(collapse):
    corpus = messy_corpus(4)
    graph = corpus.graph
    ids = sorted(corpus.papers)
    for replicate in (None, 0, 1):
        if replicate is None:
            src, dst = graph.src, graph.dst
        else:
            src, dst = shuffle_edges(graph, ShuffleConfig(seed=2), replicate)
        edges = [(ids[s], ids[t]) for s, t in zip(src.tolist(), dst.tolist())]
        got = named_counts(graph, *pair_counts(graph, src, dst, collapse))
        assert got == oracles.pair_frequencies(corpus, edges, collapse)


@pytest.mark.parametrize("collapse", [False, True])
@pytest.mark.parametrize("ensemble_count", [1, 5, 10])
def test_zscores_and_novelty_equal_references(collapse, ensemble_count):
    corpus = messy_with_half_registered_pair(ensemble_count)
    config = ShuffleConfig(ensemble_count=ensemble_count, swaps_per_edge=3.0,
                           seed=ensemble_count,
                           collapse_multiplicity=collapse)
    scores = pair_zscores(corpus, config)
    got = scores.stats()
    expected = oracles.pair_zscores(corpus, config)
    assert list(got) == list(expected)
    assert repr([(s.o, s.e, s.sigma, s.z) for s in got.values()]) == \
        repr([(s.o, s.e, s.sigma, s.z) for s in expected.values()])
    if ensemble_count > 1:
        assert any(s.z is not None for s in got.values())

    rows = [(n.paper_id, n.median_z, n.p10_z, n.defined_pair_count,
             n.undefined_pair_count)
            for n in paper_novelty(corpus, scores)]
    reference = [(pid, *oracles.paper_novelty(corpus, pid, expected,
                                              collapse))
                 for pid in sorted(corpus.papers)
                 if len(corpus.forward[pid]) >= 2]
    assert repr(rows) == repr(reference)
    assert ("q", None, None, 0, 0) in rows


def test_percentiles_equal_numpy():
    """Sorted seeded rows with n = 1 and 2 and with ties, as one batch."""
    rng = np.random.default_rng(12)
    rows = [np.array([0.5]), np.array([-1.25, 3.0]), np.array([2.0, 2.0]),
            np.array([1.0, 1.0, 1.0])]
    for _ in range(3000):
        n = int(rng.integers(1, 25))
        # z-scores are never -0.0, so none is generated
        rows.append(np.round(rng.normal(size=n) * 3, int(rng.integers(0, 3)))
                    + 0.0)
    rows = [np.sort(r) for r in rows]
    values = np.concatenate(rows)
    count = np.array([len(r) for r in rows])
    start = np.cumsum(count) - count
    for q in (50, 10):
        got = _percentiles(values, start, count, q).tolist()
        assert repr(got) == repr([float(np.percentile(r, q)) for r in rows])
