"""Author disambiguation kernel and demographics against the float
references in ``oracles``: seeded messy blocks, an exact tie across
feature weights, the exact decimal group threshold, and the pair
features one by one."""

import numpy as np
import pytest

from citnet.authors import (AuthorClusters, SimilarityWeights,
                            author_demographics, disambiguate)

from conftest import make_corpus
from oracles import paper_similarity

W = SimilarityWeights()


# -- the sparse kernel against the float block reference --------------------

BLOCK = "kim, j"
BLOCK_SPELLINGS = ("Kim, J.", "J. Kim", "KIM, J")


def random_block(seed, n):
    """Block of n "kim, j" papers over shared references, citers,
    co-authors and citations inside the block.

    Reference lists also hold self, repeated and dangling references;
    some block papers sit in an unregistered journal, some list the
    blocked name twice in two spellings. Every block paper has a
    co-author, so no mention is excluded as a lone singleton.
    """
    rng = np.random.default_rng(seed)
    block = [f"p{i:03d}" for i in range(n)]
    pool = [f"r{k:03d}" for k in range(max(2, n // 3))]
    coauthors = [f"co{k}, x" for k in range(max(3, n // 2))]
    papers = [(r, "J9", 1990, []) for r in pool]
    for i, pid in enumerate(block):
        refs = [pool[int(k)] for k in rng.integers(0, len(pool),
                                                   size=int(rng.integers(0, 4)))]
        if rng.random() < 0.3:
            refs.append(block[int(rng.integers(n))])   # maybe itself
        if refs and rng.random() < 0.2:
            refs.append(refs[0])
        if rng.random() < 0.1:
            refs.append("missing")
        authors = [BLOCK_SPELLINGS[int(rng.integers(3))]]
        if rng.random() < 0.1:
            authors.append(BLOCK_SPELLINGS[int(rng.integers(3))])
        authors += [coauthors[int(k)]
                    for k in rng.integers(0, len(coauthors),
                                          size=int(rng.integers(1, 3)))]
        journal = "X1" if rng.random() < 0.2 else "J1"
        papers.append((pid, journal, 2000 + i % 10, refs, authors))
    for k in range(max(1, n // 2)):
        cited = [block[int(i)] for i in rng.integers(0, n,
                                                     size=int(rng.integers(1, 4)))]
        papers.append((f"c{k:03d}", "J9", 2015, cited))
    return make_corpus(papers, {"J1": {}, "J9": {}}), block


def block_groups(clusters):
    """Paper groups of the "kim, j" block, in cluster-index order."""
    groups = {}
    for cluster_id, members in clusters.clusters.items():
        key, _, index = cluster_id.rpartition("#")
        if key == BLOCK:
            groups[int(index)] = sorted({pid for _k, pid in members})
    assert sorted(groups) == list(range(len(groups)))
    return [groups[k] for k in sorted(groups)]


def block_reference(corpus, papers, weights):
    from oracles import resolve_block_reference

    def sim(a, b):
        return paper_similarity(corpus, a, b, weights, exclude_author=BLOCK)

    return resolve_block_reference(papers, sim, weights.pair_threshold,
                                   weights.group_threshold)


@pytest.mark.parametrize("weights", [
    W,
    SimilarityWeights(w_self_citation=0.9, w_shared_author=0.35,
                      w_shared_citation=0.15, w_shared_reference=0.25,
                      pair_threshold=0.8, group_threshold=0.12),
], ids=["default", "mixed"])
def test_disambiguate_equals_block_reference(weights):
    for seed, n in enumerate((2, 3, 5, 8, 13, 30, 60, 120)):
        corpus, block = random_block(seed, n)
        expected = block_reference(corpus, block, weights)
        assert block_groups(disambiguate(corpus, weights)) == expected, \
            (seed, n)


# the same decisions with weighted sums past int64: 1e-300 puts every
# weight over a denominator of 10**300, and no pair here shares a citer
WIDE = SimilarityWeights(w_shared_citation=1e-300)


@pytest.mark.parametrize("weights", [W, WIDE], ids=["default", "wide"])
def test_exact_tie_across_feature_weights(weights):
    """Two pairs of groups both average exactly 0.2: two shared
    references over 1 x 2 papers and two shared co-authors over 1 x 5.

    Read as binary fractions, 0.2 * 2 / 2 exceeds 0.5 * 2 / 5 by about
    1e-17; read as decimals they tie, and the pair whose smallest papers
    come first merges. Either merge blocks the other.
    """
    refs = [("r1", "J9", 1990, []), ("r2", "J9", 1990, [])]
    x = [("a0", "J1", 2000, ["r1", "r2"], ["kim, j", "p, a", "q, b"])]
    # b1..b5 chain by citation plus a shared co-author (1.5 each)
    f = [(f"b{i}", "J1", 2001, [f"b{i + 1}"] if i < 5 else [],
          ["kim, j", "lee, s"] + (["p, a"] if i == 1 else [])
          + (["q, b"] if i == 2 else []))
         for i in range(1, 6)]
    z = [("c1", "J1", 2002, ["c2", "r1", "r2"], ["kim, j", "lee, t"]),
         ("c2", "J1", 2002, [], ["kim, j", "lee, t"])]
    corpus = make_corpus(refs + x + f + z, {"J1": {}, "J9": {}})
    block = ["a0", "b1", "b2", "b3", "b4", "b5", "c1", "c2"]
    groups = block_groups(disambiguate(corpus, weights))
    assert groups == [["a0", "b1", "b2", "b3", "b4", "b5"], ["c1", "c2"]]
    assert groups == block_reference(corpus, block, weights)


@pytest.mark.parametrize("weights", [W, WIDE], ids=["default", "wide"])
def test_exact_decimal_group_threshold(weights):
    """19 shared references at 0.2 over 4 x 5 papers average exactly
    0.19, which does not exceed a 0.19 threshold.

    The float reference sums 0.2 nineteen times to 3.800000000000001 and
    averages 0.19000000000000006, so it merges; the exact rule does not.
    """
    a = [f"a{i}" for i in range(1, 5)]
    b = [f"b{j}" for j in range(1, 6)]
    shared = {(i, j): f"r{i}{j}" for i in range(1, 5) for j in range(1, 6)
              if (i, j) != (4, 5)}
    papers = [(r, "J9", 1990, []) for r in shared.values()]
    for i, pid in enumerate(a, start=1):
        refs = [r for (ri, _j), r in shared.items() if ri == i]
        papers.append((pid, "J1", 2000, refs + a[i:i + 1],
                       ["kim, j", "lee, s"]))
    for j, pid in enumerate(b, start=1):
        refs = [r for (_i, rj), r in shared.items() if rj == j]
        papers.append((pid, "J1", 2001, refs + b[j:j + 1],
                       ["kim, j", "park, m"]))
    corpus = make_corpus(papers, {"J1": {}, "J9": {}})
    assert block_groups(disambiguate(corpus, weights)) == [a, b]
    assert block_reference(corpus, a + b, weights) == [a + b]


def test_pair_features_match_paper_similarity():
    """Every pair of a messy block: the co-occurrence features against
    the one-pair similarity, with weights that spell each count out."""
    from citnet import authors

    corpus, block = random_block(7, 40)
    ids = sorted(corpus.papers)
    blocks = authors._name_blocks(corpus, ids)
    pairs, features = authors._pair_features(corpus.graph, blocks)
    n_members = len(blocks.node)
    code = blocks.names.index(BLOCK)
    got = {}
    for pair, row in zip(pairs.tolist(), features.tolist()):
        lo, hi = divmod(pair, n_members)
        if blocks.block[lo] == code:
            got[(ids[blocks.node[lo]], ids[blocks.node[hi]])] = row
    spelled = SimilarityWeights(w_self_citation=1000.0,
                                w_shared_author=100.0,
                                w_shared_citation=10.0,
                                w_shared_reference=1.0)
    absent = 0
    for i, pa in enumerate(block):
        for pb in block[i + 1:]:
            row = got.get((pa, pb), [0, 0, 0, 0])
            absent += (pa, pb) not in got
            assert all(0 <= v < 10 for v in row[1:])
            for weights in (W, spelled):
                w = weights.feature_weights
                assert (w[0] * row[0] + w[1] * row[1] + w[2] * row[2]
                        + w[3] * row[3]) == paper_similarity(
                    corpus, pa, pb, weights, exclude_author=BLOCK)
    assert absent > 0
    assert all(any(row) for row in got.values())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_demographics_equal_reference_on_messy_corpus(seed):
    """Overlapping seeded clusters over a corpus with self, repeated and
    dangling references and papers in unregistered journals."""
    from dataclasses import astuple

    from conftest import messy_corpus
    from oracles import author_demographics_reference

    corpus = messy_corpus(seed)
    ids = sorted(corpus.papers)
    rng = np.random.default_rng([seed, 11])
    clusters = AuthorClusters()
    for k in range(60):
        picked = rng.choice(ids, size=int(rng.integers(1, 15)), replace=False)
        members = {(f"Name{k}, A.", str(pid)) for pid in picked}
        members.add((f"A. Name{k}", str(picked[0])))   # one paper, twice
        clusters.clusters[f"name{k}, a#0"] = members
    for group in ({"J0", "J3"}, {"J1", "J4", "X1"}, {"J2"}, set()):
        got = [astuple(s) for s in author_demographics(corpus, clusters,
                                                       group)]
        expected = [tuple(row) for row in author_demographics_reference(
            corpus, clusters, group)]
        assert got == expected
        assert len(got) > 0 or not group
