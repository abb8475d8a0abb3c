import pytest

from citnet.authors import (SimilarityWeights, author_demographics,
                            disambiguate, normalize_name)

from conftest import make_corpus
from oracles import paper_similarity

W = SimilarityWeights()


def test_normalize_name():
    assert normalize_name("Smith, J.") == "smith, j"
    assert normalize_name("J. Smith") == "smith, j"
    assert normalize_name("  SMITH ,  John  A. ") == "smith, j a"
    assert normalize_name("Muñoz, É.") == "munoz, e"
    assert normalize_name("smith") == "smith"


def test_similarity_no_shared_features():
    papers = [("p1", "J1", 2000, [], ["kim, j", "x"]),
              ("p2", "J1", 2001, [], ["kim, j", "y"])]
    corpus = make_corpus(papers, {"J1": {}})
    assert paper_similarity(corpus, "p1", "p2", W,
                            exclude_author="kim, j") == 0.0


def test_similarity_mutual_citation():
    papers = [("p1", "J1", 2000, [], ["kim, j"]),
              ("p2", "J1", 2001, ["p1"], ["kim, j"])]
    corpus = make_corpus(papers, {"J1": {}})
    assert paper_similarity(corpus, "p1", "p2", W,
                            exclude_author="kim, j") == 1.0


def test_similarity_weighted_sum():
    # 2 shared references at 0.2 plus 1 shared co-author at 0.5
    papers = [("r1", "J1", 1998, []), ("r2", "J1", 1998, []),
              ("p1", "J1", 2000, ["r1", "r2"], ["kim, j", "lee, s"]),
              ("p2", "J1", 2001, ["r1", "r2"], ["kim, j", "lee, s"])]
    corpus = make_corpus(papers, {"J1": {}})
    sim = paper_similarity(corpus, "p1", "p2", W, exclude_author="kim, j")
    assert sim == pytest.approx(0.5 + 2 * 0.2)
    weights = SimilarityWeights(w_shared_author=0.5, w_shared_reference=0.5)
    sim = paper_similarity(corpus, "p1", "p2", weights,
                           exclude_author="kim, j")
    assert sim == pytest.approx(1.5)


def test_similarity_shared_citations():
    papers = [("p1", "J1", 2000, [], ["kim, j"]),
              ("p2", "J1", 2000, [], ["kim, j"]),
              ("c1", "J2", 2002, ["p1", "p2"]),
              ("c2", "J2", 2003, ["p1", "p2"])]
    corpus = make_corpus(papers, {"J1": {}, "J2": {}})
    sim = paper_similarity(corpus, "p1", "p2", W, exclude_author="kim, j")
    assert sim == pytest.approx(2 * 0.2)


def test_identical_papers_rejected():
    corpus = make_corpus([("p1", "J1", 2000, [])], {"J1": {}})
    with pytest.raises(ValueError):
        paper_similarity(corpus, "p1", "p1", W)


def test_disambiguate_merges_above_pair_threshold():
    # mutual citation (1.0) + shared co-author (0.5) = 1.5 > 1.0
    papers = [("p1", "J1", 2000, [], ["kim, j", "lee, s"]),
              ("p2", "J1", 2001, ["p1"], ["kim, j", "lee, s"]),
              ("q1", "J1", 2005, [], ["kim, j", "park, m"])]
    corpus = make_corpus(papers, {"J1": {}})
    clusters = disambiguate(corpus, W)
    kim = [m for m in clusters.clusters.values()
           if any(k == "kim, j" for k, _p in m)]
    by_papers = sorted(sorted(p for _k, p in m) for m in kim)
    assert by_papers == [["p1", "p2"], ["q1"]]


def test_disambiguate_keeps_separate_below_group_threshold():
    papers = [("p1", "J1", 2000, [], ["kim, j"]),
              ("p2", "J1", 2001, [], ["kim, j"]),
              ("c", "J2", 2005, ["p1", "p2"])]   # one shared citer: 0.2
    corpus = make_corpus(papers, {"J1": {}, "J2": {}})
    clusters = disambiguate(corpus, SimilarityWeights(group_threshold=0.25))
    kim = [sorted(p for _k, p in m) for m in clusters.clusters.values()
           if any(k == "kim, j" for k, _p in m)]
    assert sorted(kim) == [["p1"], ["p2"]]
    # with the threshold below the average similarity they merge
    clusters = disambiguate(corpus, SimilarityWeights(group_threshold=0.19))
    kim = [sorted(p for _k, p in m) for m in clusters.clusters.values()
           if any(k == "kim, j" for k, _p in m)]
    assert sorted(kim) == [["p1", "p2"]]


def test_step2_fixed_point_no_pair_above_threshold():
    papers = [(f"p{i}", "J1", 2000 + i, [], ["kim, j"]) for i in range(5)]
    # chain of shared references to create varied similarities
    refs = {1: ["r1"], 2: ["r1"], 3: ["r2"], 4: ["r2"]}
    papers = [("r1", "J9", 1990, []), ("r2", "J9", 1990, [])] + [
        (pid, j, y, refs.get(i, []), a)
        for i, (pid, j, y, _r, a) in enumerate(papers)]
    corpus = make_corpus(papers, {"J1": {}, "J9": {}})
    clusters = disambiguate(corpus, W)
    kim_groups = [sorted(p for _k, p in m)
                  for m in clusters.clusters.values()
                  if any(k == "kim, j" for k, _p in m)]
    for i, ga in enumerate(kim_groups):
        for gb in kim_groups[i + 1:]:
            sims = [paper_similarity(corpus, a, b, W,
                                     exclude_author="kim, j")
                    for a in ga for b in gb]
            assert sum(sims) / len(sims) <= W.group_threshold


def fixture_block(similarity_matrix):
    """Corpus where pairwise similarities come solely from shared refs.

    similarity_matrix[i][j] = number of shared references between papers
    i and j (at weight 0.2 each). A distinct co-author per paper keeps
    every paper multi-authored so the singleton-exclusion rule never
    drops mentions from the block under test.
    """
    n = len(similarity_matrix)
    ref_count = 0
    refs = {i: [] for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            for _ in range(similarity_matrix[i][j]):
                rid = f"r{ref_count}"
                ref_count += 1
                refs[i].append(rid)
                refs[j].append(rid)
    papers = [(f"r{k}", "J9", 1990, []) for k in range(ref_count)]
    papers += [(f"p{i}", "J1", 2000 + i, refs[i], ["kim, j", f"co{i}, x"])
               for i in range(n)]
    return make_corpus(papers, {"J1": {}, "J9": {}})


def test_disambiguate_matches_agglomerative_oracle():
    from oracles import agglomerate_oracle

    # merging p0+p1 lifts the pair's average similarity to p2 over the
    # threshold even though neither alone crosses it
    matrix = [[0, 6, 2, 0],
              [6, 0, 0, 0],
              [2, 0, 0, 1],
              [0, 0, 1, 0]]
    corpus = fixture_block(matrix)
    weights = SimilarityWeights(group_threshold=0.19)
    clusters = disambiguate(corpus, weights)
    got = sorted(sorted(p for _k, p in m)
                 for m in clusters.clusters.values()
                 if any(k == "kim, j" for k, _p in m))

    def sim(a, b):
        return paper_similarity(corpus, a, b, weights,
                                exclude_author="kim, j")

    expected = agglomerate_oracle([f"p{i}" for i in range(4)], sim,
                                  weights.pair_threshold,
                                  weights.group_threshold)
    assert got == expected


def test_cluster_count_monotone_in_group_threshold():
    matrix = [[0, 3, 1, 0, 0],
              [3, 0, 1, 0, 0],
              [1, 1, 0, 2, 0],
              [0, 0, 2, 0, 1],
              [0, 0, 0, 1, 0]]
    corpus = fixture_block(matrix)
    counts = []
    for threshold in (0.5, 0.19, 0.05):
        weights = SimilarityWeights(group_threshold=threshold)
        counts.append(len(disambiguate(corpus, weights).clusters))
    assert counts[0] >= counts[1] >= counts[2]


def test_deterministic_given_corpus_and_weights():
    matrix = [[0, 2, 1], [2, 0, 1], [1, 1, 0]]
    corpus = fixture_block(matrix)
    first = disambiguate(corpus, W)
    second = disambiguate(corpus, W)
    assert first.clusters == second.clusters


def test_uncited_single_author_singletons_excluded():
    papers = [("lonely", "J1", 2000, [], ["kim, j"]),
              ("p1", "J1", 2001, [], ["lee, s", "park, m"]),
              ("p2", "J1", 2002, ["p1"], ["lee, s"])]
    corpus = make_corpus(papers, {"J1": {}})
    clusters = disambiguate(corpus, W)
    all_mentions = {m for ms in clusters.clusters.values() for m in ms}
    assert ("kim, j", "lonely") not in all_mentions
    assert ("kim, j", "lonely") in clusters.excluded
    # cited or multi-authored singletons stay
    assert ("park, m", "p1") in all_mentions


def demographics_fixture():
    papers = [("p1", "QJ", 2010, [], ["kim, j"]),
              ("p2", "QJ", 2018, ["p1"], ["kim, j"]),
              ("q1", "UJ", 2015, [], ["lee, s", "park, h"])]
    return make_corpus(papers, {"QJ": {"questionable": True}, "UJ": {}})


def test_demographics_academic_age_and_self_citation():
    corpus = demographics_fixture()
    clusters = disambiguate(corpus, W)
    stats = author_demographics(corpus, clusters, {"QJ"})
    assert len(stats) == 1
    s = stats[0]
    assert s.academic_age == 8
    assert s.paper_count == 2
    assert s.group_paper_count == 2
    assert s.self_citing_fraction == 0.5   # p2 cites own prior work
    assert s.self_cited_fraction == 0.5    # p1 cited by own later work
    assert s.group_self_citing_any == 1    # p2 cites a flagged-group paper
    assert s.group_self_cited_any == 1
    assert s.group_self_citing_own == 1
    assert s.group_self_cited_own == 1


def test_demographics_never_self_citing():
    papers = [("p1", "QJ", 2010, [], ["kim, j"]),
              ("p2", "QJ", 2012, [], ["kim, j"]),
              ("link", "UJ", 2013, ["p1", "p2"])]
    corpus = make_corpus(papers, {"QJ": {"questionable": True}, "UJ": {}})
    clusters = disambiguate(corpus, W)
    stats = author_demographics(corpus, clusters, {"QJ"})
    kim = [s for s in stats if s.paper_count == 2]
    assert kim and kim[0].self_citing_fraction == 0.0
    assert kim[0].self_cited_fraction == 0.0


def test_demographics_only_group_publishers():
    corpus = demographics_fixture()
    clusters = disambiguate(corpus, W)
    stats = author_demographics(corpus, clusters, {"UJ"})
    assert all(s.group_paper_count >= 1 for s in stats)
    # lee and park both published q1 in the group; kim never did
    assert len(stats) == 2
    assert all("kim" not in s.cluster_id for s in stats)
