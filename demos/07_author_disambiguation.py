"""Resolving author name strings into identities, then career statistics.

Mentions are blocked by normalized name; within a block, papers whose
similarity (citation link, shared co-authors, shared citers, shared
references) exceeds the pair threshold are unioned, and the resulting
groups keep merging while their average similarity clears the group
threshold. The shipped weights are placeholders for small fixtures;
production runs must configure weights from the method's source.
"""

from citnet import (SimilarityWeights, author_demographics, disambiguate,
                    paper_similarity)
from citnet.authors import normalize_name
from citnet.corpus import Corpus, Journal, LoadReport, Paper


def make_corpus(paper_specs, journal_ids):
    papers = {}
    for pid, jid, year, refs, authors in paper_specs:
        papers[pid] = Paper(paper_id=pid, journal_id=jid, year=year,
                            author_keys=tuple(authors),
                            references=tuple(refs))
    journals = {j: Journal(journal_id=j, categories=("10",),
                           questionable_flag=(j == "QJ"))
                for j in journal_ids}
    return Corpus(papers, journals, {}, LoadReport())


print(normalize_name("Kim, Ji-Hoon"), "|", normalize_name("J. Kim"))

corpus = make_corpus([
    # one Kim: a pair of linked methods papers
    ("m1", "QJ", 2010, [], ["Kim, J.", "Lee, S."]),
    ("m2", "QJ", 2013, ["m1"], ["Kim, J.", "Lee, S."]),
    # a different Kim working elsewhere, no overlap with the first
    ("z1", "UJ", 2012, [], ["Kim, J.", "Park, H."]),
], ["QJ", "UJ"])

weights = SimilarityWeights()
print("similarity m1-m2:",
      paper_similarity(corpus, "m1", "m2", weights, exclude_author="Kim, J."))
print("similarity m1-z1:",
      paper_similarity(corpus, "m1", "z1", weights, exclude_author="Kim, J."))

clusters = disambiguate(corpus, weights)
for cid in sorted(clusters.clusters):
    mentions = sorted(clusters.clusters[cid])
    print(cid, "->", mentions)

stats = author_demographics(corpus, clusters, group_journals={"QJ"})
for s in stats:
    print(f"{s.cluster_id}: age {s.academic_age}, papers {s.paper_count}, "
          f"in group {s.group_paper_count}, self-citing "
          f"{s.self_citing_fraction:.0%}, self-cited "
          f"{s.self_cited_fraction:.0%}")
