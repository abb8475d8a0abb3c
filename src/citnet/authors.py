"""Author identity resolution and author-level citation statistics.

Name strings are first grouped into blocks (case-folded, diacritics
stripped, "surname, initials" canonical form); identities are then
resolved per block in two steps:

1. papers whose pairwise similarity exceeds the pair threshold are
   unioned into groups;
2. groups are merged greedily, highest average inter-group similarity
   first, while that average exceeds the group threshold.

Similarity between two papers is a weighted sum of four features:
whether either cites the other, shared co-authors (the blocked name
itself never counts), shared citing papers, and shared references.

The default weights are fixture placeholders; production runs must
supply weights transcribed from the disambiguation method's source.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Optional

from .corpus import Corpus

__all__ = [
    "SimilarityWeights",
    "AuthorClusters",
    "AuthorStats",
    "normalize_name",
    "paper_similarity",
    "disambiguate",
    "author_demographics",
]


@dataclass(frozen=True)
class SimilarityWeights:
    w_self_citation: float = 1.0
    w_shared_author: float = 0.5
    w_shared_citation: float = 0.2
    w_shared_reference: float = 0.2
    pair_threshold: float = 1.0
    group_threshold: float = 0.19

    def __post_init__(self):
        if self.pair_threshold <= 0 or self.group_threshold <= 0:
            raise ValueError("thresholds must be positive")


@dataclass
class AuthorClusters:
    """Resolved identities: cluster id -> set of (author_key, paper_id).

    ``excluded`` lists the mentions dropped after resolution because
    their cluster was a lone mention of an uncited single-authored
    paper, where the similarity features carry no signal.
    """

    clusters: dict[str, set[tuple[str, str]]] = field(default_factory=dict)
    excluded: list[tuple[str, str]] = field(default_factory=list)

    def papers_of(self, cluster_id) -> set[str]:
        return {pid for _key, pid in self.clusters[cluster_id]}


@dataclass(frozen=True)
class AuthorStats:
    cluster_id: str
    academic_age: int
    paper_count: int
    group_paper_count: int
    self_cited_fraction: float
    self_citing_fraction: float
    # both readings of "group-level" self-citation, labeled:
    # *_any counts the author's papers citing / cited by any paper in a
    # flagged-group journal; *_own restricts to the author's own papers
    # published in the flagged group.
    group_self_citing_any: int
    group_self_cited_any: int
    group_self_citing_own: int
    group_self_cited_own: int


@lru_cache(maxsize=None)
def normalize_name(name: str) -> str:
    """Canonical "surname, initials" block key for one raw name string."""
    text = unicodedata.normalize("NFKD", name)
    text = "".join(c for c in text if not unicodedata.combining(c))
    text = text.casefold().strip()
    text = re.sub(r"[.]", " ", text)
    if "," in text:
        surname, _, given = text.partition(",")
    else:
        parts = text.split()
        surname = parts[-1] if parts else ""
        given = " ".join(parts[:-1])
    surname = re.sub(r"\s+", " ", surname).strip()
    initials = " ".join(tok[0] for tok in given.split() if tok)
    return f"{surname}, {initials}" if initials else surname


def paper_similarity(corpus: Corpus, p1: str, p2: str,
                     weights: SimilarityWeights,
                     exclude_author: Optional[str] = None) -> float:
    """Weighted feature sum for two distinct papers of one name block.

    ``exclude_author`` removes the blocked name itself from the shared
    co-author count (it is shared by construction); the comparison is by
    normalized form, so raw name variants of the block are all excluded.
    """
    if p1 == p2:
        raise ValueError("similarity is defined for distinct papers")
    a, b = corpus.papers[p1], corpus.papers[p2]
    refs1, refs2 = set(corpus.forward[p1]), set(corpus.forward[p2])

    self_cite = 1.0 if (p2 in refs1 or p1 in refs2) else 0.0
    authors1 = {normalize_name(k) for k in a.author_keys}
    authors2 = {normalize_name(k) for k in b.author_keys}
    if exclude_author is not None:
        blocked = normalize_name(exclude_author)
        authors1.discard(blocked)
        authors2.discard(blocked)
    shared_authors = len(authors1 & authors2)
    citers1 = {c for c, _y in corpus.citers[p1]}
    citers2 = {c for c, _y in corpus.citers[p2]}
    shared_citations = len(citers1 & citers2)
    shared_references = len(refs1 & refs2)

    return (weights.w_self_citation * self_cite
            + weights.w_shared_author * shared_authors
            + weights.w_shared_citation * shared_citations
            + weights.w_shared_reference * shared_references)


def _group_average(sim, group_a, group_b):
    total = 0.0
    pairs = 0
    for pa in group_a:
        for pb in group_b:
            total += sim[(pa, pb)] if (pa, pb) in sim else sim[(pb, pa)]
            pairs += 1
    return total / pairs if pairs else 0.0


def _resolve_block(corpus, block_key, mentions, weights):
    """Two-step resolution of one name block; returns paper groups."""
    papers = sorted({pid for _key, pid in mentions})
    if len(papers) == 1:
        return [papers]
    sim = {}
    for i, pa in enumerate(papers):
        for pb in papers[i + 1:]:
            sim[(pa, pb)] = paper_similarity(corpus, pa, pb, weights,
                                             exclude_author=block_key)

    # step 1: union strictly-above-threshold pairs
    parent = {p: p for p in papers}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for (pa, pb), s in sorted(sim.items()):
        if s > weights.pair_threshold:
            ra, rb = find(pa), find(pb)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

    groups: dict[str, list[str]] = {}
    for p in papers:
        groups.setdefault(find(p), []).append(p)
    merged = [sorted(g) for g in groups.values()]
    merged.sort()

    # step 2: greedy merging while the best average exceeds the threshold
    while len(merged) > 1:
        best = None
        for i in range(len(merged)):
            for j in range(i + 1, len(merged)):
                avg = _group_average(sim, merged[i], merged[j])
                if best is None or avg > best[0] + 1e-15:
                    best = (avg, i, j)
        if best is None or best[0] <= weights.group_threshold:
            break
        _, i, j = best
        merged[i] = sorted(merged[i] + merged[j])
        del merged[j]
        merged.sort()
    return merged


def disambiguate(corpus: Corpus, weights: SimilarityWeights) -> AuthorClusters:
    """Resolve every author mention in the corpus into identity clusters.

    Deterministic for a given corpus and weights: blocks are processed in
    sorted order and merges break ties by group ordering. Lone mentions
    of uncited single-authored papers are excluded after resolution.
    """
    blocks: dict[str, list[tuple[str, str]]] = {}
    for pid in sorted(corpus.papers):
        for key in corpus.papers[pid].author_keys:
            blocks.setdefault(normalize_name(key), []).append((key, pid))

    result = AuthorClusters()
    for block_key in sorted(blocks):
        mentions = blocks[block_key]
        paper_groups = _resolve_block(corpus, block_key, mentions, weights)
        for idx, group in enumerate(paper_groups):
            result.clusters[f"{block_key}#{idx}"] = {
                (key, pid) for key, pid in mentions if pid in group}

    for cluster_id in sorted(result.clusters):
        members = result.clusters[cluster_id]
        if len(members) != 1:
            continue
        ((_key, pid),) = members
        paper = corpus.papers[pid]
        if len(paper.author_keys) == 1 and not corpus.citers[pid]:
            result.excluded.extend(sorted(members))
            del result.clusters[cluster_id]
    return result


def author_demographics(corpus: Corpus, clusters: AuthorClusters,
                        group_journals: Iterable[str]) -> list[AuthorStats]:
    """Career statistics for every cluster publishing in the flagged group.

    A paper is self-citing when it cites another paper of the same
    cluster and self-cited when another cluster paper cites it; the
    fractions are over the cluster's papers.
    """
    group = set(group_journals)
    stats = []
    for cluster_id in sorted(clusters.clusters):
        papers = sorted(clusters.papers_of(cluster_id))
        paper_set = set(papers)
        group_papers = [p for p in papers
                        if corpus.papers[p].journal_id in group]
        if not group_papers:
            continue
        years = [corpus.papers[p].year for p in papers]

        self_citing = 0
        self_cited = 0
        citing_any = 0
        cited_any = 0
        citing_own = 0
        cited_own = 0
        own_group = set(group_papers)
        for pid in papers:
            refs = set(corpus.forward[pid])
            citers = {c for c, _y in corpus.citers[pid]}
            if refs & (paper_set - {pid}):
                self_citing += 1
            if citers & (paper_set - {pid}):
                self_cited += 1
            if any(corpus.papers[r].journal_id in group for r in refs):
                citing_any += 1
            if any(corpus.papers[c].journal_id in group for c in citers):
                cited_any += 1
            if refs & (own_group - {pid}):
                citing_own += 1
            if citers & (own_group - {pid}):
                cited_own += 1

        stats.append(AuthorStats(
            cluster_id=cluster_id,
            academic_age=max(years) - min(years),
            paper_count=len(papers),
            group_paper_count=len(group_papers),
            self_cited_fraction=self_cited / len(papers),
            self_citing_fraction=self_citing / len(papers),
            group_self_citing_any=citing_any,
            group_self_cited_any=cited_any,
            group_self_citing_own=citing_own,
            group_self_cited_own=cited_own,
        ))
    return stats
