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

Both steps run on the corpus's ``CitationGraph``, and their cost follows
the paper pairs of a block that share something, not the square of the
block. The four integer features of every such pair come from one
co-occurrence count (``row_pairs`` and one ``np.unique``); step 2 is
average linkage with Lance-Williams updates: the similarity sums of a
merged group with every other group are the two merged rows added, and
candidate pairs wait in a heap. Group pairs that share nothing average 0
and can never merge, so they are never stored.

Step 1 compares the float sum ``w_self*sc + w_author*sa + w_cit*sci +
w_ref*sr`` with the pair threshold. Step 2 compares averages exactly:
each weight and the group threshold are read as the decimal their
``repr`` prints, so 19 shared references at weight 0.2 over 4 x 5 papers
average exactly 0.19 and do not exceed a group threshold of 0.19. Among
equal averages the pair of groups whose smallest papers come first (by
paper id: first group, then second) merges first.

The default weights are fixture placeholders; production runs must
supply weights transcribed from the disambiguation method's source.
"""

from __future__ import annotations

import heapq
import math
import re
import unicodedata
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

import numpy as np

from .corpus import Corpus, csr_expand, csr_pointer, distinct, row_pairs

__all__ = [
    "SimilarityWeights",
    "AuthorClusters",
    "AuthorStats",
    "normalize_name",
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
        if not all(math.isfinite(v) for v in (*self.feature_weights,
                                               self.group_threshold)):
            raise ValueError("weights and thresholds must be finite")

    @property
    def feature_weights(self) -> tuple[float, float, float, float]:
        """Weights in feature order: self citation, shared co-authors,
        shared citers, shared references."""
        return (self.w_self_citation, self.w_shared_author,
                self.w_shared_citation, self.w_shared_reference)


@dataclass
class AuthorClusters:
    """Resolved identities: cluster id -> set of (author_key, paper_id).

    ``excluded`` lists the mentions dropped after resolution because
    their cluster was a lone mention of an uncited single-authored
    paper, where the similarity features carry no signal.
    """

    clusters: dict[str, set[tuple[str, str]]] = field(default_factory=dict)
    excluded: list[tuple[str, str]] = field(default_factory=list)


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


@dataclass
class _Blocks:
    """Name blocks over the graph's nodes.

    A membership is one distinct (block, paper); memberships are numbered
    in (block code, node) order, so each block's memberships are
    contiguous and in paper-id order. Block codes number the normalized
    names in sorted order.
    """

    names: list[str]            # block code -> normalized name
    block: np.ndarray           # membership -> block code
    node: np.ndarray            # membership -> node
    key: np.ndarray             # membership -> block * nodes + node, sorted
    name_ptr: np.ndarray        # node -> its rows of ``paper_names``
    paper_names: np.ndarray     # distinct block codes of each node's authors
    mention_keys: list[str]     # raw author key of every mention
    mention_of: np.ndarray      # mention -> membership


def _name_blocks(corpus: Corpus, ids: list[str]) -> _Blocks:
    """Every author mention of the papers ``ids`` (in node order), blocked."""
    keys: list[str] = []
    per_paper = []
    for pid in ids:
        author_keys = corpus.papers[pid].author_keys
        keys.extend(author_keys)
        per_paper.append(len(author_keys))
    normalized = [normalize_name(k) for k in keys]
    names = sorted(set(normalized))
    code = {b: i for i, b in enumerate(names)}
    n, n_names = len(ids), len(names)
    name_of = np.array([code[b] for b in normalized], dtype=np.int64)
    node_of = np.repeat(np.arange(n, dtype=np.int64), per_paper)

    member_key = distinct(name_of * n + node_of)
    block, node = np.divmod(member_key, n)
    paper_node, paper_names = np.divmod(distinct(node_of * n_names + name_of),
                                        n_names)
    return _Blocks(names=names, block=block, node=node, key=member_key,
                   name_ptr=csr_pointer(paper_node, n),
                   paper_names=paper_names,
                   mention_keys=keys,
                   mention_of=np.searchsorted(member_key, name_of * n + node_of))


# Memberships per pass of the feature kernel: passes cover whole blocks,
# and their temporaries stay small however large the corpus.
_PASS_MEMBERS = 2048


def _pair_features(graph, blocks: _Blocks):
    """The four integer features of every membership pair sharing one.

    Returns the pair codes ``lo * M + hi`` (M memberships, lo < hi, same
    block), ascending, and an int64 (pairs, 4) array of mutual citation
    (0 or 1), shared co-authors, shared citers and shared references.
    The last three count the distinct normalized co-author names other
    than the block's own, citing nodes and cited nodes two papers of a
    block share. Papers alone in their block take no part.
    """
    n = graph.n_nodes
    # each citation once: repeated references share nothing more
    src, dst = np.divmod(distinct(graph.src * n + graph.dst), n)
    by_dst = np.lexsort((src, dst))
    rows = [  # feature -> (row pointer over nodes, row items, item count)
        (blocks.name_ptr, blocks.paper_names, len(blocks.names)),
        (csr_pointer(dst[by_dst], n), src[by_dst], n),
        (csr_pointer(src, n), dst, n),
    ]
    del by_dst
    shared = np.flatnonzero(np.bincount(blocks.block)[blocks.block] > 1)
    block = blocks.block[shared]
    cuts = np.searchsorted(block, block[_PASS_MEMBERS::_PASS_MEMBERS])
    codes = []
    for part in np.split(shared, distinct(cuts)):
        codes.extend(_pair_codes(blocks, part, rows))
    keys, counts = np.unique(np.concatenate(codes), return_counts=True)
    pairs, inverse = np.unique(keys // 4, return_inverse=True)
    features = np.zeros((len(pairs), 4), dtype=np.int64)
    # a pair citing each other both ways still counts one mutual citation
    features[inverse, keys % 4] = np.where(keys % 4, counts, 1)
    return pairs, features


def _pair_codes(blocks: _Blocks, members, rows):
    """``(lo * M + hi) * 4 + feature`` once per item a pair shares, over
    the given memberships of whole blocks."""
    n_members = len(blocks.node)
    codes = []
    for feature, (indptr, items, width) in enumerate(rows, start=1):
        which, pos = csr_expand(blocks.node[members], indptr)
        member, item = members[which], items[pos]
        if feature == 1:            # the blocked name is shared by all
            keep = item != blocks.block[member]
            member, item = member[keep], item[keep]
        row = blocks.block[member] * width + item
        if feature == 3:
            # row is the membership key of (block, cited paper): a hit is
            # a citation inside the block, feature 0
            at = np.searchsorted(blocks.key, row)
            inside = at < n_members
            inside[inside] = blocks.key[at[inside]] == row[inside]
            lo, hi = member[inside], at[inside]
            codes.append((np.minimum(lo, hi) * n_members
                          + np.maximum(lo, hi)) * 4)
        # stable: within one (block, item) row the members stay ascending
        order = np.argsort(row, kind="stable")
        first, second = row_pairs(row[order])
        member = member[order]
        codes.append((member[first] * n_members + member[second]) * 4
                     + feature)
    return codes


def _components(n_members, lo, hi):
    """Each membership's smallest connected membership over edges (lo, hi)."""
    parent = list(range(n_members))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(lo.tolist(), hi.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    root = np.array(parent, dtype=np.int64)
    while True:
        up = root[root]
        if np.array_equal(up, root):
            return root
        root = up


def _decimal_integers(values):
    """Integers proportional to ``values`` read as the decimals repr prints."""
    exact = [Fraction(repr(float(v))) for v in values]
    scale = math.lcm(*(f.denominator for f in exact))
    return [int(f * scale) for f in exact]


class _Candidate:
    """A pair of groups, heap-ordered as step 2 merges them.

    ``num / size`` is the pair's average similarity in exact integer
    units; the higher average comes first, then the smaller ``order``,
    ``lo * M + hi`` over the two groups' smallest memberships lo < hi.
    """

    __slots__ = ("num", "size", "order", "a", "b")

    def __init__(self, num, size, order, a, b):
        self.num, self.size, self.order, self.a, self.b = \
            num, size, order, a, b

    def __lt__(self, other):
        mine, theirs = self.num * other.size, other.num * self.size
        if mine != theirs:
            return mine > theirs
        return self.order < other.order


def _average_linkage(root, block, pairs, features,
                     weights: SimilarityWeights):
    """Step 2: each membership's final group, as its smallest membership.

    ``root`` gives every membership's step-1 group and ``block`` its
    block; ``pairs`` and ``features`` are ``_pair_features``. A group
    pair's similarity sum is the weighted sum of its feature sums, kept
    as an exact integer.
    """
    n_members = len(root)
    *w, threshold = _decimal_integers((*weights.feature_weights,
                                       weights.group_threshold))
    lo, hi = np.divmod(pairs, n_members)
    ga, gb = root[lo], root[hi]
    cross = ga != gb
    group_pairs, inverse = np.unique(
        np.minimum(ga, gb)[cross] * n_members + np.maximum(ga, gb)[cross],
        return_inverse=True)
    sums = np.zeros((len(group_pairs), 4), dtype=np.int64)
    np.add.at(sums, inverse, features[cross])
    # exact weighted sums; Python integers where int64 could overflow
    wide = sum(abs(x) for x in w) * int(sums.max(initial=0)) >= 2 ** 63
    nums = sums.astype(object if wide else np.int64) @ np.array(
        w, dtype=object if wide else np.int64)

    size = np.bincount(root, minlength=n_members).tolist()
    final = np.arange(n_members)
    # group pairs ascend, so each block's pairs are contiguous
    cuts = np.flatnonzero(np.diff(block[group_pairs // n_members])) + 1
    for codes, block_nums in zip(np.split(group_pairs, cuts),
                                 np.split(nums, cuts)):
        _merge_block(codes.tolist(), block_nums.tolist(), size, threshold,
                     final)
    return final[root]


def _merge_block(codes, nums, size, threshold, final):
    """Greedy merging inside one block, over its group pairs ``codes``
    (``a * M + b``, a < b step-1 roots) and their weighted sums ``nums``.

    A merged group gets a new id from M up; its row of sums with every
    other group is the two merged rows added. Candidates above the
    threshold wait in a heap and are skipped once a side has merged.
    Writes each merged root's final group, as its smallest membership,
    into ``final``.
    """
    n_members = len(size)
    rows: dict[int, dict[int, int]] = {}     # group -> {group: sum}
    sizes = {}                               # group -> papers
    first, members = {}, {}                  # of merged groups
    heap = []
    for code, num in zip(codes, nums):
        a, b = divmod(code, n_members)
        rows.setdefault(a, {})[b] = num
        rows.setdefault(b, {})[a] = num
        sizes[a], sizes[b] = size[a], size[b]
        pair_size = sizes[a] * sizes[b]
        if num > threshold * pair_size:
            heap.append(_Candidate(num, pair_size, code, a, b))
    heapq.heapify(heap)

    g = n_members
    while heap:
        best = heapq.heappop(heap)
        a, b = best.a, best.b
        if a not in rows or b not in rows:   # a side merged since the push
            continue
        merged = rows.pop(a)
        other = rows.pop(b)
        del merged[b], other[a]
        for h, num in other.items():
            merged[h] = merged.get(h, 0) + num
        sizes[g] = sizes.pop(a) + sizes.pop(b)
        first[g] = min(first.get(a, a), first.get(b, b))
        members[g] = members.pop(a, [a]) + members.pop(b, [b])
        for h, num in merged.items():
            row = rows[h]
            row.pop(a, None)
            row.pop(b, None)
            row[g] = num
            pair_size = sizes[g] * sizes[h]
            if num > threshold * pair_size:
                lo, hi = sorted((first[g], first.get(h, h)))
                heapq.heappush(heap, _Candidate(num, pair_size,
                                                lo * n_members + hi, g, h))
        rows[g] = merged
        g += 1
    for g, roots in members.items():
        final[roots] = first[g]


def disambiguate(corpus: Corpus, weights: SimilarityWeights) -> AuthorClusters:
    """Resolve every author mention in the corpus into identity clusters.

    Deterministic for a given corpus and weights: the clusters of a
    block are numbered in the order of their smallest paper ids, and
    merges break ties by group ordering. Lone mentions of uncited
    single-authored papers are excluded after resolution.
    """
    ids = corpus.ids
    # built before the block structures: built after the clusters, this
    # small array raised the process's peak RSS by about 0.6 MiB
    cited = np.bincount(corpus.graph.dst, minlength=len(ids)) > 0
    blocks = _name_blocks(corpus, ids)
    n_members = len(blocks.node)
    result = AuthorClusters()
    if not n_members:
        return result

    pairs, features = _pair_features(corpus.graph, blocks)
    w = weights.feature_weights
    similarity = (w[0] * features[:, 0] + w[1] * features[:, 1]
                  + w[2] * features[:, 2] + w[3] * features[:, 3])
    lo, hi = np.divmod(pairs[similarity > weights.pair_threshold], n_members)
    label = _average_linkage(_components(n_members, lo, hi), blocks.block,
                             pairs, features, weights)

    # cluster index in its block: rank of its smallest membership
    rank = np.cumsum(label == np.arange(n_members)) - 1
    block_start = np.searchsorted(blocks.block, blocks.block)
    index = rank[label] - rank[block_start]
    cluster_of = [f"{blocks.names[b]}#{k}"
                  for b, k in zip(blocks.block.tolist(), index.tolist())]
    node, mention_of = blocks.node.tolist(), blocks.mention_of.tolist()
    # in membership order, so clusters are inserted block by block, in
    # cluster-index order
    for i in np.argsort(blocks.mention_of, kind="stable").tolist():
        m = mention_of[i]
        result.clusters.setdefault(cluster_of[m], set()).add(
            (blocks.mention_keys[i], ids[node[m]]))

    for cluster_id in sorted(result.clusters):
        members = result.clusters[cluster_id]
        if len(members) != 1:
            continue
        ((_key, pid),) = members
        paper = corpus.papers[pid]
        if (len(paper.author_keys) == 1
                and not cited[corpus.node[pid]]):
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
    papers = corpus.papers
    cluster_ids = [cid for cid in sorted(clusters.clusters)
                   if any(papers[pid].journal_id in group
                          for _key, pid in clusters.clusters[cid])]
    if not cluster_ids:
        return []
    graph = corpus.graph
    ids, node = corpus.ids, corpus.node
    n = len(ids)
    member_key = distinct(np.array(
        [c * n + node[pid] for c, cid in enumerate(cluster_ids)
         for _key, pid in clusters.clusters[cid]], dtype=np.int64))
    cluster, member = np.divmod(member_key, n)     # (cluster, paper) pairs
    n_clusters = len(cluster_ids)
    in_group = np.array([papers[pid].journal_id in group for pid in ids],
                        dtype=bool)

    def per_cluster(flags):
        """Papers of each cluster whose node flag is set."""
        return np.bincount(cluster[flags[member]], minlength=n_clusters)

    # self citations (c, s, t): cluster c holds both s and t, s cites t;
    # a repeated citation repeats a triple, which papers_with counts once
    src, dst = graph.src, graph.dst          # src ascends
    several = np.flatnonzero(np.bincount(cluster)[cluster] > 1)
    which, pos = csr_expand(member[several], csr_pointer(src, n))
    c, s, t = cluster[several[which]], member[several[which]], dst[pos]
    at = np.searchsorted(member_key, c * n + t)
    own = at < len(member_key)
    own[own] = member_key[at[own]] == c[own] * n + t[own]
    c, s, t = c[own], s[own], t[own]

    def papers_with(end, flags=None):
        """Distinct cluster papers at one end of the selected self citations."""
        keys = c * n + end
        keys = distinct(keys if flags is None else keys[flags])
        return np.bincount(keys // n, minlength=n_clusters)

    cites_group = np.zeros(n, dtype=bool)
    cites_group[src[in_group[dst]]] = True
    cited_by_group = np.zeros(n, dtype=bool)
    cited_by_group[dst[in_group[src]]] = True
    years = graph.year_of[member]
    starts = np.searchsorted(cluster, np.arange(n_clusters))
    columns = zip(
        np.bincount(cluster, minlength=n_clusters).tolist(),
        per_cluster(in_group).tolist(),
        np.maximum.reduceat(years, starts).tolist(),
        np.minimum.reduceat(years, starts).tolist(),
        papers_with(s).tolist(),
        papers_with(t).tolist(),
        per_cluster(cites_group).tolist(),
        per_cluster(cited_by_group).tolist(),
        papers_with(s, in_group[t]).tolist(),
        papers_with(t, in_group[s]).tolist())
    return [AuthorStats(cluster_id=cluster_id,
                        academic_age=last - first,
                        paper_count=count,
                        group_paper_count=group_count,
                        self_cited_fraction=self_cited / count,
                        self_citing_fraction=self_citing / count,
                        group_self_citing_any=citing_any,
                        group_self_cited_any=cited_any,
                        group_self_citing_own=citing_own,
                        group_self_cited_own=cited_own)
            for cluster_id, (count, group_count, last, first, self_citing,
                             self_cited, citing_any, cited_any, citing_own,
                             cited_own) in zip(cluster_ids, columns)]
