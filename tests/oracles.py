"""Independent brute-force reference implementations.

Everything here recomputes results from first principles with a code
path deliberately different from the library's: exhaustive enumeration
instead of accumulation, dense matrices instead of adjacency dicts, raw
scans instead of indices. Tests compare the two sides; nothing here may
import the functions it checks.
"""

import csv
import re
import weakref
from bisect import insort
from collections import Counter, deque, namedtuple
from fractions import Fraction
from statistics import median

import numpy as np


# -- serial-number checksum -------------------------------------------------

_SHAPE = re.compile(r"^\d{4}-\d{3}[\dX]$")


def issn_valid_oracle(candidate):
    """Full-sum formulation: weighted total over all eight characters
    (X counts as 10) must vanish modulo 11."""
    if not isinstance(candidate, str) or not _SHAPE.match(candidate):
        return False
    chars = candidate.replace("-", "")
    total = 0
    for ch, weight in zip(chars, range(8, 0, -1)):
        total += (10 if ch == "X" else int(ch)) * weight
    return total % 11 == 0


# -- CSV output ----------------------------------------------------------------


def fmt_cell(value):
    """CSV cell formatting: None becomes an empty cell, never 0."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv_per_cell(path, header, rows):
    """The CSV writer that formats each cell on its own, with ``\\n``
    line endings."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt_cell(v) for v in row])


# -- string citation indices -----------------------------------------------

_INDICES = weakref.WeakKeyDictionary()


def string_indices(corpus):
    """(forward, citers) of a corpus as dicts of string tuples.

    forward[p]: p's references that name another corpus paper, in list
    order, repeats kept. citers[p]: (citing id, citing year) of every
    such reference to p, citing papers in sorted-id order. The two are
    built in one scan of the reference lists, as the corpus once built
    them on load, and kept per corpus.
    """
    if corpus not in _INDICES:
        papers = corpus.papers
        forward = {}
        citers = {p: [] for p in papers}
        for pid in sorted(papers):
            paper = papers[pid]
            forward[pid] = tuple(r for r in paper.references
                                 if r in papers and r != pid)
            for ref in forward[pid]:
                citers[ref].append((pid, paper.year))
        _INDICES[corpus] = (forward,
                            {p: tuple(v) for p, v in citers.items()})
    return _INDICES[corpus]


def journal_of(corpus, paper_id):
    """Journal id of a paper, or None when the journal is unregistered."""
    jid = corpus.papers[paper_id].journal_id
    return jid if jid in corpus.journals else None


def citation_edges(corpus):
    """(citing id, cited id) of every entry of the forward index, papers
    in sorted-id order."""
    forward, _citers = string_indices(corpus)
    return [(pid, ref) for pid in sorted(forward) for ref in forward[pid]]


# -- facts derived from the records ------------------------------------------


def paper_counts_reference(corpus):
    """journal id -> {year: papers} by one scan of the paper records, for
    every registered journal."""
    counts = {jid: Counter() for jid in corpus.journals}
    for paper in corpus.papers.values():
        if paper.journal_id in counts:
            counts[paper.journal_id][paper.year] += 1
    return {jid: dict(c) for jid, c in counts.items()}


def publisher_journals_reference(corpus):
    """publisher id -> the set of journals whose record names it, for
    every registered publisher."""
    return {pub: {jid for jid, journal in corpus.journals.items()
                  if journal.publisher_id == pub}
            for pub in corpus.publishers}


# -- reference hygiene and validation -----------------------------------------


def load_report_reference(corpus):
    """The load report as the loader once built it: one walk over every
    reference list, papers in sorted-id order, as a dict of its lists."""
    papers = corpus.papers
    report = {"dangling_references": [], "self_references": [],
              "duplicate_references": [], "unknown_journal_papers": [],
              "unknown_publisher_journals": [
                  jid for jid, journal in corpus.journals.items()
                  if journal.publisher_id is not None
                  and journal.publisher_id not in corpus.publishers]}
    for pid in sorted(papers):
        paper = papers[pid]
        seen = set()
        for ref in paper.references:
            if ref == pid:
                report["self_references"].append(pid)
            elif ref not in papers:
                report["dangling_references"].append((pid, ref))
            if ref in seen:
                report["duplicate_references"].append((pid, ref))
            seen.add(ref)
        if paper.journal_id not in corpus.journals:
            report["unknown_journal_papers"].append(pid)
    return report


def validation_reference(corpus):
    """Every violation as (kind, entity, detail), in report order: a
    per-paper loop over the records, then the journals and publishers."""
    found = []
    lo, hi = corpus.year_range
    for pid in sorted(corpus.papers):
        paper = corpus.papers[pid]
        if not (lo <= paper.year <= hi):
            found.append(("year_out_of_range", pid,
                          f"year {paper.year} outside [{lo}, {hi}]"))
        if pid in paper.references:
            found.append(("self_reference", pid, "paper cites itself"))
        if len(set(paper.references)) != len(paper.references):
            found.append(("duplicate_reference", pid,
                          "reference list has duplicates"))
        if paper.journal_id not in corpus.journals:
            found.append(("unknown_journal", pid,
                          f"journal {paper.journal_id!r} not registered"))
    for jid in sorted(corpus.journals):
        journal = corpus.journals[jid]
        found += [("issn_checksum", jid, f"invalid ISSN {issn!r}")
                  for issn in journal.issns if not issn_valid_oracle(issn)]
        if not journal.categories:
            found.append(("empty_categories", jid, "no subject categories"))
        if (journal.publisher_id is not None
                and journal.publisher_id not in corpus.publishers):
            found.append(("unknown_publisher", jid, f"publisher "
                          f"{journal.publisher_id!r} not registered"))
    members = publisher_journals_reference(corpus)
    found += [("empty_publisher", pub, "no journals")
              for pub in sorted(members) if not members[pub]]
    return found


# -- shortest-path machinery on small digraphs ------------------------------


def all_shortest_paths(adj, s, t, n):
    """Every shortest simple path s -> t by exhaustive DFS enumeration."""
    best = [None]
    found = []

    def walk(node, path):
        if best[0] is not None and len(path) - 1 > best[0]:
            return
        if node == t:
            length = len(path) - 1
            if best[0] is None or length < best[0]:
                best[0] = length
                found.clear()
            if length == best[0]:
                found.append(list(path))
            return
        for nxt in adj.get(node, ()):
            if nxt not in path:
                path.append(nxt)
                walk(nxt, path)
                path.pop()

    walk(s, [s])
    return found


def betweenness_oracle(nodes, edges):
    """Fractional pair-dependency totals via explicit path enumeration."""
    adj = {u: set() for u in nodes}
    for u, v in edges:
        if u != v:
            adj[u].add(v)
    adj = {u: sorted(vs) for u, vs in adj.items()}
    score = {u: 0.0 for u in nodes}
    for s in nodes:
        for t in nodes:
            if s == t:
                continue
            paths = all_shortest_paths(adj, s, t, len(nodes))
            if not paths:
                continue
            for path in paths:
                for v in path[1:-1]:
                    score[v] += 1.0 / len(paths)
    return score


def harmonic_closeness_oracle(nodes, edges):
    """Floyd-Warshall distances, then sum of reciprocal incoming distances."""
    index = {u: i for i, u in enumerate(nodes)}
    n = len(nodes)
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v in edges:
        if u != v:
            dist[index[u], index[v]] = 1.0
    for k in range(n):
        for i in range(n):
            for j in range(n):
                through = dist[i, k] + dist[k, j]
                if through < dist[i, j]:
                    dist[i, j] = through
    score = {}
    for u in nodes:
        j = index[u]
        total = 0.0
        for v in nodes:
            if v == u:
                continue
            d = dist[index[v], j]
            if np.isfinite(d):
                total += 1.0 / d
        score[u] = total
    return score


def pagerank_oracle(nodes, weighted_edges, damping=0.85, iterations=10000,
                    tol=1e-14):
    """Dense column-stochastic matrix iterated to machine fixed point."""
    index = {u: i for i, u in enumerate(nodes)}
    n = len(nodes)
    out = np.zeros(n)
    w = np.zeros((n, n))
    for (u, v), weight in weighted_edges.items():
        w[index[v], index[u]] += weight
        out[index[u]] += weight
    m = np.zeros((n, n))
    for u in range(n):
        if out[u] > 0:
            m[:, u] = w[:, u] / out[u]
        else:
            m[:, u] = 1.0 / n
    x = np.full(n, 1.0 / n)
    for _ in range(iterations):
        nxt = damping * (m @ x) + (1.0 - damping) / n
        if np.abs(nxt - x).sum() < tol:
            x = nxt
            break
        x = nxt
    return {u: float(x[index[u]]) for u in nodes}


def pagerank_reference(nodes, weighted_edges, damping=0.85, tol=1e-10,
                       max_iter=1000):
    """Power iteration over dicts, the loop the position-array kernel
    replaced, with the same order of float adds.

    Returns (scores, iterations, residual); scores is None when
    ``max_iter`` iterations leave the residual at or above ``tol``.
    """
    n = len(nodes)
    out_weight = {u: 0.0 for u in nodes}
    succ = {u: [] for u in nodes}
    for (u, v), w in weighted_edges.items():
        out_weight[u] += w
        succ[u].append((v, float(w)))
    rank = {u: 1.0 / n for u in nodes}
    base = (1.0 - damping) / n
    residual = float("inf")
    for iteration in range(1, max_iter + 1):
        dangling = sum(rank[u] for u in nodes if out_weight[u] == 0.0)
        nxt = {u: base + damping * dangling / n for u in nodes}
        for u in nodes:
            if out_weight[u] == 0.0:
                continue
            share = damping * rank[u] / out_weight[u]
            for v, w in succ[u]:
                nxt[v] += share * w
        residual = sum(abs(nxt[u] - rank[u]) for u in nodes)
        rank = nxt
        if residual < tol:
            return rank, iteration, residual
    return None, max_iter, residual


def pathcore_oracle(nodes, edges):
    """Edge-bypass participation via explicit shortest-path enumeration."""
    simple = sorted({(u, v) for u, v in edges if u != v})
    adj = {u: set() for u in nodes}
    for u, v in simple:
        adj[u].add(v)
    score = {u: 0.0 for u in nodes}
    for s, t in simple:
        adj[s].discard(t)
        paths = all_shortest_paths({u: sorted(vs) for u, vs in adj.items()},
                                   s, t, len(nodes))
        adj[s].add(t)
        if not paths:
            continue
        for path in paths:
            for v in path[1:-1]:
                score[v] += 1.0 / len(paths)
    top = max(score.values(), default=0.0)
    if top > 0:
        score = {u: x / top for u, x in score.items()}
    return score


# -- per-source BFS references ----------------------------------------------
#
# The dict-based searches the batched CSR kernel replaced: one BFS per
# source (or per bypassed edge) over sorted successor and predecessor
# lists. PathCore and closeness sum in the same order as the kernel does,
# so the two sides agree to the last bit; betweenness accumulates in
# another order.


def _sorted_lists(nodes, edges):
    """Sorted successor and predecessor lists of the loop-free skeleton."""
    succ = {u: [] for u in nodes}
    pred = {u: [] for u in nodes}
    for u, v in sorted(edges):
        if u != v:
            succ[u].append(v)
            pred[v].append(u)
    return succ, pred


def bfs_counts_reference(adj, source):
    """Distances and shortest-path counts from one node (unit lengths)."""
    dist = {source: 0}
    sigma = {source: 1.0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                sigma[v] = 0.0
                queue.append(v)
            if dist[v] == dist[u] + 1:
                sigma[v] += sigma[u]
    return dist, sigma


def betweenness_reference(nodes, edges):
    """Unnormalized directed betweenness, Brandes accumulation per source."""
    succ, pred = _sorted_lists(nodes, edges)
    scores = {u: 0.0 for u in nodes}
    for source in nodes:
        dist, sigma = bfs_counts_reference(succ, source)
        delta = dict.fromkeys(dist, 0.0)
        for w in reversed(dist):            # dist is filled in BFS order
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in pred[w]:
                if dist.get(v) == dist[w] - 1:
                    delta[v] += sigma[v] * coeff
            if w != source:
                scores[w] += delta[w]
    return scores


def closeness_reference(nodes, edges):
    """Harmonic closeness over incoming paths, summed over sources in order."""
    succ, _pred = _sorted_lists(nodes, edges)
    scores = {u: 0.0 for u in nodes}
    for source in nodes:
        for target, d in bfs_counts_reference(succ, source)[0].items():
            if d:
                scores[target] += 1 / d
    return scores


def pathcore_reference(nodes, edges):
    """Edge-bypass participation, one pair of searches per removed edge."""
    succ, pred = _sorted_lists(nodes, edges)
    raw = {u: 0.0 for u in nodes}
    for s, t in [(s, t) for s in sorted(succ) for t in succ[s]]:
        succ[s].remove(t)
        pred[t].remove(s)
        dist_f, sigma_f = bfs_counts_reference(succ, s)
        if t in dist_f:
            dist_b, sigma_b = bfs_counts_reference(pred, t)
            d = dist_f[t]
            total = sigma_f[t]
            for v in dist_f:
                if v in (s, t) or v not in dist_b:
                    continue
                if dist_f[v] + dist_b[v] == d:
                    raw[v] += sigma_f[v] * sigma_b[v] / total
        insort(succ[s], t)
        insort(pred[t], s)
    top = max(raw.values(), default=0.0)
    if top > 0:
        raw = {u: x / top for u, x in raw.items()}
    return raw


def random_digraph(rng, max_nodes=8):
    """Random small digraph with integer weights, occasional self-loops."""
    n = int(rng.integers(2, max_nodes + 1))
    nodes = [f"j{i}" for i in range(n)]
    p = float(rng.uniform(0.15, 0.6))
    edges = {}
    for u in nodes:
        for v in nodes:
            if u == v:
                if rng.random() < 0.1:
                    edges[(u, v)] = int(rng.integers(1, 4))
            elif rng.random() < p:
                edges[(u, v)] = int(rng.integers(1, 6))
    return nodes, edges


# -- journal networks --------------------------------------------------------


def journal_network_oracle(corpus, year, window_years, link_type):
    """(nodes, edges) of the year's journal network, one pass per edge.

    The per-edge dict loop that ``build_journal_network`` replaced.
    """
    nodes = tuple(sorted({p.journal_id for p in corpus.papers.values()
                          if p.year == year} & set(corpus.journals)))
    node_set = set(nodes)
    edges = {}
    for citing, cited in citation_edges(corpus):
        cy = corpus.papers[citing].year
        ty = corpus.papers[cited].year
        if link_type == "citation":
            ok = ty == year and year + 1 <= cy <= year + window_years
        else:
            ok = cy == year and year - window_years <= ty <= year - 1
        if not ok:
            continue
        src = journal_of(corpus, citing)
        dst = journal_of(corpus, cited)
        if src in node_set and dst in node_set:
            edges[(src, dst)] = edges.get((src, dst), 0) + 1
    return nodes, edges


# -- journal impact metrics --------------------------------------------------


def _papers_of_journal(corpus, journal_id, years):
    """The journal's papers of each of ``years`` in turn, in id order."""
    return [pid for year in years for pid in sorted(corpus.papers)
            if corpus.papers[pid].journal_id == journal_id
            and corpus.papers[pid].year == year]


def _citations_in_year_to(corpus, paper_ids, year):
    citers = string_indices(corpus)[1]
    return sum(1 for pid in paper_ids for _c, cy in citers[pid] if cy == year)


def journal_impact_reference(corpus, journal_id, year):
    window_papers = _papers_of_journal(corpus, journal_id,
                                       (year - 2, year - 1))
    if not window_papers:
        return None
    cites = _citations_in_year_to(corpus, window_papers, year)
    return Fraction(cites, len(window_papers))


def immediacy_reference(corpus, journal_id, year):
    papers = _papers_of_journal(corpus, journal_id, (year,))
    if not papers:
        return None
    return _citations_in_year_to(corpus, papers, year) / len(papers)


def cited_half_life_reference(corpus, journal_id, year):
    """statistics.median of the ages, over the journal's paper years."""
    ages = []
    for jy in sorted({p.year for p in corpus.papers.values()
                      if p.journal_id == journal_id}):
        for pid in _papers_of_journal(corpus, journal_id, (jy,)):
            for _citer, citer_year in string_indices(corpus)[1][pid]:
                if citer_year == year:
                    ages.append(year - jy)
    return float(median(ages)) if ages else None


def citing_half_life_reference(corpus, journal_id, year):
    ages = []
    for pid in _papers_of_journal(corpus, journal_id, (year,)):
        for ref in string_indices(corpus)[0][pid]:
            ages.append(year - corpus.papers[ref].year)
    return float(median(ages)) if ages else None


def normalized_impact_reference(raw, year, table):
    if raw is None or table is None or year not in table.n_top:
        return None
    return float(raw) * table.n_top[table.reference_year] / table.n_top[year]


def impact_table_reference(corpus, years, table=None):
    """Every ImpactRecord field, as a tuple per (journal, year) row."""
    rows = []
    for jid in sorted(corpus.journals):
        for y in years:
            raw = journal_impact_reference(corpus, jid, y)
            rows.append((jid, y, raw,
                         normalized_impact_reference(raw, y, table),
                         len(_papers_of_journal(corpus, jid, (y - 2, y - 1))),
                         immediacy_reference(corpus, jid, y),
                         cited_half_life_reference(corpus, jid, y),
                         citing_half_life_reference(corpus, jid, y)))
    return rows


def normalization_reference(corpus, reference_year, top_field=None):
    """(top_field, n_top) by a scan of every paper and its citers."""
    citers = string_indices(corpus)[1]
    if top_field is None:
        received = {}
        for pid in corpus.papers:
            jid = journal_of(corpus, pid)
            if jid is None:
                continue
            cites = sum(1 for _c, cy in citers[pid] if cy == reference_year)
            if cites == 0:
                continue
            for cat in corpus.journals[jid].categories:
                received[cat] = received.get(cat, 0) + cites
        if not received:
            raise ValueError(f"no citations received in {reference_year}")
        top_field = max(sorted(received), key=lambda c: received[c])
    n_top = {}
    for pid, paper in corpus.papers.items():
        jid = journal_of(corpus, pid)
        if jid is not None and top_field in corpus.journals[jid].categories:
            n_top[paper.year] = n_top.get(paper.year, 0) + 1
    return top_field, dict(sorted(n_top.items()))


# -- publisher market share -------------------------------------------------


def market_share_oracle(corpus, publisher_id, year):
    """One full scan of the papers per (publisher, year) pair."""
    own = 0
    total = 0
    for paper in corpus.papers.values():
        if paper.year != year:
            continue
        journal = corpus.journals.get(paper.journal_id)
        if journal is None or journal.publisher_id not in corpus.publishers:
            continue
        total += 1
        if journal.publisher_id == publisher_id:
            own += 1
    if total == 0:
        return None
    return own / total


# -- solidarity index -------------------------------------------------------
#
# The former library formula, kept as the reference for the one psi
# kernel: each sum written out per journal over the count table's dicts.


def psi_reference(table, journal_id, members, paper_total, include_self=True):
    """SolidarityScore of one journal against the publisher ``members``:
    Q_r and Q_c from the publisher's internal, made and received totals,
    then the journal's reference and citation sums over ``members``."""
    from citnet.selfcite import SolidarityScore

    members = set(members)
    internal = sum(table.counts.get((k, j), 0)
                   for k in members for j in members)
    made = sum(table.out_total.get(k, 0) for k in members)
    received = sum(table.in_total.get(k, 0) for k in members)
    q_r = internal / made if made > 0 else None
    q_c = internal / received if received > 0 else None

    summed = [j for j in members if include_self or j != journal_id]
    made = table.out_total.get(journal_id, 0)
    received = table.in_total.get(journal_id, 0)
    ref_sum = (sum(table.counts.get((journal_id, j), 0) for j in summed) / made
               if made > 0 else None)
    cite_sum = (sum(table.counts.get((j, journal_id), 0) for j in summed)
                / received if received > 0 else None)
    if (q_r is None or q_c is None or ref_sum is None or cite_sum is None
            or q_r == 0 or q_c == 0 or cite_sum == 0 or paper_total == 0):
        return SolidarityScore(journal_id, None, paper_total, ref_sum,
                               cite_sum, q_r, q_c, status="undefined")
    psi = (1.0 / paper_total) * (ref_sum / q_r) / (cite_sum / q_c)
    return SolidarityScore(journal_id, psi, paper_total, ref_sum, cite_sum,
                           q_r, q_c, status="ok")


def solidarity_reference(corpus, table, include_self=True):
    """psi_reference of every journal in id order, its publisher's
    journals and papers (in the table's window) found by scanning the
    records; a journal whose publisher is unregistered or has one journal
    gets the excluded row."""
    from citnet.selfcite import SolidarityScore

    years = table.window
    scores = []
    for jid in sorted(corpus.journals):
        publisher = corpus.journals[jid].publisher_id
        members = [j for j, rec in corpus.journals.items()
                   if publisher in corpus.publishers
                   and rec.publisher_id == publisher]
        if len(members) < 2:
            scores.append(SolidarityScore(jid, None, 0, None, None,
                                          status="excluded"))
            continue
        paper_total = sum(
            1 for p in corpus.papers.values() if p.journal_id in members
            and (years is None or years[0] <= p.year <= years[1]))
        scores.append(psi_reference(table, jid, members, paper_total,
                                    include_self))
    return scores


# -- disruptiveness ---------------------------------------------------------


def disruption_oracle(corpus, paper_id):
    """Recount citer categories by scanning every paper's raw references."""
    refs = {r for r in corpus.papers[paper_id].references
            if r in corpus.papers and r != paper_id}
    n_i = n_j = n_k = 0
    for pid, paper in corpus.papers.items():
        if pid == paper_id:
            continue
        cited = set(paper.references)
        cites_x = paper_id in cited
        cites_ref = bool(refs & cited)
        if cites_x and cites_ref:
            n_j += 1
        elif cites_x:
            n_i += 1
        elif cites_ref:
            n_k += 1
    total = n_i + n_j + n_k
    return None if total == 0 else (n_i - n_j) / total


def _citers(corpus, paper_id, window):
    out = set()
    for citer, year in string_indices(corpus)[1][paper_id]:
        if window is not None and not (window[0] <= year <= window[1]):
            continue
        out.add(citer)
    return out


def disruption_counts_reference(corpus, paper_id, window=None):
    """(n_i, n_j, n_k) of one focal paper from sets of citers on the
    string indices; ``window`` restricts citers by publication year."""
    citers_x = _citers(corpus, paper_id, window)
    citers_refs = set()
    for ref in string_indices(corpus)[0][paper_id]:
        citers_refs.update(_citers(corpus, ref, window))
    citers_refs.discard(paper_id)

    n_j = len(citers_x & citers_refs)
    return len(citers_x) - n_j, n_j, len(citers_refs - citers_x)


# -- interpolated percentiles -----------------------------------------------


def percentile_oracle(values, q):
    """Linear-interpolation percentile, written out longhand."""
    data = sorted(values)
    if len(data) == 1:
        return float(data[0])
    rank = (len(data) - 1) * (q / 100.0)
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    frac = rank - lo
    return data[lo] * (1 - frac) + data[hi] * frac


# -- novelty null model: string and dict references --------------------------
#
# The former library path, kept as the reference for the integer kernels
# in citnet.novelty: edges as (citing id, cited id) tuples, pair counts
# as dicts keyed by (journal id, journal id). shuffle_citations is the
# one-swap-at-a-time chain the swap rounds replaced; the stability test
# compares the z-scores of the two chains.

PairStat = namedtuple("PairStat", "journal_pair o e sigma z")


def shuffle_citations(corpus, config, replicate_index):
    """Double-edge swaps within (citing year, cited year) strata, over
    string edges, drawing one rng.integers block per stratum and making
    one swap at a time."""
    rng = np.random.default_rng([config.seed, replicate_index])
    strata = {}
    for citing, cited in citation_edges(corpus):
        key = (corpus.papers[citing].year, corpus.papers[cited].year)
        strata.setdefault(key, []).append([citing, cited])

    shuffled = []
    for key in sorted(strata):
        edges = strata[key]
        m = len(edges)
        if m < 2:
            shuffled.extend((s, t) for s, t in edges)
            continue
        present = {(s, t) for s, t in edges}
        attempts = int(round(config.swaps_per_edge * m))
        picks = rng.integers(0, m, size=(attempts, 2))
        for a, b in picks:
            if a == b:
                continue
            s1, t1 = edges[a]
            s2, t2 = edges[b]
            if t1 == t2:
                continue
            if s1 == t2 or s2 == t1:
                continue
            if (s1, t2) in present or (s2, t1) in present:
                continue
            present.discard((s1, t1))
            present.discard((s2, t2))
            present.add((s1, t2))
            present.add((s2, t1))
            edges[a][1] = t2
            edges[b][1] = t1
        shuffled.extend((s, t) for s, t in edges)
    return shuffled


def shuffle_rounds_reference(corpus, config, replicate_index):
    """Swap rounds within (citing year, cited year) strata, over string
    edges, one proposal at a time.

    Each round draws one ``rng.random`` value per edge, orders the edges
    by (2 * stratum rank + value), stably, and pairs positions 2i and
    2i + 1 of every stratum until the stratum's
    ``round(swaps_per_edge * m)`` proposals are spent. A proposal stands
    when it keeps the edges simple against the edges present before the
    round and no other standing proposal of the round makes the same
    edge; the standing ones are then applied together.
    """
    rng = np.random.default_rng([config.seed, replicate_index])
    strata = {}
    for citing, cited in citation_edges(corpus):
        key = (corpus.papers[citing].year, corpus.papers[cited].year)
        strata.setdefault(key, []).append([citing, cited])
    keys = sorted(strata)
    edges = [edge for key in keys for edge in strata[key]]
    rank = [k for k, key in enumerate(keys) for _edge in strata[key]]
    budget = {key: int(round(config.swaps_per_edge * len(strata[key])))
              for key in keys}
    rounds = max((-(-budget[key] // (len(strata[key]) // 2))
                  for key in keys if len(strata[key]) >= 2), default=0)
    for r in range(rounds):
        u = rng.random(len(edges)).tolist()
        perm = sorted(range(len(edges)), key=lambda p: 2.0 * rank[p] + u[p])
        present = {tuple(edge) for edge in edges}
        standing = []
        lo = 0
        for key in keys:
            half = len(strata[key]) // 2
            for i in range(max(0, min(half, budget[key] - r * half))):
                a, b = perm[lo + 2 * i], perm[lo + 2 * i + 1]
                (s1, t1), (s2, t2) = edges[a], edges[b]
                if t1 == t2 or s1 == t2 or s2 == t1:
                    continue
                if (s1, t2) in present or (s2, t1) in present:
                    continue
                standing.append((a, b, (s1, t2), (s2, t1)))
            lo += len(strata[key])
        made = Counter(new for proposal in standing for new in proposal[2:])
        for a, b, new_a, new_b in standing:
            if made[new_a] == 1 and made[new_b] == 1:
                edges[a][1], edges[b][1] = new_a[1], new_b[1]
    return [tuple(edge) for edge in edges]


def paper_pairs(journals, collapse=False):
    """Unordered journal pairs of one reference list with multiplicity:
    C(m, 2) for a journal cited m times, m*k across two; 1 each with
    ``collapse``."""
    tally = {}
    for j in journals:
        tally[j] = tally.get(j, 0) + 1
    names = sorted(tally)
    out = []
    for i, a in enumerate(names):
        m = tally[a]
        if m >= 2:
            out.append(((a, a), 1 if collapse else m * (m - 1) // 2))
        for b in names[i + 1:]:
            out.append(((a, b), 1 if collapse else m * tally[b]))
    return out


def pair_frequencies(corpus, edges, collapse=False):
    """Journal-pair co-reference counts over an explicit edge list."""
    by_paper = {}
    for citing, cited in edges:
        jid = journal_of(corpus, cited)
        if jid is None:
            continue
        by_paper.setdefault(citing, []).append(jid)
    counts = {}
    for pid in by_paper:
        for pair, mult in paper_pairs(by_paper[pid], collapse):
            counts[pair] = counts.get(pair, 0) + mult
    return counts


def pair_zscores(corpus, config, ensembles=None):
    """PairStat per observed pair, from 1-D per-pair mean and std."""
    observed = pair_frequencies(corpus, citation_edges(corpus),
                                config.collapse_multiplicity)
    if ensembles is None:
        ensembles = [pair_frequencies(corpus,
                                      shuffle_rounds_reference(corpus, config,
                                                               idx),
                                      config.collapse_multiplicity)
                     for idx in range(config.ensemble_count)]
    stats = {}
    for pair in sorted(observed):
        o = observed[pair]
        samples = np.array([ens.get(pair, 0) for ens in ensembles],
                           dtype=float)
        e = float(samples.mean())
        sigma = float(samples.std())
        z = (o - e) / sigma if sigma > 0 else None
        stats[pair] = PairStat(pair, o, e, sigma, z)
    return stats


def paper_novelty(corpus, paper_id, zmap, collapse=False):
    """(median z, p10 z, defined count, undefined count) of one paper,
    with np.percentile over its list of defined z values."""
    journals = []
    for ref in string_indices(corpus)[0][paper_id]:
        jid = journal_of(corpus, ref)
        if jid is not None:
            journals.append(jid)
    zs = []
    undefined = 0
    for pair, mult in paper_pairs(journals, collapse):
        stat = zmap.get(pair)
        if stat is None or stat.z is None:
            undefined += int(mult)
            continue
        zs.extend([stat.z] * int(mult))
    if not zs:
        return None, None, 0, undefined
    arr = np.array(zs, dtype=float)
    return (float(np.percentile(arr, 50)), float(np.percentile(arr, 10)),
            len(zs), undefined)


# -- one-pair author similarity ----------------------------------------------


def paper_similarity(corpus, p1, p2, weights, exclude_author=None):
    """Weighted feature sum for two distinct papers of one name block,
    from the string reference lists of the two papers and their citers.

    The features are whether either cites the other, shared co-authors,
    shared citing papers and shared references, each paper counted once.
    ``exclude_author`` removes the blocked name itself from the shared
    co-author count (it is shared by construction); the comparison is by
    normalized form, so raw name variants of the block are all excluded.
    """
    # the name normalization is the library's own, tested on its own
    from citnet.authors import normalize_name

    if p1 == p2:
        raise ValueError("similarity is defined for distinct papers")
    forward, citers = string_indices(corpus)
    refs1, refs2 = set(forward[p1]), set(forward[p2])
    self_cite = 1.0 if (p2 in refs1 or p1 in refs2) else 0.0
    names = [{normalize_name(k) for k in corpus.papers[p].author_keys}
             for p in (p1, p2)]
    if exclude_author is not None:
        for block in names:
            block.discard(normalize_name(exclude_author))
    shared_authors = len(names[0] & names[1])
    shared_citations = len({c for c, _y in citers[p1]}
                           & {c for c, _y in citers[p2]})
    shared_references = len(refs1 & refs2)
    return (weights.w_self_citation * self_cite
            + weights.w_shared_author * shared_authors
            + weights.w_shared_citation * shared_citations
            + weights.w_shared_reference * shared_references)


# -- agglomerative identity resolution ---------------------------------------


def agglomerate_oracle(papers, similarity, pair_threshold, group_threshold):
    """Exhaustive two-step clustering over an explicit similarity function.

    Recomputes every group-pair average from scratch each round and
    merges the maximum (ties by group contents) while it exceeds the
    threshold.
    """
    papers = sorted(papers)
    groups = []
    for p in papers:
        placed = False
        for g in groups:
            if any(similarity(p, q) > pair_threshold for q in g):
                g.append(p)
                placed = True
                break
        if not placed:
            groups.append([p])
    # transitive closure of step 1
    changed = True
    while changed:
        changed = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                if any(similarity(a, b) > pair_threshold
                       for a in groups[i] for b in groups[j]):
                    groups[i] = sorted(groups[i] + groups[j])
                    del groups[j]
                    changed = True
                    break
            if changed:
                break
    groups = sorted(sorted(g) for g in groups)

    while len(groups) > 1:
        best = None
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                sims = [similarity(a, b)
                        for a in groups[i] for b in groups[j]]
                avg = sum(sims) / len(sims)
                if best is None or avg > best[0] + 1e-15:
                    best = (avg, i, j)
        if best is None or best[0] <= group_threshold:
            break
        _, i, j = best
        groups[i] = sorted(groups[i] + groups[j])
        del groups[j]
        groups = sorted(groups)
    return groups


def resolve_block_reference(papers, similarity, pair_threshold,
                            group_threshold):
    """Two-step resolution of one name block over a float similarity.

    Step 1 unions every pair above ``pair_threshold``; step 2 recomputes
    every group-pair average as a float sum over its paper pairs and
    merges the first maximum of the scan, a later pair winning only by
    more than 1e-15, while it exceeds ``group_threshold``.
    """
    papers = sorted(papers)
    if len(papers) == 1:
        return [papers]
    sim = {}
    for i, pa in enumerate(papers):
        for pb in papers[i + 1:]:
            sim[(pa, pb)] = similarity(pa, pb)

    parent = {p: p for p in papers}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for (pa, pb), s in sorted(sim.items()):
        if s > pair_threshold:
            ra, rb = find(pa), find(pb)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

    groups = {}
    for p in papers:
        groups.setdefault(find(p), []).append(p)
    merged = sorted(sorted(g) for g in groups.values())

    def average(group_a, group_b):
        total = 0.0
        for pa in group_a:
            for pb in group_b:
                total += sim[(pa, pb)] if (pa, pb) in sim else sim[(pb, pa)]
        return total / (len(group_a) * len(group_b))

    while len(merged) > 1:
        best = None
        for i in range(len(merged)):
            for j in range(i + 1, len(merged)):
                avg = average(merged[i], merged[j])
                if best is None or avg > best[0] + 1e-15:
                    best = (avg, i, j)
        if best[0] <= group_threshold:
            break
        _, i, j = best
        merged[i] = sorted(merged[i] + merged[j])
        del merged[j]
        merged.sort()
    return merged


AuthorStatsRow = namedtuple(
    "AuthorStatsRow",
    "cluster_id academic_age paper_count group_paper_count "
    "self_cited_fraction self_citing_fraction group_self_citing_any "
    "group_self_cited_any group_self_citing_own group_self_cited_own")


def author_demographics_reference(corpus, clusters, group_journals):
    """Per-cluster career statistics from Python sets of every paper's
    references and citers."""
    group = set(group_journals)
    forward, citers_of = string_indices(corpus)
    rows = []
    for cluster_id in sorted(clusters.clusters):
        papers = sorted({pid for _key, pid in clusters.clusters[cluster_id]})
        paper_set = set(papers)
        group_papers = [p for p in papers
                        if corpus.papers[p].journal_id in group]
        if not group_papers:
            continue
        years = [corpus.papers[p].year for p in papers]
        own_group = set(group_papers)
        counts = [0] * 6
        for pid in papers:
            refs = set(forward[pid])
            citers = {c for c, _y in citers_of[pid]}
            flags = (refs & (paper_set - {pid}),
                     citers & (paper_set - {pid}),
                     any(corpus.papers[r].journal_id in group for r in refs),
                     any(corpus.papers[c].journal_id in group for c in citers),
                     refs & (own_group - {pid}),
                     citers & (own_group - {pid}))
            for k, flag in enumerate(flags):
                counts[k] += bool(flag)
        (self_citing, self_cited, citing_any, cited_any, citing_own,
         cited_own) = counts
        rows.append(AuthorStatsRow(
            cluster_id, max(years) - min(years), len(papers),
            len(group_papers), self_cited / len(papers),
            self_citing / len(papers), citing_any, cited_any, citing_own,
            cited_own))
    return rows


# -- synthetic rewiring -----------------------------------------------------


class _OccurrenceSampler:
    """Uniform sampling over a multiset with O(1) add/remove.

    Holding each item once per unit of weight makes a uniform draw from
    the array a draw proportional to the item's multiplicity.
    """

    __slots__ = ("arr", "slot", "pos")

    def __init__(self):
        self.arr = []
        self.slot = []
        self.pos = {}

    def __len__(self):
        return len(self.arr)

    def add(self, item):
        positions = self.pos.setdefault(item, [])
        self.slot.append(len(positions))
        positions.append(len(self.arr))
        self.arr.append(item)

    def remove_one(self, item):
        positions = self.pos[item]
        i = positions.pop()
        j = len(self.arr) - 1
        if i != j:
            moved = self.arr[j]
            sj = self.slot[j]
            self.arr[i] = moved
            self.slot[i] = sj
            self.pos[moved][sj] = i
        self.arr.pop()
        self.slot.pop()
        if not positions:
            del self.pos[item]

    def sample(self, rng):
        return self.arr[int(rng.integers(len(self.arr)))]


class _ScalarRewirer:
    """Retargets links in seeded sweeps, one scalar draw per decision,
    over one multiset of (node + one entry per citation) per publisher."""

    def __init__(self, net, rates, baseline, rng):
        self.net = net
        self.rng = rng
        self.rate_of = np.array([rates.get(j, baseline)
                                 for j in net.journal_ids],
                                dtype=float)[net.journal_of]
        p_count = len(net.publishers)
        self.pools = [_OccurrenceSampler() for _ in range(p_count)]
        for v in range(net.n_nodes):
            self.pools[net.publisher_of[v]].add(v)
        for t in net.dst:
            self.pools[net.publisher_of[t]].add(t)
        self.edge_set = set(zip(net.src, net.dst))
        self._order = np.empty(0, dtype=np.int64)
        self._cursor = 0
        self.steps_done = 0

    def _pick_pool(self, own):
        others = [p for p in range(len(self.pools)) if p != own]
        weights = [len(self.pools[p]) for p in others]
        total = sum(weights)
        r = int(self.rng.integers(total))
        for p, w in zip(others, weights):
            if r < w:
                return self.pools[p]
            r -= w
        return self.pools[others[-1]]

    def _rewire_edge(self, e):
        net = self.net
        s = net.src[e]
        t_old = net.dst[e]
        own = int(net.publisher_of[s])
        stay = float(self.rng.random()) < self.rate_of[s]
        pool = self.pools[own] if stay else self._pick_pool(own)
        for _ in range(100):
            t_new = pool.sample(self.rng)
            if t_new == t_old:
                return                  # redrew the same target: no-op
            if t_new == s or (s, t_new) in self.edge_set:
                continue
            self.edge_set.discard((s, t_old))
            self.edge_set.add((s, t_new))
            net.dst[e] = t_new
            self.pools[net.publisher_of[t_old]].remove_one(t_old)
            self.pools[net.publisher_of[t_new]].add(t_new)
            return

    def advance(self, steps):
        m = len(self.net.src)
        for _ in range(steps):
            if self._cursor >= len(self._order):
                self._order = self.rng.permutation(m)
                self._cursor = 0
            self._rewire_edge(self._order[self._cursor])
            self._cursor += 1
            self.steps_done += 1


def rewire_reference(net, rates, baseline, rng):
    """The rewiring process of ``synth`` with one ``rng.random`` or
    ``rng.integers`` call per decision: a stay draw per step, a pool draw
    per cross-publisher step and a target draw per attempt. ``net.src``
    and ``net.dst`` are lists; ``advance(steps)`` retargets ``net.dst``
    in place."""
    return _ScalarRewirer(net, rates, baseline, rng)


# the uniforms per ``rng.random`` call behind synth's pool and target draws
_UNIFORM_BLOCK = 4096


class _EdgePoolRewirer:
    """The rewiring loop of ``synth`` on pools that hold edge ids: publisher
    p's pool is its node list followed by the edges whose current target
    lies in p, and an index at or above the node count picks
    ``dst[edge]``. Draws the same uniforms in the same order as
    ``synth``: a permutation and a stay block per sweep, pool and target
    draws as ``int(u * size)`` from blocks of ``_UNIFORM_BLOCK``."""

    def __init__(self, net, rates, baseline, rng):
        self.net = net
        self.rng = rng
        self.edge_rate = np.array([rates.get(j, baseline)
                                   for j in net.journal_ids],
                                  dtype=float)[net.journal_of[net.src]]
        self.pub = net.publisher_of.tolist()
        p_count = len(net.publishers)
        self.nodes = [[] for _ in range(p_count)]
        for v, p in enumerate(self.pub):
            self.nodes[p].append(v)
        self.edges = [[] for _ in range(p_count)]
        self.slot = [0] * len(net.dst)
        for e, t in enumerate(net.dst):
            pool = self.edges[self.pub[t]]
            self.slot[e] = len(pool)
            pool.append(e)
        self.size = [len(a) + len(b) for a, b in zip(self.nodes, self.edges)]
        n = net.n_nodes
        self.edge_set = {s * n + t for s, t in zip(net.src, net.dst)}
        self._uniforms = []
        self._order = []
        self._stay = []
        self._cursor = 0
        self.steps_done = 0

    def _uniform(self):
        if not self._uniforms:
            self._uniforms = self.rng.random(_UNIFORM_BLOCK).tolist()[::-1]
        return self._uniforms.pop()

    def advance(self, steps):
        for _ in range(steps):
            if self._cursor == len(self._order):
                order = self.rng.permutation(len(self.net.src))
                self._stay = (self.rng.random(len(order))
                              < self.edge_rate[order]).tolist()
                self._order = order.tolist()
                self._cursor = 0
            self._step(self._order[self._cursor], self._stay[self._cursor])
            self._cursor += 1
            self.steps_done += 1

    def _step(self, e, stays):
        src, dst, pub = self.net.src, self.net.dst, self.pub
        nodes, edges, slot, size = self.nodes, self.edges, self.slot, self.size
        n = self.net.n_nodes
        s, t_old = src[e], dst[e]
        p = own = pub[s]
        if not stays:
            others = n + len(dst) - size[own]
            if not others:
                return
            r = int(self._uniform() * others)
            for p in range(len(size)):
                if p != own:
                    if r < size[p]:
                        break
                    r -= size[p]
        pool_nodes, pool_edges = nodes[p], edges[p]
        n_p, bound = len(pool_nodes), size[p]
        for _ in range(100):
            i = int(self._uniform() * bound)
            t = pool_nodes[i] if i < n_p else dst[pool_edges[i - n_p]]
            if t == t_old:
                return
            if t == s or s * n + t in self.edge_set:
                continue
            self.edge_set.discard(s * n + t_old)
            self.edge_set.add(s * n + t)
            dst[e] = t
            q = pub[t_old]
            if q != p:
                old = edges[q]
                last = old.pop()
                if last != e:
                    old[slot[e]] = last
                    slot[last] = slot[e]
                slot[e] = len(pool_edges)
                pool_edges.append(e)
                size[q] -= 1
                size[p] += 1
            return


def pool_rewirer_reference(net, rates, baseline, rng):
    """The rewiring process of ``synth`` on the same random stream, with
    pools of edge ids and one step at a time. ``net.src`` and ``net.dst``
    are lists; ``advance(steps)`` retargets ``net.dst`` in place."""
    return _EdgePoolRewirer(net, rates, baseline, rng)


# -- synthetic generator ----------------------------------------------------

GeneratedNet = namedtuple("GeneratedNet",
                          "publisher_of journal_of year_of src dst capped")


def generate_network_reference(config, rng):
    """The preferential-attachment generator of ``synth`` with one scalar
    ``rng.integers`` call per attempted citation, at most 20 attempts per
    wanted reference. Returns the node arrays, the edge lists and the
    number of papers that the attempt cap left short of their wanted
    reference count."""
    p_count = config.publisher_count
    jpp = config.journals_per_publisher
    sizes = rng.integers(config.component_size_range[0],
                         config.component_size_range[1] + 1, size=p_count)
    n = int(sizes.sum())
    publisher_of = np.repeat(np.arange(p_count), sizes)
    journal_of = publisher_of * jpp + rng.integers(0, jpp, size=n)

    order = rng.permutation(n)
    y0, y1 = config.year_range
    span = y1 - y0 + 1
    cohort = -(-n // span)
    year_of = np.empty(n, dtype=np.int64)
    year_of[order] = y0 + np.minimum(np.arange(n) // cohort, span - 1)

    base_weight = max(1, round((config.in_degree_exponent - 2.0)
                               * config.out_degree_mean))
    pool, src, dst = [], [], []
    degrees = rng.normal(config.out_degree_mean, config.out_degree_std,
                         size=n)
    capped = 0
    for k, v in enumerate(order.tolist()):
        want = min(max(0, int(round(float(degrees[k])))), k)
        chosen = set()
        attempts = 0
        while len(chosen) < want and attempts < 20 * want:
            attempts += 1
            t = pool[int(rng.integers(len(pool)))]
            if t == v or t in chosen:
                continue
            chosen.add(t)
        capped += len(chosen) < want
        cited = sorted(chosen)
        src.extend([v] * len(cited))
        dst.extend(cited)
        pool.extend(cited)
        pool.extend([v] * base_weight)
    return GeneratedNet(publisher_of, journal_of, year_of, src, dst, capped)


# -- heavy-tail exponent ----------------------------------------------------


def hill_mle(values, xmin):
    """Continuous-approximation maximum-likelihood tail exponent."""
    tail = np.asarray([v for v in values if v >= xmin], dtype=float)
    if len(tail) == 0:
        raise ValueError("empty tail")
    return 1.0 + len(tail) / np.sum(np.log(tail / (xmin - 0.5)))
