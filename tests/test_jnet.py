import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import citnet
from citnet.jnet import (JournalCitationNetwork, PageRankConvergenceError,
                         betweenness, build_journal_network,
                         centrality_comparison, centrality_variants,
                         closeness, pagerank, pathcore)
from citnet.matching import MatchRecord

from conftest import make_corpus, messy_corpus
from citnet import jnet
from oracles import (betweenness_oracle, betweenness_reference,
                     closeness_reference, harmonic_closeness_oracle,
                     journal_network_oracle, journal_of, pagerank_oracle,
                     pagerank_reference, pathcore_oracle, pathcore_reference,
                     random_digraph)


def net(nodes, edges, year=2005, window=2, link_type="citation"):
    return JournalCitationNetwork(year=year, window_years=window,
                                  link_type=link_type,
                                  nodes=tuple(sorted(nodes)),
                                  edges=dict(edges))


def network_fixture_corpus():
    papers = [
        ("a1", "A", 2005, []), ("b1", "B", 2005, []),
        # three citations A -> B within the window, one outside
        ("a2", "A", 2006, ["b1"]), ("a3", "A", 2006, ["b1"]),
        ("a4", "A", 2007, ["b1"]),
        ("a5", "A", 2008, ["b1"]),
    ]
    return make_corpus(papers, {"A": {}, "B": {}}, year_range=(2000, 2010))


def test_build_aggregates_weights():
    corpus = network_fixture_corpus()
    network = build_journal_network(corpus, 2005, 2, "citation")
    assert set(network.nodes) == {"A", "B"}
    assert network.edges == {("A", "B"): 3}


def test_window_rule_excludes_out_of_range():
    corpus = network_fixture_corpus()
    network = build_journal_network(corpus, 2005, 1, "citation")
    assert network.edges == {("A", "B"): 2}


def test_reference_type_mirrors_shifted_citation_window():
    papers = [("p1", "A", 2001, ["p4"]), ("p2", "B", 2001, ["p3"]),
              ("p3", "A", 2000, []), ("p4", "B", 2000, [])]
    corpus = make_corpus(papers, {"A": {}, "B": {}}, year_range=(1996, 2005))
    cited_net = build_journal_network(corpus, 2000, 1, "citation")
    ref_net = build_journal_network(corpus, 2001, 1, "reference")
    assert cited_net.edges == ref_net.edges == {("A", "B"): 1, ("B", "A"): 1}


@pytest.mark.parametrize("window", [1, 3])
@pytest.mark.parametrize("link_type", ["citation", "reference"])
def test_build_equals_edge_loop_reference(window, link_type):
    corpus = messy_corpus(seed=3)
    network = build_journal_network(corpus, 2005, window, link_type)
    nodes, edges = journal_network_oracle(corpus, 2005, window, link_type)
    assert network.nodes == nodes
    assert network.edges == edges
    assert all(type(w) is int for w in network.edges.values())
    # the fixture reaches the journal without publisher and has paper
    # edges of unregistered journals for the tally to leave out
    assert "J4" in {j for pair in edges for j in pair}
    assert any(journal_of(corpus, p) is None for e in corpus.citation_edges()
               for p in e)


def test_build_window_bounds_checked():
    corpus = network_fixture_corpus()
    with pytest.raises(ValueError):
        build_journal_network(corpus, 2010, 2, "citation")
    with pytest.raises(ValueError):
        build_journal_network(corpus, 2001, 2, "reference")


def test_empty_year_gives_empty_network():
    corpus = network_fixture_corpus()
    network = build_journal_network(corpus, 2003, 2, "citation")
    assert network.empty


def test_betweenness_path():
    network = net("ABC", {("A", "B"): 1, ("B", "C"): 1})
    scores = betweenness(network).scores
    assert scores == {"A": 0.0, "B": 1.0, "C": 0.0}


def test_betweenness_complete_digraph():
    nodes = "ABC"
    edges = {(u, v): 1 for u in nodes for v in nodes if u != v}
    assert all(v == 0.0 for v in betweenness(net(nodes, edges)).scores.values())


def test_closeness_star_and_isolated():
    edges = {("A", "H"): 1, ("B", "H"): 1, ("C", "H"): 1}
    scores = closeness(net("ABCHX", edges)).scores
    assert scores["H"] == max(scores.values())
    assert scores["X"] == 0.0


def test_pagerank_symmetric_cycle():
    edges = {("A", "B"): 1, ("B", "C"): 1, ("C", "A"): 1}
    scores = pagerank(net("ABC", edges)).scores
    for v in scores.values():
        assert v == pytest.approx(1 / 3, abs=1e-9)


def test_pagerank_self_loop_raises_score():
    edges = {("A", "B"): 1, ("B", "C"): 1, ("C", "A"): 1}
    before = pagerank(net("ABC", edges)).scores["A"]
    edges[("A", "A")] = 1
    after = pagerank(net("ABC", edges)).scores["A"]
    assert after > before
    oracle = pagerank_oracle(["A", "B", "C"], edges)
    assert after == pytest.approx(oracle["A"], abs=1e-9)


def test_pagerank_sums_to_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        nodes, edges = random_digraph(rng)
        total = sum(pagerank(net(nodes, edges)).scores.values())
        assert total == pytest.approx(1.0, abs=1e-9)


def test_pagerank_nonconvergence_reports_residual():
    edges = {("A", "B"): 1, ("B", "A"): 1}
    with pytest.raises(PageRankConvergenceError) as err:
        pagerank(net("AB", edges), tol=0.0, max_iter=5)
    assert err.value.residual >= 0.0


def test_pagerank_equals_dict_reference():
    # node positions and edge insertion order shuffled against name order;
    # up to a dozen sinks are dangling (numpy's pairwise sums would add
    # eight or more of them in another order), random_digraph adds some
    # self-loops, and weights in sevenths make each out-weight depend on
    # the order of its adds
    rng = np.random.default_rng(3)
    loops = 0
    for _ in range(60):
        names, edges = random_digraph(rng, max_nodes=12)
        sinks = [f"sink{i}" for i in range(int(rng.integers(1, 13)))]
        names += sinks
        nodes = [names[i] for i in rng.permutation(len(names))]
        for sink in sinks:
            edges[(names[0], sink)] = 2
        items = [(edge, w / 7) for edge, w in edges.items()]
        edges = dict(items[i] for i in rng.permutation(len(items)))
        loops += any(u == v for u, v in edges)
        network = JournalCitationNetwork(year=2000, window_years=2,
                                         link_type="citation",
                                         nodes=tuple(nodes), edges=edges)
        scores, _iterations, _residual = pagerank_reference(nodes, edges)
        assert repr(pagerank(network).scores) == repr(scores)
        for max_iter in range(1, 6):
            with pytest.raises(PageRankConvergenceError) as err:
                pagerank(network, tol=0.0, max_iter=max_iter)
            _none, iterations, residual = pagerank_reference(
                nodes, edges, tol=0.0, max_iter=max_iter)
            assert (err.value.iterations, repr(err.value.residual)) == (
                iterations, repr(residual))
    assert loops


def test_pathcore_clique_with_pendants():
    nodes = ["A", "B", "C", "PA", "PB", "PC"]
    edges = {}
    for u in "ABC":
        for v in "ABC":
            if u != v:
                edges[(u, v)] = 1
    for x, p in (("A", "PA"), ("B", "PB"), ("C", "PC")):
        edges[(x, p)] = 1
        edges[(p, x)] = 1
    scores = pathcore(net(nodes, edges)).scores
    for core in "ABC":
        for pendant in ("PA", "PB", "PC"):
            assert scores[core] > scores[pendant]
    assert max(scores.values()) == 1.0


def test_pathcore_isolated_zero():
    network = net("ABC", {})
    assert pathcore(network).scores == {"A": 0.0, "B": 0.0, "C": 0.0}


def test_pathcore_range():
    rng = np.random.default_rng(1)
    for _ in range(30):
        nodes, edges = random_digraph(rng)
        for v in pathcore(net(nodes, edges)).scores.values():
            assert 0.0 <= v <= 1.0


def test_centralities_match_oracles_on_random_digraphs():
    rng = np.random.default_rng(42)
    for _ in range(40):
        nodes, edges = random_digraph(rng)
        network = net(nodes, edges)
        simple = [e for e in edges if e[0] != e[1]]
        bc = betweenness(network).scores
        for node, expected in betweenness_oracle(nodes, simple).items():
            assert bc[node] == pytest.approx(expected, abs=1e-9)
        cc = closeness(network).scores
        for node, expected in harmonic_closeness_oracle(nodes,
                                                        simple).items():
            assert cc[node] == pytest.approx(expected, abs=1e-9)
        pr = pagerank(network, tol=1e-13).scores
        for node, expected in pagerank_oracle(nodes, edges).items():
            assert pr[node] == pytest.approx(expected, abs=1e-9)
        pc = pathcore(network).scores
        for node, expected in pathcore_oracle(nodes, simple).items():
            assert pc[node] == pytest.approx(expected, abs=1e-9)


def layered_digraph(seed, n, m):
    """Seeded digraph with every shape the batched searches must handle.

    Node positions are shuffled against name order. Two nodes are
    isolated, three are sinks, one hangs off a single edge that has no
    bypass route, and the random part has repeated pairs and self-loops.
    """
    rng = np.random.default_rng(seed)
    nodes = [f"J{i:03d}" for i in rng.permutation(n)]
    isolated, sinks, pendant, linked = (nodes[:2], nodes[2:5], nodes[5],
                                        nodes[6:])
    edges = {}
    for u, v in rng.integers(0, len(linked), size=(m, 2)):
        key = (linked[u], linked[v])
        edges[key] = edges.get(key, 0) + 1
    for sink in sinks:
        for u in rng.choice(len(linked), size=3, replace=False):
            edges[(linked[u], sink)] = 1
    edges[(linked[0], pendant)] = 1
    edges[(linked[1], linked[1])] = 2
    touched = {x for edge in edges for x in edge}
    assert not touched & set(isolated)
    assert not {u for u, _v in edges} & set(sinks)
    return nodes, edges


def bypassed_digraph(seed, n):
    """Seeded digraph in which every edge has a two-step bypass.

    Random edges among all nodes but two relays, shuffled against name
    order; the relays link both ways to each other and to every node,
    so u -> relay -> v bypasses each random edge and the other relay
    bypasses each relay edge.
    """
    rng = np.random.default_rng(seed)
    nodes = [f"J{i:03d}" for i in rng.permutation(n)]
    *rest, r1, r2 = nodes
    edges = {(r1, r2): 1, (r2, r1): 2}
    for u, v in rng.integers(0, len(rest), size=(3 * n, 2)):
        edges[(rest[u], rest[v])] = int(rng.integers(1, 4))
    for u in rest:
        for relay in (r1, r2):
            edges[(u, relay)] = edges[(relay, u)] = 1
    return nodes, edges


def ring_digraph(n, steps):
    """Edges i -> i + step (mod n): with steps (1, 3) and n >= 8 no edge
    has a two-step bypass, but every edge has a longer one."""
    nodes = [f"J{i:03d}" for i in range(n)]
    return nodes, {(nodes[i], nodes[(i + k) % n]): 1
                   for i in range(n) for k in steps}


def two_step_bypasses(nodes, edges):
    """The number of skeleton edges with and without a two-step bypass."""
    simple = {(u, v) for u, v in edges if u != v}
    has = sum(1 for u, v in simple
              if any((u, w) in simple and (w, v) in simple for w in nodes))
    return has, len(simple) - has


@pytest.mark.parametrize("shape, n, m", [
    *[pytest.param("layered", n, m, id=f"{n}-{m}")
      for n, m in ((20, 45), (60, 150), (120, 400), (250, 1200))],
    *[pytest.param(shape, n, 0, id=f"{shape}-{n}")
      for shape, n in (("bypassed", 12), ("bypassed", 80), ("ring", 9),
                       ("ring", 40))]])
def test_path_metrics_equal_per_source_references(shape, n, m, monkeypatch):
    if shape == "layered":
        nodes, edges = layered_digraph(n, n, m)
    elif shape == "bypassed":
        nodes, edges = bypassed_digraph(n, n)
    else:
        nodes, edges = ring_digraph(n, (1, 3))
    # PathCore takes both kinds of edge on the layered shapes, only edges
    # with a two-step bypass on the bypassed ones, only others on rings
    has, lacks = two_step_bypasses(nodes, edges)
    assert {"layered": has and lacks, "bypassed": has and not lacks,
            "ring": lacks and not has}[shape]
    network = JournalCitationNetwork(year=2000, window_years=2,
                                     link_type="citation",
                                     nodes=tuple(nodes), edges=edges)
    # the public functions, and the one sweep of centrality_variants on
    # a corpus that gives the same network with its nodes in name order
    (built, vectors), = centrality_variants(corpus_of(nodes, edges), 2000,
                                            [2], ["citation"])[0]
    assert built.edges == edges
    bc_v, cc_v, _pr, core_v = (vector.scores for vector in vectors)
    for order, bc, cc, core in (
            (nodes, betweenness(network).scores, closeness(network).scores,
             pathcore(network).scores),
            (built.nodes, bc_v, cc_v, core_v)):
        assert repr(core) == repr(pathcore_reference(order, edges))
        assert repr(cc) == repr(closeness_reference(order, edges))
        for node, expected in betweenness_reference(order, edges).items():
            assert abs(bc[node] - expected) <= 1e-12 * abs(expected)
    if n == 250:
        # both the per-source and the per-edge searches span several batches
        simple = sum(1 for u, v in edges if u != v)
        assert jnet._BATCH_CELLS // max(n, simple) < min(n, simple)
        assert jnet._BATCH_CELLS // max(n, simple) < lacks
    # PathCore in runs of a few edges, each adding into the totals
    monkeypatch.setattr(jnet, "_BATCH_CELLS", 4 * n)
    assert repr(pathcore(network).scores) == repr(
        pathcore_reference(nodes, edges))


def corpus_of(nodes, edges, year=2000):
    """A corpus whose citation network of ``year`` is (nodes, edges):
    one paper per journal in ``year``, and per edge (u, v) of weight w,
    w papers of u in ``year + 1`` citing v's paper."""
    papers = [(f"{j}.0", j, year, []) for j in nodes]
    for k, ((u, v), w) in enumerate(edges.items()):
        papers += [(f"{u}.{k}.{i}", u, year + 1, [f"{v}.0"])
                   for i in range(w)]
    return make_corpus(papers, {j: {} for j in nodes},
                       year_range=(year - 2, year + 2))


def test_one_variant_sweeps_the_sources_once(monkeypatch):
    nodes, edges = layered_digraph(4, 40, 120)
    calls = []
    bfs = jnet._bfs

    def spy(csr, sources, targets=None):
        if targets is None:
            calls.append(sources.size)
        return bfs(csr, sources, targets)

    monkeypatch.setattr(jnet, "_bfs", spy)
    monkeypatch.setattr(jnet, "_BATCH_CELLS", 8 * len(edges))
    computed, _skipped = centrality_variants(corpus_of(nodes, edges), 2000,
                                             [2], ["citation"])
    assert len(computed) == 1
    n, simple = len(nodes), sum(1 for u, v in edges if u != v)
    assert calls == [len(range(n)[batch])
                     for batch in jnet._batches(n, n, simple)]
    assert len(calls) > 1


def match(qj, uj):
    return MatchRecord(qj_id=qj, category="10", uj_id=uj, impact_gap=0.0,
                       tercile="large")


def vector(scores):
    from citnet.jnet import CentralityVector
    return CentralityVector(metric="BC", year=2005, window_years=2,
                            link_type="citation", scores=scores)


def test_comparison_fractions():
    matches = [match("q1", "u1"), match("q2", "u2"), match("q3", "u3"),
               match("q4", "u4")]
    scores = {"q1": 1.0, "u1": 2.0, "q2": 1.0, "u2": 3.0,
              "q3": 5.0, "u3": 6.0, "q4": 9.0, "u4": 1.0}
    report = centrality_comparison(matches, [vector(scores)])["BC"]
    assert report.uj_higher_fraction == 0.75
    assert report.pair_count == 4
    assert report.excluded_pairs == 0


def test_comparison_strictness_and_exclusions():
    matches = [match("q1", "u1"), match("q2", "missing")]
    scores = {"q1": 2.0, "u1": 2.0, "q2": 1.0}
    report = centrality_comparison(matches, [vector(scores)])["BC"]
    assert report.uj_higher_fraction == 0.0   # ties are not strictly higher
    assert report.excluded_pairs == 1


def test_comparison_all_higher():
    matches = [match("q1", "u1")]
    report = centrality_comparison(matches,
                                   [vector({"q1": 0.1, "u1": 0.2})])["BC"]
    assert report.uj_higher_fraction == 1.0
    assert report.pair_count == 1


def test_centrality_variants_compare_every_variant():
    # journals A, B publish every year; edges cover both directions of
    # the 2005 target for windows up to 5
    papers = []
    for year in range(2000, 2011):
        papers += [(f"a{year}", "A", year, []), (f"b{year}", "B", year, [])]
    refs = {
        "a2006": ["b2005"], "b2007": ["a2005"],       # citation windows
        "a2005": ["b2004", "b2001"], "b2005": ["a2003"],  # reference windows
    }
    papers = [(pid, j, y, refs.get(pid, [])) for pid, j, y, _r in papers]
    corpus = make_corpus(papers, {"A": {}, "B": {}}, year_range=(2000, 2010))
    matches = [match("A", "B")]
    computed, skipped = centrality_variants(corpus, 2005, (2, 5),
                                            ("citation", "reference"))
    assert skipped == {}
    results = {(network.window_years, network.link_type):
               centrality_comparison(matches, vectors)
               for network, vectors in computed}
    assert set(results) == {(2, "citation"), (2, "reference"),
                            (5, "citation"), (5, "reference")}
    for reports in results.values():
        assert set(reports) == {"BC", "CC", "PR", "PathCore"}


def test_centrality_variants_skip_out_of_range_windows():
    papers = [("a1", "A", 2005, []), ("b1", "B", 2005, []),
              ("a2", "A", 2006, ["b1"])]
    corpus = make_corpus(papers, {"A": {}, "B": {}}, year_range=(2004, 2007))
    computed, skipped = centrality_variants(corpus, 2005, [2, 5],
                                            ["citation", "reference"])
    assert [(n.window_years, n.link_type) for n, _v in computed] == [
        (2, "citation")]
    assert [v.metric for v in computed[0][1]] == ["BC", "CC", "PR",
                                                  "PathCore"]
    assert set(skipped) == {"2005_2reference", "2005_5citation",
                            "2005_5reference"}
    assert "exceeds corpus range end 2007" in skipped["2005_5citation"]
    with pytest.raises(ValueError):
        centrality_variants(corpus, 2005, [2], ["citations"])


_PATH_METRICS_SCRIPT = """
import random
from citnet.jnet import (JournalCitationNetwork, betweenness, closeness,
                         pathcore)
rng = random.Random(7)
nodes = tuple(f"J{i:03d}" for i in range(150))
edges = {(rng.choice(nodes), rng.choice(nodes)): 1 for _ in range(600)}
network = JournalCitationNetwork(year=2000, window_years=2,
                                 link_type="citation", nodes=nodes,
                                 edges=edges)
for metric in (betweenness, closeness, pathcore):
    print(repr(sorted(metric(network).scores.items())))
"""


def _run_python(script, hash_seed="0"):
    src = str(Path(citnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(
                   [src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_closeness_independent_of_hash_seed():
    outputs = [_run_python(_PATH_METRICS_SCRIPT, hash_seed)
               for hash_seed in ("1", "2")]
    assert len(outputs[0].splitlines()) == 3
    assert outputs[0] == outputs[1]


def test_import_loads_neither_networkx_nor_scipy():
    loaded = _run_python("import sys, citnet\n"
                         "print(sorted(m for m in ('networkx', 'scipy')\n"
                         "             if m in sys.modules))")
    assert loaded.strip() == "[]"


def test_import_loads_no_process_pool_nor_numpy_ma():
    # worker pools are imported when a run starts them, and numpy.ma only
    # by calls such as np.unique; importing the package pays for neither
    loaded = _run_python(
        "import sys, citnet\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures',\n"
        "                         'numpy.ma') if m in sys.modules))")
    assert loaded.strip() == "[]"


def test_reference_strings_read_in_corpus_and_synth_only():
    # one walk maps the reference strings to codes (Corpus.reference_codes);
    # every other module reads the codes or the graph built from them
    import ast

    package = Path(citnet.__file__).resolve().parent
    readers, edge_rule = [], []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "references"
                    and path.name not in ("corpus.py", "synth.py")):
                readers.append(path.name)
            name = (node.name if isinstance(node, ast.FunctionDef)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name) else None)
            if name == "is_edge":
                edge_rule.append(path.name)
    assert readers == [] and edge_rule == []


def _functions(module):
    """Every top-level function of a module, by name, as an AST node."""
    import ast

    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    return {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}


def test_array_kernels_stay_loop_free():
    # the swap rounds and the two-step bypasses run as array operations:
    # no conversion to Python lists, and in the shuffle one loop, over
    # the rounds
    import ast

    from citnet import novelty

    kernels = {**{name: _functions(novelty)[name]
                  for name in ("shuffle_edges", "_accepted")},
               "pathcore": _functions(jnet)["pathcore"]}
    for name, function in kernels.items():
        calls = [node.func.attr for node in ast.walk(function)
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute)]
        assert "tolist" not in calls, name
    for name, most in (("shuffle_edges", 1), ("_accepted", 0)):
        loops = [node for node in ast.walk(kernels[name])
                 if isinstance(node, (ast.For, ast.While, ast.comprehension))]
        assert len(loops) <= most, name


def test_only_corpus_module_knows_the_string_indices_and_node_order():
    # one citation structure: the graph, whose node order Corpus.ids names
    package = Path(citnet.__file__).resolve().parent
    banned = (".forward", ".citers", "papers_of_journal",
              "sorted(corpus.papers)")
    found = [(path.name, word) for path in sorted(package.glob("*.py"))
             if path.name != "corpus.py"
             for word in banned if word in path.read_text(encoding="utf-8")]
    assert found == []
