"""The synthetic generator's and the rewiring kernel's pinned streams,
their same-stream references and the law of a rewiring step.

The generator draws each paper's references in blocks, and the rewirer
draws from flat pools of targets; each must give the same net as its
one-draw-at-a-time reference in ``oracles``, which reads the same random
stream. The scalar reference ``rewire_reference`` makes one ``rng`` call
per decision, so its stream differs from the rewirer's. What both must
share is the law of a step, which the tests below compute exactly from
the net and compare with the outcomes of many seeded first steps.
"""

import hashlib
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from citnet.synth import (RewireConfig, SynthConfig,
                          _default_rate_assignment, _generate_network,
                          _Rewirer)

from oracles import (generate_network_reference, pool_rewirer_reference,
                     rewire_reference)

REWIRERS = [pytest.param(_Rewirer, id="blocks"),
            pytest.param(rewire_reference, id="reference")]

TINY = SynthConfig(publisher_count=3, journals_per_publisher=2,
                   component_size_range=(30, 36), out_degree_mean=3.0,
                   out_degree_std=1.0, seed=5, year_range=(2000, 2004))
RATES = {"P1-J1": 0.9, "P2-J2": 0.0, "P3-J1": 1.0}
BASELINE = 0.3
FIRST_STEP_SEEDS = 4000


def tiny_net():
    return _generate_network(TINY, np.random.default_rng(TINY.seed))


def digest(net):
    h = hashlib.sha256()
    for values in (net.src, net.dst, net.journal_of, net.year_of):
        h.update(np.asarray(values, dtype="<i8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("seed, edges, expected", [
    (1, 49890,
     "e15b17b8c17d2eb7ae42abaa244a94ade604b45c3d416f0844de3bce929eacd6"),
    (2, 49092,
     "5d3ee359f76ee9f1910f98361bba14e3e6626573e65dbf3cb394ff4622d3a3ac"),
])
def test_generated_network_is_pinned(seed, edges, expected):
    net = _generate_network(SynthConfig(seed=seed),
                            np.random.default_rng(seed))
    assert len(net.src) == edges
    assert digest(net) == expected


def default_rewirer(net, rng, make=_Rewirer):
    """The rewirer of the default experiment: the default special rates
    dealt with ``rng``, which then drives the rewiring."""
    rates = _default_rate_assignment(net, rng)
    return make(net, rates, RewireConfig().baseline_rate, rng)


def test_rewired_stream_is_pinned():
    net = _generate_network(SynthConfig(seed=1), np.random.default_rng(1))
    default_rewirer(net, np.random.default_rng(1)).advance(
        round(3.0 * len(net.src)))
    assert hashlib.sha256(np.asarray(net.dst, dtype="<i8").tobytes()
                          ).hexdigest() == (
        "d9ede0391b53a0d2540e1072be3704b2936bbc2849c1cac08318c16db2ff712b")


# the benchmark corpus's shape, and one where the 20-attempt cap binds:
# few papers, each wanting to cite nearly all earlier ones
BENCH_SHAPE = SynthConfig(publisher_count=8, journals_per_publisher=4,
                          component_size_range=(475, 525), out_degree_mean=6.0,
                          out_degree_std=2.0, seed=1, year_range=(2012, 2016))
CAPPED = SynthConfig(publisher_count=1, component_size_range=(40, 80),
                     out_degree_mean=50.0, out_degree_std=3.0,
                     in_degree_exponent=2.01)


@pytest.mark.parametrize("config", [
    *(pytest.param(SynthConfig(seed=s), id=f"default-{s}") for s in (1, 2, 3)),
    pytest.param(BENCH_SHAPE, id="bench-shape"),
    *(pytest.param(replace(CAPPED, seed=s), id=f"capped-{s}")
      for s in (1, 2, 3)),
])
def test_generator_equals_per_attempt_reference(config):
    net = _generate_network(config, np.random.default_rng(config.seed))
    ref = generate_network_reference(config,
                                     np.random.default_rng(config.seed))
    assert net.src == ref.src
    assert net.dst == ref.dst
    assert np.array_equal(net.journal_of, ref.journal_of)
    assert np.array_equal(net.year_of, ref.year_of)
    if config.publisher_count == 1:
        assert ref.capped > 0, "the attempt cap never bound"


def one_publisher_net():
    net = tiny_net()
    return replace(net, publishers=[[j for js in net.publishers for j in js]],
                   publisher_of=np.zeros(net.n_nodes, dtype=np.int64))


@pytest.mark.parametrize("make_net, rates, baseline", [
    pytest.param(tiny_net, RATES, BASELINE, id="tiny"),
    pytest.param(tiny_net, {}, 0.0, id="rate-0"),
    pytest.param(tiny_net, {}, 1.0, id="rate-1"),
    pytest.param(one_publisher_net, {}, BASELINE, id="one-publisher"),
])
def test_rewirer_equals_edge_pool_reference(make_net, rates, baseline):
    nets = [make_net() for _ in range(3)]
    split = _Rewirer(nets[0], rates, baseline, np.random.default_rng(11))
    ref = pool_rewirer_reference(nets[1], rates, baseline,
                                 np.random.default_rng(11))
    for steps in (0, 7, 1, 300, 250, 400):
        split.advance(steps)
        ref.advance(steps)
        assert nets[0].dst == nets[1].dst
    whole = _Rewirer(nets[2], rates, baseline, np.random.default_rng(11))
    whole.advance(ref.steps_done)
    assert nets[2].dst == nets[1].dst
    assert split.edge_set == whole.edge_set == ref.edge_set
    assert nets[1].dst != make_net().dst


def test_rewirer_equals_edge_pool_reference_on_default_net():
    nets = [_generate_network(SynthConfig(seed=1), np.random.default_rng(1))
            for _ in range(2)]
    for net, make in zip(nets, (_Rewirer, pool_rewirer_reference)):
        default_rewirer(net, np.random.default_rng(2), make).advance(
            3 * len(net.src))
    assert nets[0].dst == nets[1].dst


def first_step_law(net, rates, baseline):
    """Exact probability of each outcome of one rewiring step.

    Outcome (e, t): edge e now points to t; None: nothing changed. The
    step visits each edge with probability 1/m, stays in the citing
    publisher with the citing journal's rate, otherwise picks another
    publisher by pool size (its nodes' summed 1 + in-degree), and draws
    targets by 1 + in-degree until one is allowed (a move) or is the old
    target (a no-op), at most 100 times.
    """
    src, dst = list(net.src), list(net.dst)
    m, n = len(src), net.n_nodes
    pub = net.publisher_of.tolist()
    weight = (1 + np.bincount(dst, minlength=n)).tolist()
    members = {}
    for v, p in enumerate(pub):
        members.setdefault(p, []).append(v)
    pool_weight = {p: sum(weight[v] for v in vs) for p, vs in members.items()}
    total = sum(pool_weight.values())
    existing = set(zip(src, dst))

    law = Counter()
    for e, (s, t_old) in enumerate(zip(src, dst)):
        jid = net.journal_ids[net.journal_of[s]]
        rate = rates.get(jid, baseline)
        own = pub[s]
        others = total - pool_weight[own]
        choice = {p: (1 - rate) * w / others
                  for p, w in pool_weight.items() if p != own}
        choice[own] = rate
        for p, chance in choice.items():
            allowed = [t for t in members[p] if t not in (s, t_old)
                       and (s, t) not in existing]
            w_ok = sum(weight[t] for t in allowed)
            w_old = weight[t_old] if pub[t_old] == p else 0
            if chance == 0 or w_ok == 0:
                continue
            rejected = 1 - (w_ok + w_old) / pool_weight[p]
            moves = chance / m * (1 - rejected ** 100) / (w_ok + w_old)
            for t in allowed:
                law[(e, t)] += moves * weight[t]
    law[None] = 1.0 - math.fsum(law.values())
    return law


def first_step_outcome(make, net, seed):
    fresh = replace(net, dst=list(net.dst))
    make(fresh, RATES, BASELINE, np.random.default_rng(seed)).advance(1)
    moved = [e for e, (a, b) in enumerate(zip(net.dst, fresh.dst)) if a != b]
    assert len(moved) <= 1
    return (moved[0], fresh.dst[moved[0]]) if moved else None


def assert_within_4_sigma(law, counts, trials, label):
    """Each outcome expected at least 10 times is its own cell; the rest
    share one cell. Every cell's count lies within 4 binomial sigma.
    Returns the number of cells."""
    cells = Counter()
    for outcome, p in law.items():
        cell = outcome if p * trials >= 10 else "rare"
        cells[cell] += p
    seen = Counter()
    for outcome, c in counts.items():
        seen[outcome if outcome in cells else "rare"] += c
    for cell, p in cells.items():
        expected = p * trials
        sigma = math.sqrt(trials * p * (1 - p))
        assert abs(seen[cell] - expected) <= 4 * sigma, (label, cell,
                                                         seen[cell], expected)
    return len(cells)


@pytest.mark.parametrize("make", REWIRERS)
def test_first_step_follows_the_model_law(make):
    net = tiny_net()
    assert 90 <= net.n_nodes <= 110 and len(net.publishers) == 3
    law = first_step_law(net, RATES, BASELINE)
    counts = Counter(first_step_outcome(make, net, seed)
                     for seed in range(FIRST_STEP_SEEDS))
    assert all(law[o] > 0 for o in counts), "an impossible outcome occurred"

    pub = net.publisher_of.tolist()
    groupings = {
        "outcome": lambda o: o,
        "moved edge": lambda o: o and o[0],
        "publisher move": lambda o: o and (pub[net.src[o[0]]], pub[o[1]]),
        "new target": lambda o: o and o[1],
    }
    cells = {}
    for label, key in groupings.items():
        grouped_law, grouped_counts = Counter(), Counter()
        for outcome, p in law.items():
            grouped_law[key(outcome)] += p
        for outcome, c in counts.items():
            grouped_counts[key(outcome)] += c
        cells[label] = assert_within_4_sigma(grouped_law, grouped_counts,
                                             FIRST_STEP_SEEDS, label)
    # the marginals resolve single edges, publisher pairs and targets
    assert cells["moved edge"] > 100
    assert cells["publisher move"] == 1 + 3 * 3
    assert cells["new target"] > 30


@pytest.mark.parametrize("make", REWIRERS)
@pytest.mark.parametrize("a, b", [(0, 50), (7, 1), (1, 300), (250, 400)])
def test_split_advance_equals_one_advance(make, a, b):
    nets = [tiny_net(), tiny_net()]
    split = make(nets[0], RATES, BASELINE, np.random.default_rng(11))
    split.advance(a)
    split.advance(b)
    whole = make(nets[1], RATES, BASELINE, np.random.default_rng(11))
    whole.advance(a + b)
    assert split.steps_done == whole.steps_done == a + b
    assert nets[0].dst == nets[1].dst
    assert nets[0].dst != tiny_net().dst


def test_pools_track_the_current_targets():
    net = tiny_net()
    rewirer = _Rewirer(net, RATES, BASELINE, np.random.default_rng(3))
    m, n = len(net.src), net.n_nodes
    pub = net.publisher_of.tolist()
    for _ in range(4):
        rewirer.advance(m // 2 + 3)
        for p, edges in enumerate(rewirer.edges):
            assert sorted(edges) == [e for e in range(m)
                                     if pub[net.dst[e]] == p]
            assert all(rewirer.slot[e] == i for i, e in enumerate(edges))
            nodes = [v for v in range(n) if pub[v] == p]
            pool, node_count = rewirer.pools[p], rewirer.node_count[p]
            assert node_count == len(nodes) and pool[:node_count] == nodes
            assert len(pool) == node_count + len(edges)
            assert pool[node_count:] == [net.dst[e] for e in edges]
        assert rewirer.edge_set == {s * n + t
                                    for s, t in zip(net.src, net.dst)}
        assert len(rewirer.edge_set) == m
        assert all(s != t for s, t in zip(net.src, net.dst))
