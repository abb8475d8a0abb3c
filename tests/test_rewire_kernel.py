"""The synthetic generator's pinned output and the rewiring kernel's law.

The rewirer draws its random numbers in blocks, so its stream differs
from the scalar reference in ``oracles``. What both must share is the
law of a step, which the tests below compute exactly from the net and
compare with the outcomes of many seeded first steps.
"""

import hashlib
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from citnet.synth import SynthConfig, _generate_network, _Rewirer

from oracles import rewire_reference

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
            assert rewirer.nodes[p] == [v for v in range(n) if pub[v] == p]
            assert rewirer.size[p] == len(rewirer.nodes[p]) + len(edges)
        assert rewirer.edge_set == {s * n + t
                                    for s, t in zip(net.src, net.dst)}
        assert len(rewirer.edge_set) == m
        assert all(s != t for s, t in zip(net.src, net.dst))
