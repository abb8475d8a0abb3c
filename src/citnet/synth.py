"""Synthetic corpora and the solidarity-index validation protocol.

Three pieces live here:

* a generator for random citation corpora with publisher/journal labels,
  Gaussian out-degrees and a heavy in-degree tail grown by preferential
  attachment;
* a rewiring process that retargets links with per-journal probabilities
  of staying inside the citing journal's publisher, used to dial
  publisher-level self-citation up or down while out-degrees stay fixed;
* closed-form scenario sweeps evaluating the solidarity index on
  synthetic citation-count tables.

Everything is reproducible from the configured seeds alone: ensembles
derive their generators from (seed, ensemble_index), and rewiring
consumes links in seeded random sweeps, each sweep retargeting every
link exactly once. Sweep scanning (rather than sampling links with
replacement) is what makes the index settle once rewiring passes about
twice the link count: after two sweeps every link has been redrawn from
the target rule twice, so later checkpoints only jitter. As no ensemble
reads another's draws, ``psi_rewiring_experiment`` can run them in
forked workers, each generating its own net, and merges their ratios in
ensemble order, so its curves are the same at any worker count.

Rewiring draws its random numbers in blocks: per sweep a permutation of
the links and one uniform per link for the stay decisions, and the pool
and target draws from fixed-size blocks of uniforms. Each publisher's
pool is one flat list of its papers followed by the current target of
every link that cites one of them, so a uniform index into it weights
every paper by 1 + its in-degree.

Generated and rewired nets are the corpus's own integer
``CitationGraph``: ``rewire`` starts from ``Corpus.graph`` and writes
the retargeted links back into the input corpus's reference lists, and
the count tables at every checkpoint come from its journal-pair tally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from ._util import fork_map
from .corpus import (CitationGraph, Corpus, Journal, Paper, Publisher,
                     csr_pointer)
from .selfcite import CitationCounts, _scores, psi_from_counts

__all__ = [
    "SynthConfig",
    "RewireConfig",
    "generate_synthetic",
    "rewire",
    "psi_scenarios",
    "psi_rewiring_experiment",
    "publisher_psi_baseline",
    "RewireCurves",
    "DEFAULT_SPECIAL_RATES",
    "DEFAULT_CHECKPOINTS",
]

DEFAULT_SPECIAL_RATES = (0.5, 0.25, 0.125, 0.0625, 0.0625)
DEFAULT_CHECKPOINTS = (0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)

SYNTH_CATEGORY = "00"

# uniforms per rng.random call behind the rewiring pool and target draws
_UNIFORM_BLOCK = 4096


@dataclass(frozen=True)
class SynthConfig:
    publisher_count: int = 5
    journals_per_publisher: int = 5
    component_size_range: tuple[int, int] = (450, 550)
    out_degree_mean: float = 20.0
    out_degree_std: float = 5.0
    in_degree_exponent: float = 3.0
    seed: int = 0
    year_range: tuple[int, int] = (2000, 2009)

    def __post_init__(self):
        if self.publisher_count < 1 or self.journals_per_publisher < 1:
            raise ValueError("counts must be positive")
        lo, hi = self.component_size_range
        if lo > hi or lo < 1:
            raise ValueError("empty component size range")
        if self.in_degree_exponent <= 2.0:
            raise ValueError("in-degree exponent must exceed 2")


@dataclass(frozen=True)
class RewireConfig:
    # journal id -> probability of retargeting inside its own publisher;
    # empty means "assign the default rate set, one special journal per
    # publisher, seeded"
    special_rates: dict = field(default_factory=dict)
    baseline_rate: float = 0.2
    rewire_fraction: float = 3.0
    ensemble_count: int = 20
    seed: int = 0
    checkpoints: tuple[float, ...] = DEFAULT_CHECKPOINTS

    def __post_init__(self):
        for rate in list(self.special_rates.values()) + [self.baseline_rate]:
            if not (0.0 <= rate <= 1.0):
                raise ValueError("rates must lie in [0, 1]")


def _generate_network(config: SynthConfig, rng) -> CitationGraph:
    p_count = config.publisher_count
    jpp = config.journals_per_publisher
    sizes = rng.integers(config.component_size_range[0],
                         config.component_size_range[1] + 1, size=p_count)
    n = int(sizes.sum())

    publisher_of = np.repeat(np.arange(p_count), sizes)
    publishers = [[f"P{p + 1}-J{j + 1}" for j in range(jpp)]
                  for p in range(p_count)]
    journal_of = publisher_of * jpp + rng.integers(0, jpp, size=n)

    order = rng.permutation(n)
    y0, y1 = config.year_range
    span = y1 - y0 + 1
    cohort = math.ceil(n / span)
    year_of = np.empty(n, dtype=np.int64)
    year_of[order] = y0 + np.minimum(np.arange(n) // cohort, span - 1)

    # Attachment kernel (in_degree + a) with a = (exponent - 2) * mean
    # out-degree yields the requested in-degree tail exponent.
    base_weight = max(1, round((config.in_degree_exponent - 2.0)
                               * config.out_degree_mean))
    # each node once per unit of attachment weight: a uniform draw from
    # the list is a draw proportional to in_degree + base_weight
    pool: list[int] = []
    src: list[int] = []
    dst: list[int] = []
    integers = rng.integers
    degrees = rng.normal(config.out_degree_mean, config.out_degree_std,
                         size=n).tolist()
    for k, v in enumerate(order.tolist()):
        want = max(0, int(round(degrees[k])))
        want = min(want, k)            # can only cite already-arrived papers
        # At most 20 * want draws, in blocks of the references still
        # missing: a draw adds at most one paper, so a paper can only be
        # done, or reach the cap, on a block's last draw, and the blocks
        # take the same stream as one scalar draw per attempt. The pool
        # holds earlier papers only, so v never draws itself.
        chosen: set[int] = set()
        left = 20 * want
        while len(chosen) < want and left:
            need = min(want - len(chosen), left)
            left -= need
            chosen.update(map(pool.__getitem__,
                              integers(len(pool), size=need).tolist()))
        cited = sorted(chosen)
        src.extend([v] * len(cited))
        dst.extend(cited)
        pool.extend(cited)
        pool.extend([v] * base_weight)

    return CitationGraph(journal_ids=[j for js in publishers for j in js],
                         publishers=publishers, journal_of=journal_of,
                         publisher_of=publisher_of, year_of=year_of,
                         src=src, dst=dst)


def _materialize(net: CitationGraph, year_range) -> Corpus:
    refs_of: dict[int, list[int]] = {}
    for s, t in zip(net.src, net.dst):
        refs_of.setdefault(s, []).append(t)

    def pid(v):
        return f"n{v:05d}"

    papers = {}
    for v, (code, year) in enumerate(zip(net.journal_of.tolist(),
                                         net.year_of.tolist())):
        papers[pid(v)] = Paper(
            paper_id=pid(v), journal_id=net.journal_ids[code], year=year,
            references=tuple(pid(t) for t in sorted(refs_of.get(v, ()))))

    journals = {}
    publishers = {}
    for p, jids in enumerate(net.publishers):
        pub_id = f"P{p + 1}"
        publishers[pub_id] = Publisher(publisher_id=pub_id)
        for jid in jids:
            journals[jid] = Journal(journal_id=jid, publisher_id=pub_id,
                                    categories=(SYNTH_CATEGORY,))
    return Corpus(papers, journals, publishers, year_range=year_range)


def generate_synthetic(config: SynthConfig) -> Corpus:
    """Random labeled citation corpus under the configured degree model.

    Papers split into publishers of uniform-random size, each spread over
    its journals; arrival order maps to years; every arriving paper cites
    earlier papers drawn preferentially by in-degree, with a Gaussian
    reference count.
    """
    rng = np.random.default_rng(config.seed)
    net = _generate_network(config, rng)
    return _materialize(net, config.year_range)


class _Rewirer:
    """Retargets links in seeded sweeps, one full pass per link count.

    Publisher p's pool is one list: its nodes, then the current target of
    each edge in ``edges[p]``, the edges whose target lies in p, in that
    order (``slot[e]`` is e's index in its edge list, so its target sits
    at ``pools[p][node_count[p] + slot[e]]``). A uniform index into the
    pool thus draws each node with weight 1 + its current in-degree. Every
    sweep draws a permutation of the edges and one uniform per step for
    the stay decision; pool and target draws take ``int(u * size)`` from
    blocks of ``_UNIFORM_BLOCK`` uniforms, so ``advance(a); advance(b)``
    equals ``advance(a + b)``.
    """

    def __init__(self, net: CitationGraph, rates: dict[str, float],
                 baseline: float, rng):
        unknown = sorted(set(rates) - set(net.journal_ids))
        if unknown:
            raise ValueError(f"special rates name unknown journals: {unknown}")
        self.net = net
        self.rng = rng
        self.edge_rate = np.array([rates.get(j, baseline)
                                   for j in net.journal_ids],
                                  dtype=float)[net.journal_of[net.src]]
        pub = net.publisher_of
        self.pub = pub.tolist()
        p_count = len(net.publishers)
        target_pub = pub[net.dst]
        by_target = np.argsort(target_pub, kind="stable")
        edge_ptr = csr_pointer(target_pub, p_count)
        node_ptr = csr_pointer(pub, p_count)
        nodes = np.argsort(pub, kind="stable").tolist()
        self.node_count = np.diff(node_ptr).tolist()
        slot = np.empty(len(by_target), dtype=np.int64)
        self.edges: list[list[int]] = []
        self.pools: list[list[int]] = []
        for p in range(p_count):
            edges = by_target[edge_ptr[p]:edge_ptr[p + 1]]
            slot[edges] = np.arange(len(edges))
            edges = edges.tolist()
            self.edges.append(edges)
            # net.dst's own int objects: the pools copy no targets
            self.pools.append(nodes[node_ptr[p]:node_ptr[p + 1]]
                              + list(map(net.dst.__getitem__, edges)))
        self.slot = slot.tolist()
        self.others = [[q for q in range(p_count) if q != p]
                       for p in range(p_count)]
        n = net.n_nodes
        self.edge_set = {s * n + t for s, t in zip(net.src, net.dst)}
        # an endless stream of uniforms, drawn one block at a time
        self.uniform = chain.from_iterable(iter(
            lambda: rng.random(_UNIFORM_BLOCK).tolist(), None)).__next__
        self._order: list[int] = []
        self._stay: list[bool] = []
        self._cursor = 0
        self.steps_done = 0

    def _new_sweep(self):
        order = self.rng.permutation(len(self.net.src))
        self._stay = (self.rng.random(len(order))
                      < self.edge_rate[order]).tolist()
        self._order = order.tolist()
        self._cursor = 0

    def advance(self, steps: int):
        while steps > 0:
            if self._cursor == len(self._order):
                self._new_sweep()
            c = self._cursor
            take = min(steps, len(self._order) - c)
            self._run(self._order[c:c + take], self._stay[c:c + take])
            self._cursor += take
            self.steps_done += take
            steps -= take

    def _run(self, order: list[int], stay: list[bool]):
        src, dst, pub = self.net.src, self.net.dst, self.pub
        pools, edges, slot = self.pools, self.edges, self.slot
        node_count, others_of = self.node_count, self.others
        edge_set, uniform, n = self.edge_set, self.uniform, self.net.n_nodes
        total = n + len(dst)
        for e, stays in zip(order, stay):
            s, t_old = src[e], dst[e]
            p = own = pub[s]
            if not stays:
                others = total - len(pools[own])
                if not others:
                    continue            # no other publisher to land in
                r = int(uniform() * others)
                for p in others_of[own]:
                    if r < len(pools[p]):
                        break
                    r -= len(pools[p])
            pool = pools[p]
            t = pool[int(uniform() * len(pool))]
            if t != t_old and (t == s or s * n + t in edge_set):
                t = self._redraw(pool, s, t_old)
            if t == t_old:
                continue                # redrew the same target: no-op
            edge_set.discard(s * n + t_old)
            edge_set.add(s * n + t)
            dst[e] = t
            q = pub[t_old]
            if q == p:
                pool[node_count[p] + slot[e]] = t
                continue
            # e's entry moves from q to p: the last edge of q takes its slot
            old_edges, old_pool = edges[q], pools[q]
            last, last_t = old_edges.pop(), old_pool.pop()
            if last != e:
                old_edges[slot[e]] = last
                old_pool[node_count[q] + slot[e]] = last_t
                slot[last] = slot[e]
            slot[e] = len(edges[p])
            edges[p].append(e)
            pool.append(t)

    def _redraw(self, pool: list[int], s: int, t_old: int) -> int:
        """Target after a first draw that was rejected (a self edge or a
        duplicate): the first of up to 99 more draws that is the old
        target or allowed, else the old target."""
        uniform, edge_set, n = self.uniform, self.edge_set, self.net.n_nodes
        for _ in range(99):
            t = pool[int(uniform() * len(pool))]
            if t == t_old or (t != s and s * n + t not in edge_set):
                return t
        return t_old


def rewire(corpus: Corpus, config: RewireConfig, step_count: int) -> Corpus:
    """Retarget ``step_count`` links of a publisher-labeled corpus.

    Sources (and hence all out-degrees) are untouched. Each retargeted
    link lands inside the citing journal's publisher with that journal's
    configured probability, otherwise among the other publishers'
    papers, drawn preferentially by current in-degree + 1 either way.
    The result is a new corpus equal to the input except that each
    resolved reference is replaced at its position in its list: ids,
    journals, publishers, labels, dangling and self references stay.

    Raises ValueError naming the journal of the first paper whose
    journal or publisher is not registered, or the special-rate keys
    that name no journal of the corpus.
    """
    graph = corpus.graph
    orphans = np.flatnonzero(graph.publisher_of < 0)
    if orphans.size:
        paper = corpus.papers[corpus.ids[orphans[0]]]
        raise ValueError(f"journal {paper.journal_id!r} has no publisher")
    net = replace(graph, src=graph.src.tolist(), dst=graph.dst.tolist())
    rng = np.random.default_rng(config.seed)
    rewirer = _Rewirer(net, dict(config.special_rates),
                       config.baseline_rate, rng)
    rewirer.advance(step_count)

    # the graph's edges are the references marked `edge`, in order
    row, code, edge, names = corpus.reference_codes
    code = code.copy()
    code[edge] = net.dst
    cited = [names[c] for c in code.tolist()]
    pointer = csr_pointer(row, len(corpus.ids)).tolist()
    papers = {pid: replace(corpus.papers[pid],
                           references=tuple(cited[pointer[v]:pointer[v + 1]]))
              for v, pid in enumerate(corpus.ids)}
    return Corpus(papers, dict(corpus.journals), dict(corpus.publishers),
                  year_range=corpus.year_range)


def _default_rate_assignment(net: CitationGraph, rng):
    """One special journal per publisher; the default rates are dealt
    across publishers in seeded random order."""
    rates = list(DEFAULT_SPECIAL_RATES)
    if len(net.publishers) != len(rates):
        raise ValueError("default rate set expects "
                         f"{len(rates)} publishers, got {len(net.publishers)}")
    order = rng.permutation(len(rates))
    assignment = {}
    for p, jids in enumerate(net.publishers):
        jid = sorted(jids)[int(rng.integers(len(jids)))]
        assignment[jid] = rates[int(order[p])]
    return assignment


def _journal_psi(net: CitationGraph) -> dict[str, Optional[float]]:
    """psi of every journal of the net against its publisher, on the net's
    current links; None where undefined or for a one-journal publisher."""
    table = CitationCounts.from_counts(net.journal_pair_counts())
    paper_totals = np.bincount(net.publisher_of, minlength=len(net.publishers))
    psi = {}
    for members, paper_total in zip(net.publishers, paper_totals.tolist()):
        scores = _scores(table, members, members, paper_total, True)
        psi.update((s.journal_id, s.psi if len(members) > 1 else None)
                   for s in scores)
    return psi


@dataclass
class RewireCurves:
    """Ensemble-averaged solidarity trajectories of the special journals.

    ``rows`` carry (checkpoint, slot, rate, psi_ratio_mean, psi_ratio_std)
    with slots S1..Sk ordered by descending rate; ``ratios`` holds the
    raw per-ensemble ratios behind each row.
    """

    checkpoints: tuple[float, ...]
    slots: list[tuple[str, float]]
    rows: list[tuple[float, str, float, float, float]]
    ratios: dict[tuple[float, str], list[float]]

    def mean_ratio(self, checkpoint: float, slot: str) -> float:
        data = self.ratios[(checkpoint, slot)]
        return sum(data) / len(data)


def _ensemble_ratios(synth_config: SynthConfig, rewire_config: RewireConfig,
                     checkpoints: tuple[float, ...], ens: int):
    """One ensemble of the rewiring experiment: (slots, ratios).

    Generates the net and the rates from the ensemble's own seeds and
    rewires through the checkpoints; ``ratios`` lists
    ((checkpoint, slot), psi ratio) for each defined ratio, in
    checkpoint then slot order.
    """
    gen_rng = np.random.default_rng([synth_config.seed, ens])
    net = _generate_network(synth_config, gen_rng)
    rw_rng = np.random.default_rng([rewire_config.seed, ens])
    if rewire_config.special_rates:
        rates = dict(rewire_config.special_rates)
    else:
        rates = _default_rate_assignment(net, rw_rng)

    ordered = sorted(rates.items(), key=lambda kv: (-kv[1], kv[0]))
    slots = [(f"S{k + 1}", rate) for k, (_j, rate) in enumerate(ordered)]
    specials = [jid for jid, _r in ordered]

    # built first: it rejects special rates naming no journal of the net
    rewirer = _Rewirer(net, rates, rewire_config.baseline_rate, rw_rng)
    base_psi = _journal_psi(net)

    ratios = []
    m = len(net.src)
    for cp in checkpoints:
        rewirer.advance(int(round(cp * m)) - rewirer.steps_done)
        psi = _journal_psi(net)
        for k, jid in enumerate(specials):
            if psi[jid] is not None and base_psi[jid]:
                ratios.append(((cp, f"S{k + 1}"), psi[jid] / base_psi[jid]))
    return slots, ratios


def psi_rewiring_experiment(synth_config: SynthConfig,
                            rewire_config: RewireConfig,
                            workers: int = 1) -> RewireCurves:
    """Track psi(rewired)/psi(original) for the special journals.

    Every ensemble generates a fresh corpus, assigns the special rates
    (one journal per publisher unless ``special_rates`` is given), and
    rewires through the checkpoint grid, all from seeds derived from the
    configured ones. Ratios are averaged across ensembles per rate slot.
    The ensembles run in ``workers`` forked processes at most, each
    generating its own nets; their ratios are merged in ensemble order,
    so the curves are the same at any worker count.
    """
    checkpoints = tuple(c for c in rewire_config.checkpoints
                        if c <= rewire_config.rewire_fraction + 1e-9)
    runs = fork_map(partial(_ensemble_ratios, synth_config, rewire_config,
                            checkpoints),
                    range(rewire_config.ensemble_count), workers)
    per_slot: dict[tuple[float, str], list[float]] = {}
    slots: list[tuple[str, float]] = []
    for slots, ratios in runs:
        for key, ratio in ratios:
            per_slot.setdefault(key, []).append(ratio)

    rows = []
    for cp in checkpoints:
        for slot, rate in slots:
            data = per_slot.get((cp, slot), [])
            if not data:
                continue
            arr = np.array(data)
            rows.append((cp, slot, rate, float(arr.mean()), float(arr.std())))
    return RewireCurves(checkpoints=checkpoints, slots=slots, rows=rows,
                        ratios=per_slot)


def publisher_psi_baseline(synth_config: SynthConfig, ensemble_count: int
                           ) -> dict[str, list[float]]:
    """Per-publisher solidarity samples before any rewiring.

    Returns publisher id -> flat list of journal psi values pooled over
    the ensembles, for fairness checks between the generated components.
    """
    pools: dict[str, list[float]] = {}
    for ens in range(ensemble_count):
        rng = np.random.default_rng([synth_config.seed, ens])
        net = _generate_network(synth_config, rng)
        psi = _journal_psi(net)
        for p, jids in enumerate(net.publishers):
            for jid in sorted(jids):
                if psi[jid] is not None:
                    pools.setdefault(f"P{p + 1}", []).append(psi[jid])
    return pools


# ---------------------------------------------------------------------------
# Scenario sweeps on synthetic count tables
# ---------------------------------------------------------------------------

_SCENARIO_MEMBERS = ("F", "J1", "J2", "J3", "J4")
_SCENARIO_TOTALS = {j: 100 for j in _SCENARIO_MEMBERS}


def _scenario_table(scenario: str, value: float) -> CitationCounts:
    """Count table for one sweep point of the named scenario.

    F is the focal journal; J1..J4 share its publisher; E is the outside
    world. Scenario "a" sweeps F's citations into the publisher where
    they dominate the publisher's internal exchange; "b" sweeps the same
    count on top of a large constant internal base, pinning the
    publisher-wide expectations; "c" holds F's giving fixed and sweeps
    what F receives from the publisher.
    """
    base = {("F", "E"): 800, ("E", "F"): 160,
            ("E", "J1"): 40, ("E", "J2"): 40, ("E", "J3"): 40, ("E", "J4"): 40}
    cross = {("J1", "J2"): 500, ("J2", "J3"): 500,
             ("J3", "J4"): 500, ("J4", "J1"): 500}
    if scenario == "a":
        counts = dict(base)
        counts[("F", "J1")] = value
        counts[("J1", "F")] = 40
    elif scenario == "b":
        counts = dict(base) | dict(cross)
        counts[("F", "J1")] = value
        counts[("J1", "F")] = 40
    elif scenario == "c":
        counts = dict(base) | dict(cross)
        counts[("F", "J1")] = 40
        counts[("J1", "F")] = value
    else:
        raise ValueError(f"unknown scenario: {scenario!r}")
    return CitationCounts.from_counts(
        {pair: float(c) for pair, c in counts.items() if c > 0})


def psi_scenarios(scenario: str, grid: Optional[Sequence[float]] = None):
    """Solidarity of the focal journal over a citation-count sweep.

    Returns [(sweep_value, psi), ...]. Scenarios "a" and "b" sweep the
    focal journal's citations into its publisher (rising curves, with
    "a" peaking higher); "c" sweeps the citations it receives from the
    publisher (falling curve).
    """
    if grid is None:
        start = 10 if scenario == "c" else 0
        grid = range(start, 201, 10)
    curve = []
    for value in grid:
        table = _scenario_table(scenario, float(value))
        score = psi_from_counts(table, "F", _SCENARIO_MEMBERS, _SCENARIO_TOTALS)
        curve.append((float(value), score.psi))
    return curve
