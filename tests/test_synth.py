import multiprocessing
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from citnet.corpus import validate_corpus
from citnet.selfcite import CitationCounts, solidarity_scores
from citnet.synth import (RewireConfig, SynthConfig, _Rewirer,
                          _generate_network, _journal_psi, _materialize,
                          generate_synthetic, psi_rewiring_experiment,
                          psi_scenarios, rewire)

from conftest import make_corpus, serialize_indices
from oracles import (citation_edges, hill_mle, journal_of,
                     solidarity_reference, string_indices)

SMALL = SynthConfig(publisher_count=3, journals_per_publisher=3,
                    component_size_range=(60, 80), out_degree_mean=6.0,
                    out_degree_std=2.0, seed=17, year_range=(2000, 2004))


def test_generated_corpus_is_valid():
    corpus = generate_synthetic(SMALL)
    assert validate_corpus(corpus).is_clean


def test_paper_totals_in_configured_range():
    corpus = generate_synthetic(SynthConfig(seed=3))
    assert 5 * 450 <= len(corpus.papers) <= 5 * 550
    sizes = Counter()
    for paper in corpus.papers.values():
        sizes[corpus.journals[paper.journal_id].publisher_id] += 1
    assert len(sizes) == 5
    for count in sizes.values():
        assert 450 <= count <= 550


def test_mean_out_degree_near_target():
    corpus = generate_synthetic(SynthConfig(seed=7))
    outs = [len(corpus.forward[p]) for p in corpus.papers]
    assert 19.0 <= float(np.mean(outs)) <= 21.0


def test_in_degree_tail_exponent():
    corpus = generate_synthetic(SynthConfig(seed=7))
    citers = string_indices(corpus)[1]
    ins = [len(citers[p]) for p in corpus.papers]
    alpha = hill_mle(ins, xmin=60)
    assert 2.5 <= alpha <= 3.5


def test_references_point_backward_in_time():
    corpus = generate_synthetic(SMALL)
    for citing, cited in corpus.citation_edges():
        assert corpus.papers[cited].year <= corpus.papers[citing].year


def test_generation_seeded_determinism():
    a = serialize_indices(generate_synthetic(SMALL))
    b = serialize_indices(generate_synthetic(SMALL))
    assert a == b
    c = generate_synthetic(SynthConfig(**{**SMALL.__dict__, "seed": 18}))
    assert serialize_indices(c) != a


def out_degrees(corpus):
    return Counter((p, len(corpus.forward[p])) for p in corpus.papers)


def test_rewire_preserves_out_degrees():
    corpus = generate_synthetic(SMALL)
    for steps in (0, 57, 500):
        rewired = rewire(corpus, RewireConfig(seed=5), steps)
        assert out_degrees(rewired) == out_degrees(corpus)
        assert validate_corpus(rewired).is_clean


def special_rates(corpus, rate):
    return {jid: rate for jid in corpus.journals
            if jid.startswith("P1-")}


def test_rewire_rate_one_targets_own_publisher():
    corpus = generate_synthetic(SMALL)
    config = RewireConfig(special_rates=special_rates(corpus, 1.0), seed=5)
    edges = len(list(corpus.citation_edges()))
    rewired = rewire(corpus, config, 3 * edges)
    own = cross = 0
    for citing, cited in rewired.citation_edges():
        if rewired.papers[citing].journal_id.startswith("P1-"):
            if rewired.papers[cited].journal_id.startswith("P1-"):
                own += 1
            else:
                cross += 1
    # every processed link of the rate-1 journals landed in-publisher
    assert cross == 0
    assert own > 0


def test_rewire_rate_zero_avoids_own_publisher():
    corpus = generate_synthetic(SMALL)
    config = RewireConfig(special_rates=special_rates(corpus, 0.0), seed=5)
    edges = len(list(corpus.citation_edges()))
    rewired = rewire(corpus, config, 3 * edges)
    own = 0
    for citing, cited in rewired.citation_edges():
        if rewired.papers[citing].journal_id.startswith("P1-") and \
                rewired.papers[cited].journal_id.startswith("P1-"):
            own += 1
    assert own == 0


@pytest.mark.parametrize("orphan", ["J2", "X1"])
def test_rewire_rejects_journal_without_publisher(orphan):
    papers = [("a", "J1", 2000, []), ("b", orphan, 2001, ["a"]),
              ("c", "J1", 2001, ["a", "b"])]
    corpus = make_corpus(papers, {"J1": {"publisher_id": "P"}, "J2": {}})
    with pytest.raises(ValueError,
                       match=f"journal '{orphan}' has no publisher"):
        rewire(corpus, RewireConfig(seed=1), 3)


def test_rewire_rejects_unknown_special_journal():
    corpus = generate_synthetic(SMALL)
    config = RewireConfig(special_rates={"nope": 0.9, "P1-J1": 0.5}, seed=1)
    with pytest.raises(ValueError, match=r"unknown journals: \['nope'\]"):
        rewire(corpus, config, 10)


def test_rewiring_experiment_rejects_unknown_special_journal():
    config = RewireConfig(special_rates={"P9-J1": 0.5}, ensemble_count=1,
                          seed=1, checkpoints=(0.5,))
    with pytest.raises(ValueError, match=r"unknown journals: \['P9-J1'\]"):
        psi_rewiring_experiment(SMALL, config)
    # raised in a forked worker, the error reaches the caller the same way
    pooled = replace(config, ensemble_count=2)
    with pytest.raises(ValueError, match=r"unknown journals: \['P9-J1'\]"):
        psi_rewiring_experiment(SMALL, pooled, 2)
    assert multiprocessing.active_children() == []


def test_rewire_without_other_publishers_keeps_leaving_links():
    papers = [("a", "J1", 2000, []), ("b", "J2", 2001, ["a"]),
              ("c", "J1", 2001, ["a", "b"]), ("d", "J2", 2002, ["c"])]
    corpus = make_corpus(papers, {"J1": {"publisher_id": "P"},
                                  "J2": {"publisher_id": "P"}})
    config = RewireConfig(baseline_rate=0.0, seed=1)
    assert rewire(corpus, config, 12).papers == corpus.papers


def labeled_two_publisher_corpus(seed=4, n=80):
    """Publishers Acme and Beta with ISSNs, categories and flagged journals;
    authors on every paper; one dangling and one self reference."""
    rng = np.random.default_rng(seed)
    names = ["A1", "A2", "B1", "B2"]
    papers = []
    for i in range(n):
        refs = sorted({f"x{int(r):02d}" for r in
                       rng.integers(0, max(i, 1), size=min(i, 4))})
        papers.append((f"x{i:02d}", names[i % 4], 2000 + i // 20, refs,
                       [f"au{i % 7}"]))
    papers[10] = papers[10][:3] + (papers[10][3] + ["ghost"],) + papers[10][4:]
    papers[11] = papers[11][:3] + (papers[11][3] + ["x11"],) + papers[11][4:]
    journals = {
        "A1": {"publisher_id": "Acme", "issns": ["0378-5955"],
               "categories": ["11", "12"]},
        "A2": {"publisher_id": "Acme", "questionable": True,
               "categories": ["12"]},
        "B1": {"publisher_id": "Beta", "questionable": True,
               "issns": ["2049-3630"], "categories": ["21"]},
        "B2": {"publisher_id": "Beta", "categories": ["22"]},
    }
    return make_corpus(papers, journals, year_range=(2000, 2003))


def test_rewire_keeps_the_corpus_it_was_given():
    corpus = labeled_two_publisher_corpus()
    config = RewireConfig(special_rates={"A2": 0.9}, seed=3)
    same = rewire(corpus, config, 0)
    assert same.papers == corpus.papers
    assert same.journals == corpus.journals
    assert same.publishers == corpus.publishers
    assert {j.journal_id for j in same.journals.values()
            if j.questionable_flag} == {"A2", "B1"}
    assert serialize_indices(same) == serialize_indices(corpus)

    moved = rewire(corpus, config, 200)
    assert moved.journals == corpus.journals
    assert moved.publishers == corpus.publishers
    assert moved.year_range == corpus.year_range
    changed = 0
    for pid, paper in corpus.papers.items():
        new = moved.papers[pid]
        assert (new.journal_id, new.year, new.author_keys) == \
            (paper.journal_id, paper.year, paper.author_keys)
        assert len(new.references) == len(paper.references)
        changed += new.references != paper.references
    assert changed > 0
    assert "ghost" in moved.papers["x10"].references
    assert "x11" in moved.papers["x11"].references
    assert out_degrees(moved) == out_degrees(corpus)


def test_rewire_seeded_determinism():
    corpus = generate_synthetic(SMALL)
    config = RewireConfig(seed=9)
    a = serialize_indices(rewire(corpus, config, 200))
    b = serialize_indices(rewire(corpus, config, 200))
    assert a == b


def test_scenarios_monotone():
    for scenario, increasing in (("a", True), ("b", True), ("c", False)):
        curve = psi_scenarios(scenario)
        values = [psi for _v, psi in curve]
        assert all(v is not None for v in values)
        pairs = zip(values, values[1:])
        if increasing:
            assert all(a < b for a, b in pairs)
        else:
            assert all(a > b for a, b in pairs)


def test_scenario_peak_ordering():
    peak_a = max(psi for _v, psi in psi_scenarios("a"))
    peak_b = max(psi for _v, psi in psi_scenarios("b"))
    assert peak_a > peak_b


def test_scenario_unknown_rejected():
    with pytest.raises(ValueError):
        psi_scenarios("d")


def test_rewiring_experiment_small():
    synth_cfg = SynthConfig(publisher_count=5, journals_per_publisher=2,
                            component_size_range=(80, 100),
                            out_degree_mean=8.0, out_degree_std=2.0,
                            seed=23, year_range=(2000, 2004))
    rewire_cfg = RewireConfig(ensemble_count=2, seed=29,
                              checkpoints=(0.5, 1.0))
    curves = psi_rewiring_experiment(synth_cfg, rewire_cfg)
    assert [rate for _s, rate in curves.slots] == \
        [0.5, 0.25, 0.125, 0.0625, 0.0625]
    assert {cp for cp, *_ in curves.rows} == {0.5, 1.0}
    for _cp, _slot, _rate, mean, std in curves.rows:
        assert mean > 0
        assert std >= 0

    again = psi_rewiring_experiment(synth_cfg, rewire_cfg)
    assert again.rows == curves.rows


def test_rewiring_experiment_equal_at_any_worker_count():
    rates = {"P1-J1": 0.9, "P2-J3": 0.4, "P3-J2": 0.4}
    for ensembles in (1, 2, 3):
        config = RewireConfig(special_rates=rates, ensemble_count=ensembles,
                              seed=5, checkpoints=(0.5, 1.0))
        serial = psi_rewiring_experiment(SMALL, config)
        assert len(serial.rows) == 2 * len(rates)
        for workers in (2, 3):
            pooled = psi_rewiring_experiment(SMALL, config, workers)
            assert multiprocessing.active_children() == []
            assert pooled == serial
            assert list(pooled.ratios) == list(serial.ratios)


def test_solidarity_defined_on_generated_corpus():
    corpus = generate_synthetic(SMALL)
    for score in solidarity_scores(corpus.graph):
        assert score.status == "ok"
        assert score.psi > 0


def test_experiment_psi_is_the_corpus_psi():
    """The psi the rewiring experiment divides, on a net rewired to a
    checkpoint, is the reference psi of that net written out as a corpus,
    a one-journal publisher's journal excluded."""
    config = SynthConfig(publisher_count=3, journals_per_publisher=3,
                         component_size_range=(40, 60), out_degree_mean=5.0,
                         out_degree_std=1.5, seed=9, year_range=(2000, 2004))
    net = _generate_network(config, np.random.default_rng(config.seed))
    # the last publisher's third journal becomes a publisher of its own
    *kept, last = net.publishers
    publishers = [*kept, last[:2], last[2:]]
    code = {jid: p for p, jids in enumerate(publishers) for jid in jids}
    publisher_of = np.array([code[jid] for jid in net.journal_ids])
    net = replace(net, publishers=publishers,
                  publisher_of=publisher_of[net.journal_of])
    rewirer = _Rewirer(net, {"P1-J1": 0.9, "P3-J3": 0.5}, 0.2,
                       np.random.default_rng(3))
    rewirer.advance(len(net.src))       # checkpoint 1.0
    net = replace(net, dst=np.array(rewirer.dst))
    psi = _journal_psi(net)

    corpus = _materialize(net, config.year_range)
    table = CitationCounts.from_counts(Counter(
        (journal_of(corpus, citing), journal_of(corpus, cited))
        for citing, cited in citation_edges(corpus)))
    reference = solidarity_reference(corpus, table)
    assert {jid: repr(value) for jid, value in psi.items()} == \
        {s.journal_id: repr(s.psi) for s in reference}
    statuses = {s.journal_id: s.status for s in reference}
    assert statuses.pop("P3-J3") == "excluded"
    assert set(statuses.values()) == {"ok"}
