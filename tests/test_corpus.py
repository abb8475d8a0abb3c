import json

import pytest

from citnet.corpus import (Corpus, CorpusFormatError, Journal, LoadReport,
                           Publisher, load_corpus, validate_corpus)
from citnet.synth import RewireConfig, rewire

from conftest import (corpus_to_files, make_corpus, messy_corpus,
                      serialize_indices)
from oracles import (paper_counts_reference, publisher_journals_reference,
                     string_indices)


def write_fixture(tmp_path, papers=None, journals=None, publishers=None):
    papers_path = tmp_path / "papers.jsonl"
    with papers_path.open("w", encoding="utf-8") as fh:
        for obj in papers or []:
            fh.write(json.dumps(obj) + "\n")
    journals_path = tmp_path / "journals.csv"
    rows = ["journal_id,issns,publisher_id,categories,questionable_flag"]
    rows += journals or []
    journals_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    publishers_path = tmp_path / "publishers.csv"
    rows = ["publisher_id,name"] + (publishers or [])
    publishers_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return {"papers": papers_path, "journals": journals_path,
            "publishers": publishers_path}


def paper(pid, jid="J1", year=2000, refs=(), authors=()):
    return {"paper_id": pid, "journal_id": jid, "year": year,
            "author_keys": list(authors), "references": list(refs)}


THREE_PAPER = [
    paper("p1", refs=["p2", "p3"]),
    paper("p2", jid="J2", year=2001),
    paper("p3", jid="J2", year=1999),
]
JOURNALS = ['J1,0317-8471,PUB1,10|20,false', 'J2,2434-561X,PUB1,10,true']
PUBLISHERS = ["PUB1,Example House"]


def test_three_paper_fixture_transposes(tmp_path):
    corpus = load_corpus(write_fixture(tmp_path, THREE_PAPER, JOURNALS,
                                       PUBLISHERS))
    assert corpus.forward["p1"] == ("p2", "p3")
    assert corpus.forward["p2"] == corpus.forward["p3"] == ()
    with pytest.raises(TypeError):
        corpus.forward["p2"] = ("p3",)
    assert list(corpus.citation_edges()) == [("p1", "p2"), ("p1", "p3")]
    assert corpus.graph.year_of[corpus.graph.src].tolist() == [2000, 2000]
    assert corpus.load_report.summary()["dangling_references"] == 0


def test_dangling_reference_reported_not_fatal(tmp_path):
    papers = [paper("p1", refs=["p2", "ghost"]), paper("p2", jid="J2")]
    corpus = load_corpus(write_fixture(tmp_path, papers, JOURNALS, PUBLISHERS))
    assert corpus.load_report.dangling_references == [("p1", "ghost")]
    # excluded from the graph entirely
    assert corpus.forward["p1"] == ("p2",)
    assert list(corpus.citation_edges()) == [("p1", "p2")]


def test_deterministic_reload(tmp_path):
    files = write_fixture(tmp_path, THREE_PAPER, JOURNALS, PUBLISHERS)
    first = serialize_indices(load_corpus(files))
    second = serialize_indices(load_corpus(files))
    assert first == second


def test_malformed_record_names_location(tmp_path):
    bad = [paper("p1"), {"paper_id": "p2", "journal_id": "J1",
                         "author_keys": [], "references": []}]
    files = write_fixture(tmp_path, bad, JOURNALS, PUBLISHERS)
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(files)
    assert "papers.jsonl" in str(err.value)
    assert ":2:" in str(err.value)
    assert "year" in str(err.value)


def test_wrong_type_field(tmp_path):
    bad = [dict(paper("p1"), year="2000")]
    files = write_fixture(tmp_path, bad, JOURNALS, PUBLISHERS)
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(files)
    assert "year" in str(err.value)


def test_duplicate_paper_id_rejected(tmp_path):
    files = write_fixture(tmp_path, [paper("p1"), paper("p1")], JOURNALS,
                          PUBLISHERS)
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(files)
    assert "duplicate" in str(err.value)


def test_validate_clean_fixture(tmp_path):
    corpus = load_corpus(write_fixture(tmp_path, THREE_PAPER, JOURNALS,
                                       PUBLISHERS))
    report = validate_corpus(corpus)
    assert report.is_clean
    assert report.violations == []


def test_validate_flags_bad_issn(tmp_path):
    journals = ['J1,0317-8472,PUB1,10,false', 'J2,2434-561X,PUB1,10,true']
    corpus = load_corpus(write_fixture(tmp_path, THREE_PAPER, journals,
                                       PUBLISHERS))
    report = validate_corpus(corpus)
    bad = report.by_kind("issn_checksum")
    assert len(bad) == 1 and bad[0].entity == "J1"


def test_validate_flags_self_citation(tmp_path):
    papers = [paper("p1", refs=["p1", "p2"]), paper("p2", jid="J2")]
    corpus = load_corpus(write_fixture(tmp_path, papers, JOURNALS, PUBLISHERS))
    report = validate_corpus(corpus)
    assert len(report.by_kind("self_reference")) == 1
    assert report.by_kind("self_reference")[0].entity == "p1"


def test_validate_year_range(tmp_path):
    papers = [paper("p1", year=1901)]
    corpus = load_corpus(write_fixture(tmp_path, papers, JOURNALS, PUBLISHERS))
    assert len(validate_corpus(corpus).by_kind("year_out_of_range")) == 1
    corpus = load_corpus(write_fixture(tmp_path, papers, JOURNALS, PUBLISHERS),
                         year_range=(1900, 2020))
    assert not validate_corpus(corpus).by_kind("year_out_of_range")


def test_unknown_journal_tracked(tmp_path):
    papers = [paper("p1", jid="JX")]
    corpus = load_corpus(write_fixture(tmp_path, papers, JOURNALS, PUBLISHERS))
    assert corpus.load_report.unknown_journal_papers == ["p1"]
    assert validate_corpus(corpus).by_kind("unknown_journal")


def test_graph_equals_citation_edges_with_missing_codes():
    base = messy_corpus(seed=4)
    # PB unregistered: its journals J2 and J3 keep a journal code only
    corpus = Corpus(base.papers, base.journals,
                    {"PA": base.publishers["PA"]}, LoadReport(),
                    year_range=base.year_range)
    graph = corpus.graph
    assert corpus.graph is graph
    ids = sorted(corpus.papers)
    assert [(ids[s], ids[t]) for s, t in zip(graph.src, graph.dst)] == \
        list(corpus.citation_edges())
    assert graph.n_nodes == len(ids)
    assert graph.journal_ids == sorted(corpus.journals)
    assert graph.publishers == [["J0", "J1"]]
    for v, pid in enumerate(ids):
        paper = corpus.papers[pid]
        registered = paper.journal_id in corpus.journals
        journal = graph.journal_ids.index(paper.journal_id) \
            if registered else -1
        publisher = 0 if paper.journal_id in ("J0", "J1") else -1
        assert (graph.journal_of[v], graph.publisher_of[v],
                graph.year_of[v]) == (journal, publisher, paper.year)
    codes = set(zip(graph.journal_of.tolist(), graph.publisher_of.tolist()))
    # unregistered journal; no publisher (J4); unregistered publisher (J2)
    assert {(-1, -1), (4, -1), (2, -1)} <= codes


def rewired_corpus():
    """Two publishers' papers with a dangling and a self reference,
    rewired by 200 retargeted links."""
    papers = [(f"x{i:02d}", ("A1", "A2", "B1", "B2")[i % 4], 2000 + i // 20,
               [f"x{(i * 7 + k) % 80:02d}" for k in range(i % 5)])
              for i in range(80)]
    papers[10][3].append("ghost")
    papers[11][3].extend(["x11", "x03", "x03"])
    corpus = make_corpus(papers, {"A1": {"publisher_id": "PA"},
                                  "A2": {"publisher_id": "PA"},
                                  "B1": {"publisher_id": "PB"},
                                  "B2": {"publisher_id": "PB"}})
    return rewire(corpus, RewireConfig(seed=3), 200)


@pytest.mark.parametrize("corpus", [
    *(pytest.param(lambda s=s: messy_corpus(s), id=f"messy{s}")
      for s in range(4)),
    pytest.param(rewired_corpus, id="rewired")])
def test_graph_equals_string_indices(corpus, tmp_path):
    """The graph read through the ids is the string indices of the
    reference lists: order, repeats, dangling and self references."""
    corpus = corpus()
    forward, citers = string_indices(corpus)
    graph, ids = corpus.graph, corpus.ids
    assert ids == sorted(corpus.papers)
    assert corpus.node == {pid: v for v, pid in enumerate(ids)}
    cited = {pid: [] for pid in ids}
    citing = {pid: [] for pid in ids}
    for s, t in zip(graph.src.tolist(), graph.dst.tolist()):
        cited[ids[s]].append(ids[t])
        citing[ids[t]].append((ids[s], int(graph.year_of[s])))
    assert {p: tuple(r) for p, r in cited.items()} == forward
    assert {p: tuple(c) for p, c in citing.items()} == citers
    # the read-only views
    assert dict(corpus.forward) == forward
    assert list(corpus.citation_edges()) == \
        [(p, r) for p in sorted(forward) for r in forward[p]]
    assert sum(map(len, forward.values())) < sum(
        len(p.references) for p in corpus.papers.values())
    # a file round trip keeps the graph byte for byte
    files = corpus_to_files(corpus, tmp_path / "rt")
    assert (serialize_indices(load_corpus(files))
            == serialize_indices(corpus))


def registry_messy_corpus(seed):
    """messy_corpus with PB unregistered (J2 and J3 name it), PZ
    registered without journals, J9 registered without papers, and
    papers on both sides of year_range."""
    base = messy_corpus(seed)
    journals = dict(base.journals, J9=Journal("J9", publisher_id="PA"))
    publishers = {"PA": base.publishers["PA"], "PZ": Publisher("PZ")}
    return Corpus(base.papers, journals, publishers, LoadReport(),
                  year_range=(2003, 2007))


@pytest.mark.parametrize("corpus", [
    *(pytest.param(lambda s=s: registry_messy_corpus(s), id=f"messy{s}")
      for s in range(3)),
    pytest.param(rewired_corpus, id="rewired")])
def test_derived_facts_equal_record_scans(corpus):
    corpus = corpus()
    counts = corpus.paper_counts
    assert counts == paper_counts_reference(corpus)
    assert list(counts) == sorted(corpus.journals)
    assert all(list(by_year) == sorted(by_year) for by_year in counts.values())
    for jid, by_year in counts.items():
        assert corpus.paper_count(jid) == sum(by_year.values())
        assert corpus.paper_count(jid, range(2003, 2006)) == sum(
            n for y, n in by_year.items() if 2003 <= y < 2006)
    members = corpus.publisher_journals
    assert {p: set(js) for p, js in members.items()} == \
        publisher_journals_reference(corpus)
    assert all(list(js) == sorted(js) for js in members.values())
    assert corpus.graph.publishers == [list(members[p])
                                       for p in sorted(corpus.publishers)]
    if "J9" in corpus.journals:
        lo, hi = corpus.year_range
        assert counts["J9"] == {} and members["PZ"] == ()
        assert {y for c in counts.values() for y in c} - set(range(lo, hi + 1))
        report = validate_corpus(corpus)
        assert [v.entity for v in report.by_kind("empty_publisher")] == ["PZ"]
        assert [v.entity for v in report.by_kind("unknown_publisher")] == \
            ["J2", "J3"]
