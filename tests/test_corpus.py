import json
from dataclasses import replace

import pytest

from citnet.corpus import (Corpus, CorpusFormatError, LoadReport, load_corpus,
                           validate_corpus)

from conftest import (corpus_to_files, make_corpus, messy_corpus,
                      serialize_indices)


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
    assert corpus.citers["p2"] == (("p1", 2000),)
    assert corpus.citers["p3"] == (("p1", 2000),)
    assert len([e for e in corpus.citation_edges()]) == 2
    assert corpus.load_report.summary()["dangling_references"] == 0


def test_dangling_reference_reported_not_fatal(tmp_path):
    papers = [paper("p1", refs=["p2", "ghost"]), paper("p2", jid="J2")]
    corpus = load_corpus(write_fixture(tmp_path, papers, JOURNALS, PUBLISHERS))
    assert corpus.load_report.dangling_references == [("p1", "ghost")]
    # excluded from the index entirely
    assert corpus.forward["p1"] == ("p2",)


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


def test_validate_flags_paper_count_mismatch():
    corpus = make_corpus([("p1", "J1", 2000, []), ("p2", "J1", 2001, []),
                          ("p3", "J2", 2000, [])], {"J1": {}, "J2": {}})
    assert not validate_corpus(corpus).by_kind("paper_count_mismatch")
    corpus.journals["J1"] = replace(corpus.journals["J1"],
                                    paper_count_by_year={2000: 1, 2001: 2})
    flagged = validate_corpus(corpus).by_kind("paper_count_mismatch")
    assert [(v.entity, v.detail) for v in flagged] == [
        ("J1", "paper_count_by_year disagrees with paper table")]


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


def test_transpose_property_roundtrip(tmp_path):
    corpus = make_corpus(
        [("a", "J1", 2000, ["b", "c"]), ("b", "J1", 2001, ["c"]),
         ("c", "J2", 1999, [])],
        {"J1": {"publisher_id": "P"}, "J2": {"publisher_id": "P"}})
    forward = {(p, r) for p, refs in corpus.forward.items() for r in refs}
    inverted = {(c, p) for p, cs in corpus.citers.items() for c, _y in cs}
    assert forward == inverted
    # file round trip preserves the indices byte for byte
    files = corpus_to_files(corpus, tmp_path / "rt")
    assert (serialize_indices(load_corpus(files))
            == serialize_indices(corpus))
