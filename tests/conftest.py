import csv
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from citnet.corpus import Corpus, Journal, LoadReport, Paper, Publisher


def make_corpus(papers, journals, year_range=(1996, 2018)):
    """Build an in-memory corpus from compact specs.

    papers: list of (paper_id, journal_id, year, [refs]) or
            (paper_id, journal_id, year, [refs], [author_keys])
    journals: dict journal_id -> dict(publisher_id=?, categories=?,
              questionable=?, issns=?)
    """
    paper_records = {}
    for spec in papers:
        pid, jid, year, refs = spec[:4]
        authors = spec[4] if len(spec) > 4 else ()
        paper_records[pid] = Paper(paper_id=pid, journal_id=jid, year=year,
                                   author_keys=tuple(authors),
                                   references=tuple(refs))

    journal_records = {}
    publishers = {}
    for jid, spec in journals.items():
        pub = spec.get("publisher_id")
        journal_records[jid] = Journal(
            journal_id=jid,
            issns=tuple(spec.get("issns", ())),
            publisher_id=pub,
            categories=tuple(spec.get("categories", ("10",))),
            questionable_flag=spec.get("questionable", False),
        )
        if pub:
            publishers.setdefault(pub, Publisher(publisher_id=pub))
    return Corpus(paper_records, journal_records, publishers, LoadReport(),
                  year_range=year_range)


def serialize_indices(corpus) -> bytes:
    """Canonical byte serialization of the citation graph, nodes by id."""
    graph, ids = corpus.graph, corpus.ids
    payload = {
        "ids": ids,
        "journal_ids": graph.journal_ids,
        "publishers": graph.publishers,
        "journal_of": graph.journal_of.tolist(),
        "publisher_of": graph.publisher_of.tolist(),
        "year_of": graph.year_of.tolist(),
        "edges": [[ids[s], ids[t]] for s, t in zip(graph.src.tolist(),
                                                   graph.dst.tolist())],
    }
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def messy_corpus(seed, n=240):
    """Seeded corpus with every case the integer graph codes as -1.

    Papers fall in journals J0-J3 (publishers PA and PB), in J4 (no
    publisher) and in X1 and X2 (not registered), over 2000-2010; the
    reference lists hold self, repeated and dangling references.
    """
    rng = np.random.default_rng(seed)
    names = ["J0", "J1", "J2", "J3", "J4", "X1", "X2"]
    papers = []
    for i in range(n):
        refs = rng.integers(0, n + 5, size=int(rng.integers(0, 7)))
        papers.append((f"p{i:03d}", names[int(rng.integers(len(names)))],
                       int(rng.integers(2000, 2011)),
                       [f"p{int(r):03d}" for r in refs] + [f"p{i:03d}"]))
    journals = {"J0": {"publisher_id": "PA"}, "J1": {"publisher_id": "PA"},
                "J2": {"publisher_id": "PB"}, "J3": {"publisher_id": "PB"},
                "J4": {}}
    return make_corpus(papers, journals, year_range=(2000, 2010))


def corpus_to_files(corpus, directory):
    """Write a corpus as the three interchange files; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    papers_path = directory / "papers.jsonl"
    with papers_path.open("w", encoding="utf-8") as fh:
        for pid in sorted(corpus.papers):
            p = corpus.papers[pid]
            fh.write(json.dumps({
                "paper_id": p.paper_id, "journal_id": p.journal_id,
                "year": p.year, "author_keys": list(p.author_keys),
                "references": list(p.references),
            }, sort_keys=True) + "\n")

    journals_path = directory / "journals.csv"
    with journals_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["journal_id", "issns", "publisher_id", "categories",
                         "questionable_flag"])
        for jid in sorted(corpus.journals):
            j = corpus.journals[jid]
            writer.writerow([jid, "|".join(j.issns), j.publisher_id or "",
                             "|".join(j.categories),
                             "true" if j.questionable_flag else "false"])

    publishers_path = directory / "publishers.csv"
    with publishers_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["publisher_id", "name"])
        for pid in sorted(corpus.publishers):
            writer.writerow([pid, corpus.publishers[pid].name])

    return {"papers": papers_path, "journals": journals_path,
            "publishers": publishers_path}


def small_pipeline_corpus(seed=5):
    """Mini synthetic corpus with flags and author names, for pipeline runs.

    Sized so every journal clears the 30-papers-per-year activity
    threshold that matching applies.
    """
    from citnet.synth import SynthConfig, generate_synthetic

    corpus = generate_synthetic(SynthConfig(
        publisher_count=3, journals_per_publisher=2,
        component_size_range=(320, 380), out_degree_mean=6.0,
        out_degree_std=2.0, in_degree_exponent=3.0, seed=seed,
        year_range=(2000, 2003)))

    rng = np.random.default_rng(seed + 1)
    pool = [f"{surname}, {initial}."
            for surname in ("kim", "lee", "park", "cho", "han", "yun",
                            "seo", "bae", "moon", "noh")
            for initial in "jsm"]
    papers = {}
    for pid in sorted(corpus.papers):
        p = corpus.papers[pid]
        k = int(rng.integers(1, 4))
        authors = tuple(sorted({pool[int(i)] for i in
                                rng.integers(0, len(pool), size=k)}))
        papers[pid] = Paper(paper_id=p.paper_id, journal_id=p.journal_id,
                            year=p.year, author_keys=authors,
                            references=p.references)

    flagged = {"P1-J1"}
    journals = {jid: replace(j, questionable_flag=jid in flagged)
                for jid, j in corpus.journals.items()}
    return Corpus(papers, journals, dict(corpus.publishers), LoadReport(),
                  year_range=corpus.year_range)


@pytest.fixture(scope="session")
def pipeline_corpus():
    return small_pipeline_corpus()


@pytest.fixture(scope="session")
def pipeline_files(tmp_path_factory, pipeline_corpus):
    directory = tmp_path_factory.mktemp("corpus")
    return corpus_to_files(pipeline_corpus, directory)


PIPELINE_CONFIG = {
    "year_range": [2000, 2003],
    "seed": 33,
    "threads": 1,
    "stages": ["impact", "matching", "selfcite", "jnet", "novelty",
               "disruption", "authors"],
    "impact": {"years": [2001, 2002], "reference_year": 2002,
               "market_share": True},
    "matching": {"year": 2002},
    "jnet": {"year": 2001, "windows": [2], "link_types": ["citation"]},
    "novelty": {"ensemble_count": 5, "swaps_per_edge": 5.0},
    "authors": {"weights": {"self_citation": 1.0, "shared_author": 0.5,
                            "shared_citation": 0.2, "shared_reference": 0.2}},
}


def write_pipeline_config(tmp_path, files, outdir, extra=None):
    import yaml

    config = json.loads(json.dumps(PIPELINE_CONFIG))
    config["corpus"] = {k: str(v) for k, v in files.items()}
    config["output"] = str(outdir)
    for key, value in (extra or {}).items():
        if isinstance(value, dict) and isinstance(config.get(key), dict):
            config[key].update(value)
        else:
            config[key] = value
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    return path
