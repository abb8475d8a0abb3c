import csv
import json
import multiprocessing
import os
import re
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

import citnet
import citnet.cli as cli_mod
import citnet.pipeline as pipeline_mod
import citnet.synth as synth_mod
from citnet._util import write_csv
from citnet.cli import main as cli_main
from citnet.corpus import Corpus, load_corpus
from citnet.matching import binning_diagnostics
from citnet.novelty import ShuffleConfig
from citnet.pipeline import (ConfigError, _RunContext, config_hash,
                             emit_plot_data, load_config, run_pipeline,
                             run_synth)

import oracles
from conftest import (PIPELINE_CONFIG, corpus_to_files,
                      small_pipeline_corpus, write_pipeline_config)

ALL_CSVS = ("impact.csv", "market_share.csv", "matches.csv",
            "solidarity.csv", "rates.csv", "novelty.csv", "disruption.csv",
            "clusters.csv", "author_stats.csv",
            "centrality_BC_2001_2citation.csv",
            "centrality_CC_2001_2citation.csv",
            "centrality_PR_2001_2citation.csv",
            "centrality_PathCore_2001_2citation.csv",
            "network_2001_2citation.csv")


def read_outputs(outdir):
    return {p.name: p.read_bytes()
            for p in sorted(Path(outdir).glob("*.csv"))}


@pytest.fixture(scope="module")
def full_run(tmp_path_factory, pipeline_files):
    tmp = tmp_path_factory.mktemp("run")
    outdir = tmp / "out"
    config_path = write_pipeline_config(tmp, pipeline_files, outdir)
    config = load_config(config_path)
    results = run_pipeline(config)
    return config, outdir, results


def test_full_run_produces_every_module_csv(full_run):
    config, outdir, results = full_run
    assert all(r.status == "ok" for r in results)
    present = {p.name for p in outdir.glob("*.csv")}
    for name in ALL_CSVS:
        assert name in present, name
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["partial"] is False
    assert {s["name"] for s in manifest["stages"]} == {
        "impact", "matching", "selfcite", "jnet", "novelty", "disruption",
        "authors"}
    corpus = load_corpus(config.corpus_paths(),
                         year_range=tuple(config["year_range"]))
    graph = manifest["graph"]
    assert (graph["nodes"], graph["edges"]) == (len(corpus.papers),
                                                len(corpus.graph.src))
    assert graph["seconds"] > 0 and manifest["load"]["seconds"] > 0
    assert manifest["load_report"] == corpus.load_report.summary()


@pytest.mark.parametrize("novelty", [
    {},                                                # fixture config
    {"ensemble_count": 2, "swaps_per_edge": 0.002},    # some sigma == 0
])
def test_manifest_counts_novelty_exclusions(tmp_path, pipeline_files,
                                            novelty):
    outdir = tmp_path / "out"
    config = load_config(write_pipeline_config(
        tmp_path, pipeline_files, outdir,
        extra={"stages": ["impact", "matching", "novelty"],
               "novelty": novelty}))
    assert all(r.status == "ok" for r in run_pipeline(config))
    manifest = json.loads((outdir / "manifest.json").read_text())
    entry = next(s for s in manifest["stages"] if s["name"] == "novelty")
    with (outdir / "novelty.csv").open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    corpus = load_corpus(config.corpus_paths(),
                         year_range=tuple(config["year_range"]))
    section = config["novelty"]
    zmap = oracles.pair_zscores(corpus, ShuffleConfig(
        ensemble_count=int(section["ensemble_count"]),
        swaps_per_edge=float(section["swaps_per_edge"]),
        seed=int(config["seed"]),
        collapse_multiplicity=bool(section["collapse_multiplicity"])))
    expected = {
        "undefined_pairs": sum(1 for s in zmap.values() if s.z is None),
        "undefined_papers": sum(1 for r in rows if r["median_z"] == "")}
    assert entry["counts"] == expected
    if novelty:
        assert 0 < expected["undefined_pairs"] < len(zmap)
        assert 0 < expected["undefined_papers"] < len(rows)


def test_manifest_counts_disruption_and_author_exclusions(full_run):
    config, outdir, _results = full_run
    manifest = json.loads((outdir / "manifest.json").read_text())
    counts = {s["name"]: s["counts"] for s in manifest["stages"]}
    with (outdir / "disruption.csv").open(newline="", encoding="utf-8") as fh:
        undefined = sum(1 for r in csv.DictReader(fh) if r["D"] == "")
    with (outdir / "clusters.csv").open(newline="", encoding="utf-8") as fh:
        written = {(r["author_key"], r["paper_id"])
                   for r in csv.DictReader(fh)}
    corpus = load_corpus(config.corpus_paths(),
                         year_range=tuple(config["year_range"]))
    mentions = {(key, pid) for pid, paper in corpus.papers.items()
                for key in paper.author_keys}
    assert written <= mentions
    assert counts["disruption"] == {"undefined_D": undefined}
    assert counts["authors"] == {"excluded_mentions":
                                 len(mentions - written)}
    assert undefined > 0 and len(mentions - written) > 0


def test_manifest_counts_selfcite_and_matching_exclusions(tmp_path,
                                                         pipeline_files):
    # P1-J9 publishes nothing (undefined psi); P3-J2 names no publisher
    # and leaves P3-J1 alone in P3 (both excluded); no other journal
    # shares P1-J1's second category (an unmatched category)
    with pipeline_files["journals"].open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        if row[0] == "P1-J1":
            row[3] += "|99"
        if row[0] == "P3-J2":
            row[2] = ""
    rows.append(["P1-J9", "", "P1", "00", "false"])
    files = dict(pipeline_files, journals=tmp_path / "journals.csv")
    write_csv(files["journals"], rows[0], rows[1:])
    outdir = tmp_path / "out"
    config = load_config(write_pipeline_config(
        tmp_path, files, outdir,
        extra={"stages": ["impact", "matching", "selfcite"]}))
    assert all(r.status == "ok" for r in run_pipeline(config))
    manifest = json.loads((outdir / "manifest.json").read_text())
    counts = {s["name"]: s["counts"] for s in manifest["stages"]}

    _header, matches = figure_rows(outdir / "matches.csv")
    unmatched = sum(1 for r in matches if r["uj_id"] == "")
    corpus = load_corpus(config.corpus_paths())
    members = oracles.publisher_journals_reference(corpus)
    _header, scores = figure_rows(outdir / "solidarity.csv")
    excluded = sum(1 for r in scores if len(members.get(
        corpus.journals[r["journal_id"]].publisher_id, ())) < 2)
    undefined = sum(1 for r in scores if r["psi"] == "") - excluded
    assert counts["matching"] == {"unmatched_categories": unmatched}
    assert counts["selfcite"] == {"undefined_psi": undefined,
                                  "excluded_psi": excluded}
    assert (unmatched, undefined, excluded) == (1, 1, 2)


def test_disruption_journal_means_equal_oracle_means(tmp_path,
                                                     pipeline_files):
    outdir = tmp_path / "out"
    config = load_config(write_pipeline_config(
        tmp_path, pipeline_files, outdir,
        extra={"stages": ["impact", "matching", "disruption"],
               "disruption": {"by_journal": True}}))
    assert all(r.status == "ok" for r in run_pipeline(config))
    with (outdir / "disruption_journal.csv").open(
            newline="", encoding="utf-8") as fh:
        written = {r["journal_id"]: float(r["mean_D"])
                   for r in csv.DictReader(fh)}
    corpus = load_corpus(config.corpus_paths(),
                         year_range=tuple(config["year_range"]))
    values = {}
    for pid in sorted(corpus.papers):
        d = oracles.disruption_oracle(corpus, pid)
        if d is not None:
            values.setdefault(corpus.papers[pid].journal_id, []).append(d)
    assert written == {j: sum(v) / len(v) for j, v in values.items()}
    assert len(written) > 1


def test_impact_only_writes_exactly_impact_and_manifest(tmp_path,
                                                        pipeline_files):
    outdir = tmp_path / "out"
    config_path = write_pipeline_config(
        tmp_path, pipeline_files, outdir,
        extra={"stages": ["impact"], "impact": {"market_share": False}})
    results = run_pipeline(load_config(config_path))
    assert [r.status for r in results] == ["ok"]
    produced = sorted(p.name for p in outdir.iterdir())
    assert produced == ["impact.csv", "manifest.json"]


def test_write_csv_failure_keeps_previous_file(tmp_path):
    target = tmp_path / "out.csv"
    write_csv(target, ["a"], [(1,), (2,)])
    before = target.read_bytes()

    def rows():
        yield (3,)
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError, match="row source failed"):
        write_csv(target, ["a"], rows())
    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_write_csv_equals_per_cell_writer(tmp_path):
    import numpy as np

    rows = [
        (None, -0.0, float("nan"), 7, True, "a,b", np.float64(0.1)),
        (1.5, float("inf"), None, -3, False, 'say "hi"', None),
        (2, float("-inf"), 1e-300, None, None, "two\nlines", np.float64(-0.0)),
        (0.1 + 0.2, 5e-324, 3.0, 0, np.int64(4), "", np.float32(0.1)),
    ]
    header = ["a", "b", "c", "d", "e", "f", "g"]
    write_csv(tmp_path / "columns.csv", header, rows)
    oracles.write_csv_per_cell(tmp_path / "cells.csv", header, rows)
    assert (tmp_path / "columns.csv").read_bytes() == \
        (tmp_path / "cells.csv").read_bytes()
    write_csv(tmp_path / "empty.csv", header, [])
    assert (tmp_path / "empty.csv").read_bytes() == b"a,b,c,d,e,f,g\n"


def test_rerun_is_byte_identical(tmp_path, pipeline_files):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    config_a = write_pipeline_config(tmp_path, pipeline_files, out_a)
    run_pipeline(load_config(config_a))
    config_b = tmp_path / "config_b.yaml"
    config_b.write_text(config_a.read_text().replace(str(out_a), str(out_b)),
                        encoding="utf-8")
    run_pipeline(load_config(config_b))
    a, b = read_outputs(out_a), read_outputs(out_b)
    assert set(a) == set(b)
    for name in a:
        assert a[name] == b[name], name


def manifest_without_timing(outdir):
    """manifest.json less what a worker count may change: the seconds
    and the threads setting."""
    manifest = json.loads((Path(outdir) / "manifest.json").read_text())
    del manifest["threads"]
    del manifest["load"]["seconds"]
    del manifest["graph"]["seconds"]
    for stage in manifest["stages"]:
        del stage["seconds"]
    return manifest


def run_at(tmp_path, pipeline_files, threads):
    """One full pipeline run at ``threads``: (results, CSVs, manifest)."""
    outdir = tmp_path / f"t{threads}"
    config_path = write_pipeline_config(
        tmp_path, pipeline_files, outdir, extra={"threads": threads})
    results = run_pipeline(load_config(config_path))
    return results, read_outputs(outdir), manifest_without_timing(outdir)


def spy_on_forks(monkeypatch):
    """Record the start method of every context the pipeline asks
    multiprocessing for."""
    methods = []
    real = multiprocessing.get_context

    def get_context(method=None):
        methods.append(method)
        return real(method)

    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    return methods


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="no fork on this platform")


def test_thread_count_does_not_change_outputs(tmp_path, pipeline_files):
    runs = {}
    for threads in (1, 2, 4):
        results, outputs, manifest = run_at(tmp_path, pipeline_files, threads)
        assert all(r.status == "ok" for r in results)
        assert multiprocessing.active_children() == []
        runs[threads] = outputs, manifest
    assert runs[2] == runs[1]
    assert runs[4] == runs[1]


@needs_fork
def test_forked_workers_equal_serial(tmp_path, pipeline_files, monkeypatch):
    # selfcite finishes last in a pool and jnet raises inside its worker:
    # the results still come in stage order, the failure as in process
    real_selfcite = pipeline_mod._STAGE_FNS["selfcite"]

    def slow_selfcite(ctx):
        time.sleep(0.5)
        return real_selfcite(ctx)

    def failing_jnet(ctx):
        raise ValueError("no network")

    monkeypatch.setitem(pipeline_mod._STAGE_FNS, "selfcite", slow_selfcite)
    monkeypatch.setitem(pipeline_mod._STAGE_FNS, "jnet", failing_jnet)
    serial = run_at(tmp_path, pipeline_files, 1)
    methods = spy_on_forks(monkeypatch)
    for threads in (2, 4):
        results, outputs, manifest = run_at(tmp_path, pipeline_files, threads)
        assert multiprocessing.active_children() == []
        assert [r.name for r in results] == list(pipeline_mod.STAGES)
        assert [(r.status, r.error) for r in results] == \
            [(r.status, r.error) for r in serial[0]]
        assert (outputs, manifest) == serial[1:]
    # one pool per run, for the wave after matching
    assert methods == ["fork", "fork"]
    jnet = next(r for r in serial[0] if r.name == "jnet")
    assert (jnet.status, jnet.error) == ("failed", "ValueError: no network")
    assert serial[2]["partial"] is True


def test_process_with_threads_is_not_forked(tmp_path, pipeline_files,
                                            monkeypatch):
    _results, serial, _manifest = run_at(tmp_path, pipeline_files, 1)
    methods = spy_on_forks(monkeypatch)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        _results, outputs, _manifest = run_at(tmp_path, pipeline_files, 2)
    finally:
        release.set()
        other.join(timeout=30)
    assert not other.is_alive()
    assert methods == []
    assert outputs == serial


@needs_fork
def test_dead_worker_fails_the_stages_without_a_result(tmp_path,
                                                       pipeline_files,
                                                       monkeypatch):
    monkeypatch.setitem(pipeline_mod._STAGE_FNS, "novelty",
                        lambda ctx: os._exit(3))
    results, _outputs, manifest = run_at(tmp_path, pipeline_files, 2)
    assert multiprocessing.active_children() == []
    status = {r.name: (r.status, r.error) for r in results}
    assert status["impact"] == status["matching"] == ("ok", "")
    assert status["novelty"][0] == "failed"
    assert status["novelty"][1].startswith("BrokenProcessPool: ")
    # a pool mate runs to the end or dies with the pool
    for name in ("selfcite", "jnet", "disruption", "authors"):
        assert status[name] == ("ok", "") or \
            status[name] == ("failed", status["novelty"][1])
    assert manifest["partial"] is True
    assert [s["name"] for s in manifest["stages"]] == \
        list(pipeline_mod.STAGES)


def test_config_hash_changes_iff_config_changes(tmp_path, pipeline_files):
    path_a = write_pipeline_config(tmp_path, pipeline_files, tmp_path / "o")
    hash_a = config_hash(load_config(path_a))
    assert hash_a == config_hash(load_config(path_a))
    path_b = write_pipeline_config(tmp_path, pipeline_files, tmp_path / "o",
                                   extra={"seed": 34})
    assert config_hash(load_config(path_b)) != hash_a
    # neither the worker count, the output directory nor the stages run
    # changes a result
    path_c = write_pipeline_config(tmp_path, pipeline_files, tmp_path / "p",
                                   extra={"threads": 4, "stages": ["impact"]})
    assert config_hash(load_config(path_c)) == hash_a


@pytest.mark.parametrize("threads", [1, 2])
def test_a_failed_table_fails_only_the_stages_that_read_it(
        tmp_path, pipeline_files, threads):
    outdir = tmp_path / "out"
    # a reference year without citations leaves no normalization table,
    # so normalized impact builds no control registry
    config_path = write_pipeline_config(
        tmp_path, pipeline_files, outdir,
        extra={"impact": {"reference_year": 1890}, "threads": threads})
    results = {r.name: r for r in run_pipeline(load_config(config_path))}
    error = ("ConfigError: normalized impact needs a normalization table: "
             "no citations received in 1890")
    for name in ("impact", "novelty", "disruption"):
        assert (results[name].status, results[name].error) == ("ok", "")
    for name in ("matching", "selfcite", "jnet", "authors"):
        assert (results[name].status, results[name].error) == \
            ("failed", error)
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["partial"] is True
    # completed outputs are retained
    for name in ("impact.csv", "novelty.csv", "disruption.csv"):
        assert (outdir / name).exists()
    assert not (outdir / "matches.csv").exists()


def test_a_matching_year_outside_the_impact_years_fails_validation(
        tmp_path, pipeline_files, capsys):
    # the impact years are 2001 and 2002
    outdir = tmp_path / "out"
    config_path = write_pipeline_config(tmp_path, pipeline_files, outdir,
                                        extra={"matching": {"year": 2000}})
    error = "matching.year 2000 is not covered by the impact stage years"
    assert load_config(config_path).validate() == [error]
    assert cli_main(["validate", "--config", str(config_path)]) == 2
    assert error in capsys.readouterr().err
    assert cli_main(["run", "--config", str(config_path)]) == 2
    assert error in capsys.readouterr().err
    assert not outdir.exists()          # no stage ran, no CSV written
    # the rule holds only for the stages that read the matched controls
    config_path = write_pipeline_config(
        tmp_path, pipeline_files, outdir,
        extra={"matching": {"year": 2000}, "stages": ["impact", "novelty"]})
    assert load_config(config_path).validate() == []


def test_validation_requires_existing_paths(tmp_path, pipeline_files):
    config_path = write_pipeline_config(
        tmp_path, pipeline_files, tmp_path / "o",
        extra={"corpus": {"papers": "missing.jsonl",
                          "journals": str(pipeline_files["journals"]),
                          "publishers": str(pipeline_files["publishers"])}})
    with pytest.raises(ConfigError):
        run_pipeline(load_config(config_path))


def test_rate_query_file_rows(tmp_path, pipeline_files):
    query_file = tmp_path / "queries.yaml"
    query_file.write_text(
        "- {source: P1-J1, targets: [P2], kind: reference}\n"
        "- {source: P1, targets: [P1-J2], window: [2001, 2002]}\n",
        encoding="utf-8")
    outdir = tmp_path / "out"
    config_path = write_pipeline_config(
        tmp_path, pipeline_files, outdir,
        extra={"stages": ["impact", "matching", "selfcite"],
               "selfcite": {"query_file": str(query_file)}})
    run_pipeline(load_config(config_path))
    with (outdir / "rates.csv").open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    targets = {(r["source"], r["target"], r["kind"]) for r in rows}
    assert ("P1-J1", "P2", "reference") in targets
    assert ("P1", "P1-J2", "citation") in targets


def run_queries(tmp_path, pipeline_files, text):
    """CLI run of impact, matching and selfcite with ``text`` as the query
    file: (exit code, outdir)."""
    query_file = tmp_path / "queries.yaml"
    query_file.write_text(text, encoding="utf-8")
    outdir = tmp_path / "out"
    config_path = write_pipeline_config(
        tmp_path, pipeline_files, outdir,
        extra={"stages": ["impact", "matching", "selfcite"],
               "selfcite": {"query_file": str(query_file)}})
    return cli_main(["run", "--config", str(config_path)]), outdir


@pytest.mark.parametrize("query, message", [
    ("{source: P1-J1, targets: [P2], kind: citations}",
     "kind must be citation or reference, not 'citations'"),
    ("{source: P1-J1}", "targets missing"),
    ("{targets: [P2]}", "source missing"),
    ("{source: P1-J1, targets: [P2], window: [2001]}",
     "window must be null or two integer years [lo, hi] with lo <= hi, "
     "not [2001]"),
    ("{source: P1-J1, targets: [P2], window: [2001, x]}",
     "window must be null or two integer years [lo, hi] with lo <= hi"),
    ("{source: P1-J1, targets: [P2], window: [2003, 2001]}",
     "window must be null or two integer years [lo, hi] with lo <= hi, "
     "not [2003, 2001]"),
    ("{source: P1-J1, targets: [P2], windows: [2001, 2002]}",
     "unknown key 'windows'"),
    ("{source: P1-J1, targets: []}", "source and targets must be ids"),
    ("{source: 2017, targets: P2}", "source and targets must be ids"),
    ("P1-J1", "source missing"),
])
def test_malformed_rate_query_fails_validation(tmp_path, pipeline_files,
                                               capsys, query, message):
    code, outdir = run_queries(
        tmp_path, pipeline_files,
        f"- {{source: P1, targets: P2}}\n- {query}\n")
    assert code == 2
    err = capsys.readouterr().err
    assert "selfcite.query_file: query 2" in err and message in err
    assert "query 1" not in err
    assert not outdir.exists()


def test_rate_queries_are_numbered_by_their_place_in_the_file(
        tmp_path, pipeline_files):
    query_file = tmp_path / "queries.yaml"
    query_file.write_text("- {source: P1}\n- {source: P9, targets: P2}\n",
                          encoding="utf-8")
    config = load_config(write_pipeline_config(
        tmp_path, pipeline_files, tmp_path / "out",
        extra={"selfcite": {"query_file": str(query_file)}}))
    queries, errors = config.rate_queries
    assert [n for n, _query in queries] == [2]
    assert errors == ["selfcite.query_file: query 1: targets missing"]


@pytest.mark.parametrize("query", ["{source: P9-J9, targets: [P2]}",
                                   "{source: P1-J1, targets: [P2, P9]}"])
def test_rate_query_with_unknown_id_is_skipped(tmp_path, pipeline_files,
                                               query):
    code, outdir = run_queries(
        tmp_path, pipeline_files,
        f"- {{source: P1, targets: P2}}\n- {query}\n"
        f"- {{source: P2, targets: P1, kind: reference}}\n")
    assert code == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    selfcite = next(s for s in manifest["stages"] if s["name"] == "selfcite")
    assert selfcite["status"] == "ok"
    unknown = "P9-J9" if "P9-J9" in query else "P9"
    assert selfcite["skipped"] == {
        "query 2": f"unknown journal or publisher id: {unknown!r}"}
    _header, rows = figure_rows(outdir / "rates.csv")
    queried = {(r["source"], r["target"], r["kind"]) for r in rows
               if r["target"] in ("P1", "P2")}
    assert queried == {("P1", "P2", "citation"), ("P2", "P1", "reference")}


def test_cli_query_file_resolved_beside_config(tmp_path, pipeline_files,
                                               monkeypatch):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    queries = run_dir / "queries.yaml"
    queries.write_text("- {source: P1-J1, targets: [P2], kind: reference}\n",
                       encoding="utf-8")
    write_pipeline_config(
        run_dir, pipeline_files, tmp_path / "out",
        extra={"stages": ["impact", "matching", "selfcite"],
               "selfcite": {"query_file": "queries.yaml"}})
    monkeypatch.chdir(tmp_path)
    assert cli_main(["run", "--config", "run/config.yaml"]) == 0
    with (tmp_path / "out" / "rates.csv").open(newline="",
                                               encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert ("P1-J1", "P2", "reference") in {
        (r["source"], r["target"], r["kind"]) for r in rows}
    queries.unlink()
    assert cli_main(["run", "--config", "run/config.yaml"]) == 2


def test_cli_run_invalid_config_exit_2(tmp_path, pipeline_files):
    from citnet.cli import main as cli_main

    config_path = write_pipeline_config(
        tmp_path, pipeline_files, tmp_path / "o",
        extra={"corpus": {"papers": "gone.jsonl",
                          "journals": str(pipeline_files["journals"]),
                          "publishers": str(pipeline_files["publishers"])}})
    assert cli_main(["run", "--config", str(config_path)]) == 2


def test_authors_stage_requires_weights(tmp_path, pipeline_files):
    config_path = write_pipeline_config(
        tmp_path, pipeline_files, tmp_path / "o",
        extra={"authors": {"weights": None}})
    errors = load_config(config_path).validate()
    assert any("weights" in e for e in errors)


def figure_rows(path):
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return reader.fieldnames, list(reader)


def test_emit_figure_2f_contract(full_run):
    config, outdir, _results = full_run
    path = emit_plot_data(config, outdir, "2F")
    header, rows = figure_rows(path)
    assert header == ["qj_id", "psi_ratio", "relative_publisher_size",
                      "qj_impact"]
    assert rows
    for row in rows:
        assert float(row["psi_ratio"]) > 0


def test_figure_2f_leaves_out_a_control_whose_psi_is_zero(tmp_path):
    """P2-J1 makes no reference into its publisher but is cited from it,
    so its psi is 0.0 with status ok; the pair it controls has no ratio."""
    corpus = small_pipeline_corpus()
    own = set(corpus.publisher_journals["P2"])
    papers = {pid: replace(p, references=tuple(
                  r for r in p.references if r not in corpus.papers
                  or corpus.papers[r].journal_id not in own))
              if p.journal_id == "P2-J1" else p
              for pid, p in corpus.papers.items()}
    files = corpus_to_files(Corpus(papers, corpus.journals,
                                   corpus.publishers,
                                   year_range=corpus.year_range),
                            tmp_path / "corpus")
    outdir = tmp_path / "out"
    config_path = write_pipeline_config(
        tmp_path, files, outdir,
        extra={"stages": ["impact", "matching", "selfcite"]})
    assert cli_main(["run", "--config", str(config_path)]) == 0
    _header, matches = figure_rows(outdir / "matches.csv")
    assert [(m["qj_id"], m["uj_id"]) for m in matches] == [("P1-J1",
                                                             "P2-J1")]
    _header, scores = figure_rows(outdir / "solidarity.csv")
    assert {r["journal_id"]: r["psi"] for r in scores}["P2-J1"] == "0.0"
    assert cli_main(["report", "--config", str(config_path),
                     "--figure", "2F"]) == 0
    _header, rows = figure_rows(outdir / "figures" / "figure_2F.csv")
    assert rows == []


SMALL_SYNTH = {"journals_per_publisher": 2,
               "component_size_range": [60, 80], "out_degree_mean": 6.0,
               "out_degree_std": 2.0, "ensemble_count": 2,
               "rewire_fraction": 1.0}


def test_emit_figure_s18_passthrough(tmp_path, pipeline_files):
    outdir = tmp_path / "out"
    config = load_config(write_pipeline_config(
        tmp_path, pipeline_files, outdir, extra={"synth": SMALL_SYNTH}))
    run_synth(config)
    path = emit_plot_data(config, outdir, "S18")
    header, rows = figure_rows(path)
    assert header == ["checkpoint", "journal", "rate", "psi_ratio_mean",
                      "psi_ratio_std"]
    assert rows


def test_emit_unknown_figure_rejected(full_run):
    config, outdir, _results = full_run
    with pytest.raises(KeyError):
        emit_plot_data(config, outdir, "9Z")


def test_emit_missing_stage_named(tmp_path, pipeline_files):
    outdir = tmp_path / "out"
    config_path = write_pipeline_config(tmp_path, pipeline_files, outdir,
                                        extra={"stages": ["impact"]})
    config = load_config(config_path)
    run_pipeline(config)
    with pytest.raises(FileNotFoundError) as err:
        emit_plot_data(config, outdir, "4C")
    assert "disruption" in str(err.value)


def test_remaining_figures(full_run):
    config, outdir, _results = full_run
    for figure_id in ("2B", "2C", "2D", "2E", "3", "4A", "4B", "4C", "4D"):
        path = emit_plot_data(config, outdir, figure_id)
        _header, rows = figure_rows(path)
        assert rows, figure_id


# -- command line -------------------------------------------------------------


def test_cli_validate_ok(tmp_path, pipeline_files, capsys):
    config_path = write_pipeline_config(tmp_path, pipeline_files,
                                        tmp_path / "o")
    assert cli_main(["validate", "--config", str(config_path)]) == 0
    assert "corpus clean" in capsys.readouterr().out


def test_cli_validate_bad_config_exit_2(tmp_path, pipeline_files):
    config_path = write_pipeline_config(
        tmp_path, pipeline_files, tmp_path / "o",
        extra={"corpus": {"papers": "nope.jsonl",
                          "journals": str(pipeline_files["journals"]),
                          "publishers": str(pipeline_files["publishers"])}})
    assert cli_main(["validate", "--config", str(config_path)]) == 2


def test_cli_run_and_report(tmp_path, pipeline_files, capsys):
    outdir = tmp_path / "out"
    config_path = write_pipeline_config(
        tmp_path, pipeline_files, outdir,
        extra={"stages": ["impact", "matching", "selfcite"]})
    assert cli_main(["run", "--config", str(config_path)]) == 0
    assert cli_main(["report", "--config", str(config_path),
                     "--figure", "2F"]) == 0
    assert (outdir / "figures" / "figure_2F.csv").exists()
    assert cli_main(["report", "--config", str(config_path),
                     "--figure", "XX"]) == 1


def test_cli_report_refuses_outputs_of_another_config(tmp_path,
                                                     pipeline_files, capsys):
    outdir = tmp_path / "out"
    config_path = write_pipeline_config(
        tmp_path, pipeline_files, outdir,
        extra={"stages": ["impact", "matching", "selfcite"]})
    report = ["report", "--config", str(config_path), "--figure", "2F"]
    assert cli_main(report) == 2
    assert "no " in capsys.readouterr().err
    assert cli_main(["run", "--config", str(config_path), "--threads", "2"]) == 0
    assert cli_main(report + ["--threads", "3"]) == 0
    (tmp_path / "other").mkdir()
    other = write_pipeline_config(
        tmp_path / "other", pipeline_files, outdir,
        extra={"stages": ["impact", "matching", "selfcite"], "seed": 34})
    assert cli_main(["report", "--config", str(other), "--figure", "2F"]) == 2
    assert "records another config's hash" in capsys.readouterr().err
    # the synth panels are checked against the manifest of citnet synth
    (outdir / "synth_psi_scenarios.csv").write_text(
        "scenario,sweep_value,psi\na,0.1,1.0\n", encoding="utf-8")
    assert cli_main(["report", "--config", str(other), "--figure", "S15"]) == 2
    assert "synth_manifest.json" in capsys.readouterr().err
    (outdir / "synth_manifest.json").write_text(json.dumps(
        {"config_hash": config_hash(load_config(other))}), encoding="utf-8")
    assert cli_main(["report", "--config", str(other), "--figure", "S15"]) == 0
    assert cli_main(["report", "--config", str(config_path),
                     "--figure", "S15"]) == 2


def test_cli_match_with_diagnostics(tmp_path, pipeline_files, capsys):
    outdir = tmp_path / "out"
    config_path = write_pipeline_config(tmp_path, pipeline_files, outdir)
    assert cli_main(["match", "--config", str(config_path),
                     "--diagnose"]) == 0
    out = capsys.readouterr().out
    assert "terciles" in out and "log_sigma" in out and "quartiles" in out
    assert (outdir / "matches.csv").exists()
    assert not (outdir / "solidarity.csv").exists()


def test_cli_net(tmp_path, pipeline_files):
    outdir = tmp_path / "out"
    config_path = write_pipeline_config(tmp_path, pipeline_files, outdir)
    assert cli_main(["net", "--config", str(config_path)]) == 0
    assert (outdir / "centrality_PR_2001_2citation.csv").exists()
    # net runs a subset of the configured stages under the same hash
    assert cli_main(["report", "--config", str(config_path),
                     "--figure", "3"]) == 0
    assert (outdir / "figures" / "figure_3.csv").exists()


def test_cli_synth_small(tmp_path, pipeline_files):
    outdir = tmp_path / "out"
    config_path = write_pipeline_config(tmp_path, pipeline_files, outdir,
                                        extra={"synth": SMALL_SYNTH})
    assert cli_main(["synth", "--config", str(config_path)]) == 0
    assert (outdir / "synth_psi_scenarios.csv").exists()
    assert (outdir / "synth_psi_rewire.csv").exists()


def test_synth_run_writes_its_own_manifest(tmp_path, pipeline_files):
    outdir = tmp_path / "out"
    config_path = write_pipeline_config(
        tmp_path, pipeline_files, outdir,
        extra={"synth": SMALL_SYNTH, "stages": ["impact"]})
    report = ["report", "--config", str(config_path), "--figure", "S15"]
    assert cli_main(["synth", "--config", str(config_path)]) == 0
    written = (outdir / "synth_manifest.json").read_bytes()
    recorded = json.loads(written)
    seconds = recorded["seconds"]
    assert recorded == {
        "config_hash": config_hash(load_config(config_path)),
        "version": citnet.__version__,
        "threads": 1,
        "seconds": {"scenarios": seconds["scenarios"],
                    "experiment": seconds["experiment"]}}
    assert all(isinstance(t, float) and t >= 0 for t in seconds.values())
    assert seconds["experiment"] > 0
    assert cli_main(report) == 0
    # a pipeline run in the same directory leaves it as it was
    assert cli_main(["run", "--config", str(config_path)]) == 0
    assert (outdir / "synth_manifest.json").read_bytes() == written
    assert cli_main(report) == 0
    (tmp_path / "other").mkdir()
    other = write_pipeline_config(
        tmp_path / "other", pipeline_files, outdir,
        extra={"synth": SMALL_SYNTH, "seed": 34})
    assert cli_main(["report", "--config", str(other), "--figure", "S18"]) == 2


def test_cli_seed_and_out_overrides(tmp_path, pipeline_files):
    outdir = tmp_path / "other"
    config_path = write_pipeline_config(tmp_path, pipeline_files,
                                        tmp_path / "ignored",
                                        extra={"stages": ["impact"]})
    assert cli_main(["run", "--config", str(config_path), "--seed", "99",
                     "--threads", "2", "--out", str(outdir)]) == 0
    assert (outdir / "impact.csv").exists()
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["seed"] == 99
    assert manifest["threads"] == 2


@pytest.mark.parametrize("threads", ["two", 0, -3, 1.5, True])
def test_unusable_thread_counts_fail_validation(tmp_path, pipeline_files,
                                                threads):
    config_path = write_pipeline_config(tmp_path, pipeline_files,
                                        tmp_path / "o",
                                        extra={"threads": threads})
    assert load_config(config_path).validate() == \
        [f"threads must be an integer >= 1, not {threads!r}"]
    assert cli_main(["validate", "--config", str(config_path)]) == 2
    assert cli_main(["run", "--config", str(config_path)]) == 2
    assert cli_main(["synth", "--config", str(config_path)]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("seed", ["abc", -1, True, 1.5, "3"])
def test_unusable_seeds_fail_validation(tmp_path, pipeline_files, seed):
    config_path = write_pipeline_config(tmp_path, pipeline_files,
                                        tmp_path / "o", extra={"seed": seed})
    assert load_config(config_path).validate() == \
        [f"seed must be an integer >= 0, not {seed!r}"]
    for command in ("validate", "run", "synth"):
        assert cli_main([command, "--config", str(config_path)]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("extra, message", [
    ({"matching": {"impact_kind": "norm"}},
     "matching.impact_kind must be normalized or raw, not 'norm'"),
    ({"jnet": {"link_types": ["citation", "refs"]}},
     "jnet.link_types must be a list drawn from citation and reference, "
     "not ['citation', 'refs']"),
    ({"jnet": {"link_types": "citation"}},
     "jnet.link_types must be a list drawn from citation and reference, "
     "not 'citation'")])
def test_unusable_matching_and_link_settings_fail_validation(
        tmp_path, pipeline_files, extra, message):
    config_path = write_pipeline_config(tmp_path, pipeline_files,
                                        tmp_path / "o", extra=extra)
    assert load_config(config_path).validate() == [message]
    for command in ("validate", "run", "match"):
        assert cli_main([command, "--config", str(config_path)]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["validate", "run", "synth"])
def test_cli_threads_override_is_validated(tmp_path, pipeline_files, command):
    config_path = write_pipeline_config(tmp_path, pipeline_files,
                                        tmp_path / "o",
                                        extra={"synth": SMALL_SYNTH})
    for threads in ("0", "-3"):
        assert cli_main([command, "--config", str(config_path),
                         "--threads", threads]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("count", [0, -2, 1.5, True, "3"])
def test_unusable_synth_ensemble_count_writes_nothing(tmp_path,
                                                      pipeline_files, count):
    outdir = tmp_path / "o"
    config_path = write_pipeline_config(
        tmp_path, pipeline_files, outdir,
        extra={"synth": dict(SMALL_SYNTH, ensemble_count=count)})
    message = f"synth.ensemble_count must be an integer >= 1, not {count!r}"
    assert load_config(config_path).validate() == [message]
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        run_synth(load_config(config_path))
    assert cli_main(["synth", "--config", str(config_path)]) == 2
    assert not outdir.exists()


@pytest.mark.parametrize("bad, message", [
    ({"component_size_range": [50, 10]},
     "synth: empty component size range"),
    ({"component_size_range": [50, 10], "baseline_rate": 2.0},
     "synth: empty component size range; synth: rates must lie in [0, 1]"),
    ({"out_degree_std": -1.0},
     "synth: out-degree std must not be negative"),
    ({"rewire_fraction": -1.0},
     "synth: rewire fraction -1 is below every checkpoint")])
def test_unusable_synth_section_writes_nothing(tmp_path, pipeline_files,
                                               bad, message):
    outdir = tmp_path / "o"
    outdir.mkdir()
    config_path = write_pipeline_config(
        tmp_path, pipeline_files, outdir,
        extra={"synth": dict(SMALL_SYNTH, **bad)})
    assert "; ".join(load_config(config_path).validate()) == message
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        run_synth(load_config(config_path))
    assert cli_main(["synth", "--config", str(config_path)]) == 2
    assert list(outdir.iterdir()) == []


def test_validate_checks_the_synth_section(tmp_path, pipeline_files, capsys):
    """The corpus is clean; the synth section alone fails every command
    that checks the config, before anything is written."""
    outdir = tmp_path / "o"
    config_path = write_pipeline_config(
        tmp_path, pipeline_files, outdir,
        extra={"synth": {"component_size_range": [50, 10]}})
    assert load_config(config_path).validate() == [
        "synth: empty component size range"]
    capsys.readouterr()
    assert cli_main(["validate", "--config", str(config_path)]) == 2
    assert "config: synth: empty component size range" in \
        capsys.readouterr().err
    for command in ("run", "synth"):
        assert cli_main([command, "--config", str(config_path)]) == 2
    assert not outdir.exists()


def test_synth_publisher_count_is_an_unknown_key(tmp_path, pipeline_files):
    config_path = write_pipeline_config(
        tmp_path, pipeline_files, tmp_path / "o",
        extra={"synth": {"publisher_count": 5}})
    with pytest.raises(ConfigError,
                       match=r"^unknown config key synth\.publisher_count;"):
        load_config(config_path)
    assert cli_main(["validate", "--config", str(config_path)]) == 2
    assert cli_main(["synth", "--config", str(config_path)]) == 2
    assert not (tmp_path / "o").exists()


# -- synth ensembles in forked workers -----------------------------------------


def synth_run_at(tmp_path, pipeline_files, threads, ensembles):
    """One run_synth at ``threads``: (CSVs, manifest less seconds and
    threads)."""
    outdir = tmp_path / f"synth_t{threads}_e{ensembles}"
    config_path = write_pipeline_config(
        tmp_path, pipeline_files, outdir,
        extra={"threads": threads,
               "synth": dict(SMALL_SYNTH, ensemble_count=ensembles)})
    run_synth(load_config(config_path))
    manifest = json.loads((outdir / "synth_manifest.json").read_text())
    assert manifest.pop("threads") == threads
    del manifest["seconds"]
    return read_outputs(outdir), manifest


@pytest.mark.parametrize("ensembles", [1, 2, 3])
def test_synth_worker_count_does_not_change_outputs(tmp_path, pipeline_files,
                                                    ensembles):
    runs = []
    for threads in (1, 2, 3):
        runs.append(synth_run_at(tmp_path, pipeline_files, threads,
                                 ensembles))
        assert multiprocessing.active_children() == []
    assert runs[0][0]["synth_psi_rewire.csv"].count(b"\n") > 1
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


@needs_fork
def test_synth_run_makes_one_fork_pool(tmp_path, pipeline_files, monkeypatch):
    serial = synth_run_at(tmp_path, pipeline_files, 1, 3)
    methods = spy_on_forks(monkeypatch)
    assert synth_run_at(tmp_path, pipeline_files, 2, 3) == serial
    assert multiprocessing.active_children() == []
    assert methods == ["fork"]


def test_synth_in_a_process_with_threads_is_not_forked(tmp_path,
                                                       pipeline_files,
                                                       monkeypatch):
    serial = synth_run_at(tmp_path, pipeline_files, 1, 2)
    methods = spy_on_forks(monkeypatch)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        pooled = synth_run_at(tmp_path, pipeline_files, 2, 2)
    finally:
        release.set()
        other.join(timeout=30)
    assert not other.is_alive()
    assert methods == []
    assert pooled == serial


@needs_fork
def test_dead_synth_worker_raises_and_writes_no_manifest(tmp_path,
                                                         pipeline_files,
                                                         monkeypatch):
    parent = os.getpid()
    real = synth_mod._ensemble_ratios

    def dying(*args):
        if os.getpid() != parent:
            os._exit(3)
        return real(*args)

    monkeypatch.setattr(synth_mod, "_ensemble_ratios", dying)
    outdir = tmp_path / "out"
    config_path = write_pipeline_config(
        tmp_path, pipeline_files, outdir,
        extra={"threads": 2, "synth": SMALL_SYNTH})
    with pytest.raises(BrokenProcessPool):
        run_synth(load_config(config_path))
    assert multiprocessing.active_children() == []
    assert not (outdir / "synth_manifest.json").exists()
    assert not (outdir / "synth_psi_rewire.csv").exists()


def test_unset_threads_is_the_usable_cpu_count(tmp_path, pipeline_files):
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count()
    config = dict(PIPELINE_CONFIG, synth=SMALL_SYNTH,
                  stages=["impact", "matching", "disruption"])
    del config["threads"]
    config["corpus"] = {k: str(v) for k, v in pipeline_files.items()}
    config["output"] = str(tmp_path / "out")
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    assert load_config(config_path)["threads"] == cpus
    run_pipeline(load_config(config_path))
    run_synth(load_config(config_path))
    assert multiprocessing.active_children() == []
    for name in ("manifest.json", "synth_manifest.json"):
        manifest = json.loads((tmp_path / "out" / name).read_text())
        assert manifest["threads"] == cpus


# -- one path per computation --------------------------------------------------


def test_jnet_out_of_range_window_is_skipped_not_fatal(tmp_path,
                                                       pipeline_files):
    outdir = tmp_path / "out"
    config_path = write_pipeline_config(
        tmp_path, pipeline_files, outdir,
        extra={"stages": ["impact", "matching", "jnet"],
               "jnet": {"windows": [2, 5]}})
    assert cli_main(["run", "--config", str(config_path)]) == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    jnet = next(s for s in manifest["stages"] if s["name"] == "jnet")
    assert jnet["status"] == "ok"
    assert list(jnet["skipped"]) == ["2001_5citation"]
    assert "exceeds corpus range end 2003" in jnet["skipped"]["2001_5citation"]
    assert (outdir / "network_2001_2citation.csv").exists()
    assert (outdir / "centrality_CC_2001_2citation.csv").exists()
    assert not list(outdir.glob("*2001_5citation*"))


def test_diagnose_reports_the_matching_year(tmp_path, pipeline_files, capsys):
    # year_range ends in 2003, the last impact year is 2002
    outdir = tmp_path / "out"
    config_path = write_pipeline_config(tmp_path, pipeline_files, outdir,
                                        extra={"matching": {"year": None}})
    assert cli_main(["match", "--config", str(config_path),
                     "--diagnose"]) == 0
    lines = capsys.readouterr().out.splitlines()
    fields = dict(part.split("=") for part in
                  next(l for l in lines if l.startswith("terciles:")).split()[1:])
    with (outdir / "matches.csv").open(newline="", encoding="utf-8") as fh:
        gaps = [float(r["impact_gap"]) for r in csv.DictReader(fh)
                if r["uj_id"]]
    assert gaps
    assert int(fields["matched"]) == len(gaps)
    assert float(fields["mean_impact_gap"]) == pytest.approx(
        sum(gaps) / len(gaps), rel=1e-12)
    assert "matching year 2002" in lines


def test_diagnose_loads_the_corpus_once(tmp_path, pipeline_files, capsys,
                                       monkeypatch):
    outdir = tmp_path / "out"
    config_path = write_pipeline_config(tmp_path, pipeline_files, outdir)
    config = load_config(config_path)
    year, registry = _RunContext(config, load_corpus(
        config.corpus_paths(), year_range=tuple(config["year_range"])),
        outdir).registry
    expected = [f"matching year {year}"] + [
        f"{scheme}: matched={stats['matched']} "
        f"mean_impact_gap={stats['mean_impact_gap']} "
        f"mean_size_gap={stats['mean_size_gap']}"
        for scheme, stats in binning_diagnostics(registry).items()]
    calls = []

    def counting_load(*args, **kwargs):
        calls.append(args)
        return load_corpus(*args, **kwargs)

    monkeypatch.setattr(pipeline_mod, "load_corpus", counting_load)
    monkeypatch.setattr(cli_mod, "load_corpus", counting_load)
    assert cli_main(["match", "--config", str(config_path),
                     "--diagnose"]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out.splitlines()[-len(expected):] == expected


def test_figure_2f_impact_is_from_the_matching_year(tmp_path, pipeline_files):
    outdir = tmp_path / "out"
    config_path = write_pipeline_config(
        tmp_path, pipeline_files, outdir,
        extra={"stages": ["impact", "matching", "selfcite"],
               "impact": {"years": [2002, 2001]},
               "matching": {"year": None}})
    config = load_config(config_path)
    run_pipeline(config)
    _header, rows = figure_rows(emit_plot_data(config, outdir, "2F"))
    _header, impact = figure_rows(outdir / "impact.csv")
    normalized = {(r["journal_id"], int(r["year"])): r["normalized_impact"]
                  for r in impact}
    assert rows
    for row in rows:
        assert normalized[(row["qj_id"], 2001)] != \
            normalized[(row["qj_id"], 2002)]
        assert float(row["qj_impact"]) == float(
            normalized[(row["qj_id"], 2001)])


def test_selfcite_builds_one_count_table_per_window(tmp_path, pipeline_files,
                                                    monkeypatch):
    from citnet import selfcite
    from citnet.corpus import Corpus, load_corpus

    query_file = tmp_path / "queries.yaml"
    query_file.write_text(
        "- {source: P1-J1, targets: [P2], kind: reference}\n"
        "- {source: P1, targets: [P1-J2], window: [2001, 2002]}\n"
        "- {source: P2-J1, targets: [P1, P3], window: [2001, 2002]}\n"
        "- {source: P3-J2, targets: P1-J1, window: [2002, 2002]}\n",
        encoding="utf-8")
    outdir = tmp_path / "out"
    config_path = write_pipeline_config(
        tmp_path, pipeline_files, outdir,
        extra={"stages": ["impact", "matching", "selfcite"],
               "selfcite": {"rate_years": [2001, 2002],
                            "query_file": str(query_file)}})
    config = load_config(config_path)
    windows = []
    aggregate = selfcite.aggregate_citation_counts

    def counting(corpus, window=None):
        windows.append(window)
        return aggregate(corpus, window)

    monkeypatch.setattr(selfcite, "aggregate_citation_counts", counting)
    run_pipeline(config)
    monkeypatch.undo()
    assert sorted(windows, key=str) == sorted(
        [None, (2001, 2001), (2002, 2002), (2001, 2002)], key=str)

    # every rate equals the one computed on its own from the window
    corpus = load_corpus(config.corpus_paths(),
                         year_range=tuple(config["year_range"]))
    _header, matches = figure_rows(outdir / "matches.csv")
    groups = {"qj_group": {j for j in corpus.journals
                           if corpus.journals[j].questionable_flag},
              "uj_group": {m["uj_id"] for m in matches if m["uj_id"]}}
    _header, rows = figure_rows(outdir / "rates.csv")
    assert len(rows) > 4
    publisher_journals = oracles.publisher_journals_reference(corpus)

    def journals(ids):
        return set().union(*({i} if i in corpus.journals
                             else publisher_journals[i] for i in ids))

    for row in rows:
        source, target = row["source"], row["target"]
        if target == "self":
            group = {source}
        elif target == "publisher":
            group = publisher_journals[corpus.journals[source].publisher_id]
        else:
            group = groups.get(target) or journals(target.split("+"))
        expected = oracles.rate_reference(
            corpus, journals([source]), group,
            (int(row["year_start"]), int(row["year_end"])),
            received=row["kind"] == "citation")
        assert row["rate"] == ("" if expected is None else repr(expected))


@pytest.mark.parametrize("kind", ["normalized", "raw"])
def test_reference_year_without_a_table_shows_in_the_manifest(
        tmp_path, pipeline_files, kind):
    stages = ["impact", "matching", "selfcite"]

    def run(name, reference_year):
        outdir = tmp_path / name
        config_path = write_pipeline_config(
            tmp_path, pipeline_files, outdir,
            extra={"stages": stages,
                   "impact": {"reference_year": reference_year},
                   "matching": {"impact_kind": kind}})
        run_pipeline(load_config(config_path))
        return outdir, json.loads((outdir / "manifest.json").read_text())

    outdir, manifest = run("bad", 1990)
    entries = {s["name"]: s for s in manifest["stages"]}
    reason = "no citations received in 1990"
    assert entries["impact"]["status"] == "ok"
    assert entries["impact"]["skipped"] == {"normalization": reason}
    if kind == "normalized":
        assert manifest["partial"] is True
        for name in ("matching", "selfcite"):
            assert entries[name]["status"] == "failed"
            assert reason in entries[name]["error"]
        assert not (outdir / "matches.csv").exists()
    else:
        assert manifest["partial"] is False
        assert [entries[s]["status"] for s in stages] == ["ok"] * 3
        good, good_manifest = run("good", 2002)
        assert good_manifest["stages"][0]["skipped"] == {}
        for name in ("matches.csv", "rates.csv"):
            assert (outdir / name).read_bytes() == (good / name).read_bytes()


def test_partial_author_weights_fail_validation(tmp_path, pipeline_files):
    config_path = write_pipeline_config(
        tmp_path, pipeline_files, tmp_path / "o",
        extra={"authors": {"weights": {"self_citation": 3.0}}})
    assert load_config(config_path).validate() == [
        f"authors.weights.{key} missing from config"
        for key in ("shared_author", "shared_citation", "shared_reference")]
    assert cli_main(["validate", "--config", str(config_path)]) == 2
    assert cli_main(["run", "--config", str(config_path)]) == 2


WEIGHTS = {"self_citation": 1.0, "shared_author": 0.5,
           "shared_citation": 0.2, "shared_reference": 0.2}


@pytest.mark.parametrize("name, value", [
    *[(f"authors.weights.{key}", "half") for key in WEIGHTS],
    ("authors.weights.shared_author", float("nan")),
    ("authors.pair_threshold", "1.0"),
    ("authors.group_threshold", None),
    ("authors.group_threshold", 0),
    ("novelty.ensemble_count", 0),
    ("novelty.ensemble_count", 2.5),
    ("novelty.ensemble_count", True),
    ("novelty.swaps_per_edge", 0),
    ("novelty.swaps_per_edge", -1.0),
    ("novelty.swaps_per_edge", "many"),
])
def test_unusable_numeric_settings_fail_validation(tmp_path, pipeline_files,
                                                   name, value):
    section, *path = name.split(".")
    settings = {"weights": dict(WEIGHTS)} if section == "authors" else {}
    target = settings
    for part in path[:-1]:
        target = target[part]
    target[path[-1]] = value
    config_path = write_pipeline_config(
        tmp_path, pipeline_files, tmp_path / "o",
        extra={"stages": ["impact", "matching", section],
               section: settings})
    errors = load_config(config_path).validate()
    assert len(errors) == 1 and errors[0].startswith(f"{name} must be ")
    assert cli_main(["validate", "--config", str(config_path)]) == 2
    assert cli_main(["run", "--config", str(config_path)]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flagged", [("P1-J1",), ("P1-J1", "P3-J1")])
def test_a_run_builds_each_per_run_table_once(tmp_path, pipeline_files,
                                              monkeypatch, full_run, flagged):
    from collections import Counter

    from citnet import impact, matching

    # the fixture flags P1-J1; a second flagged journal shows that the
    # terciles are assigned once per run, not once per flagged journal
    with pipeline_files["journals"].open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        row[4] = "true" if row[0] in flagged else "false"
    files = dict(pipeline_files, journals=tmp_path / "journals.csv")
    write_csv(files["journals"], rows[0], rows[1:])

    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for module, name in ((impact, "_tally"),
                         (impact, "build_normalization_table"),
                         (impact, "impact_table"),
                         (matching, "_category_terciles"),
                         (matching, "match_all"),
                         (matching, "match_registry")):
        count(module, name)
    path_open = Path.open

    def counted_open(path, *args, **kwargs):
        if path.name == "matches.csv":
            calls["open matches.csv"] += 1
        return path_open(path, *args, **kwargs)
    monkeypatch.setattr(Path, "open", counted_open)

    outdir = tmp_path / "out"
    run_pipeline(load_config(write_pipeline_config(tmp_path, files, outdir)))
    monkeypatch.undo()
    # matches.csv is written, never opened
    assert calls == {"_tally": 1, "build_normalization_table": 1,
                     "impact_table": 1, "_category_terciles": 1,
                     "match_all": 1, "match_registry": len(flagged)}
    if flagged == ("P1-J1",):
        outputs = read_outputs(outdir)
        assert set(ALL_CSVS) <= set(outputs)
        for name, data in outputs.items():
            assert data == (full_run[1] / name).read_bytes()


def test_a_stage_list_without_impact_still_matches(tmp_path, pipeline_files,
                                                   full_run):
    outdir = tmp_path / "out"
    config_path = write_pipeline_config(
        tmp_path, pipeline_files, outdir,
        extra={"stages": ["matching", "selfcite"]})
    results = run_pipeline(load_config(config_path))
    assert [r.status for r in results] == ["ok", "ok"]
    for name in ("matches.csv", "solidarity.csv", "rates.csv"):
        assert (outdir / name).read_bytes() == \
            (full_run[1] / name).read_bytes()


# -- stages share only the run-context tables ----------------------------------


def test_a_stage_list_without_matching_derives_the_matches(
        tmp_path, pipeline_files, full_run):
    outdir = tmp_path / "out"
    config_path = write_pipeline_config(
        tmp_path, pipeline_files, outdir,
        extra={"stages": ["jnet", "selfcite"]})
    results = run_pipeline(load_config(config_path))
    assert [(r.name, r.status) for r in results] == [("selfcite", "ok"),
                                                    ("jnet", "ok")]
    assert not (outdir / "matches.csv").exists()
    for name in ("centrality_comparison.csv", "rates.csv"):
        assert (outdir / name).read_bytes() == \
            (full_run[1] / name).read_bytes()


@pytest.mark.parametrize("threads", [1, 2])
def test_a_stale_matches_file_changes_nothing(tmp_path, pipeline_files,
                                              full_run, threads):
    # a matches.csv left by another run names other controls
    outdir = tmp_path / "out"
    outdir.mkdir()
    header, rows = figure_rows(full_run[1] / "matches.csv")
    journals = sorted({r["qj_id"] for r in rows} | {r["uj_id"] for r in rows})
    journals += ["P3-J1", "P3-J2"]
    for row in rows:
        row["uj_id"] = next(j for j in journals
                            if j not in (row["qj_id"], row["uj_id"]))
    write_csv(outdir / "matches.csv", header,
              [[r[h] for h in header] for r in rows])
    stale = (outdir / "matches.csv").read_bytes()
    assert stale != (full_run[1] / "matches.csv").read_bytes()
    config_path = write_pipeline_config(
        tmp_path, pipeline_files, outdir,
        extra={"stages": ["selfcite", "jnet", "authors"], "threads": threads})
    results = run_pipeline(load_config(config_path))
    assert all(r.status == "ok" for r in results)
    assert (outdir / "matches.csv").read_bytes() == stale
    for name in ("rates.csv", "centrality_comparison.csv",
                 "author_stats.csv"):
        assert (outdir / name).read_bytes() == \
            (full_run[1] / name).read_bytes()


def test_a_full_run_reads_nothing_from_its_output_directory(
        tmp_path, pipeline_files, monkeypatch):
    import builtins
    import io

    outdir = (tmp_path / "out").resolve()
    config = load_config(write_pipeline_config(tmp_path, pipeline_files,
                                               outdir))
    assert config["threads"] == 1
    real_open, reads, opened = io.open, [], []

    def spying_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            path = Path(file).resolve()
            opened.append(path)
            if path.is_relative_to(outdir) and not set(mode) & set("wax+"):
                reads.append(path.name)
        return real_open(file, mode, *args, **kwargs)
    monkeypatch.setattr(io, "open", spying_open)
    monkeypatch.setattr(builtins, "open", spying_open)
    results = run_pipeline(config)
    monkeypatch.undo()
    assert all(r.status == "ok" for r in results)
    # the spy sees the corpus read and every output written
    assert Path(pipeline_files["papers"]).resolve() in opened
    assert any(path.is_relative_to(outdir) for path in opened)
    assert reads == []
