"""The measured process: one fresh interpreter per use.

    python3 worker.py setup <input_dir> <kind>
        import citnet and run the pre-flight a user pays before a run
        (load_corpus + validate_corpus, or config resolution for synth);
        prints the seconds it took.

    python3 worker.py run <input_dir> <kind> <seconds> <trace> <result>
        repeat the workload until the time budget is spent and write
        per-repetition timings (and, with trace 1, per-layer figures) to
        <result> as JSON.

Nothing here imports citnet at module level: the setup probe times the
import itself. The caller puts the package's source tree on PYTHONPATH.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

from checker import read_rows


def setup_seconds(input_dir: Path, kind: str) -> float:
    start = time.perf_counter()
    import citnet
    from citnet.pipeline import load_config
    config = load_config(input_dir / "config.yaml")
    if kind == "pipeline":
        corpus = citnet.load_corpus(config.corpus_paths(),
                                    year_range=tuple(config["year_range"]))
        report = citnet.validate_corpus(corpus)
        if not report.is_clean:
            raise SystemExit(f"generated corpus fails validation: "
                             f"{report.violations[:3]}")
    return time.perf_counter() - start


def _cpu_seconds():
    """CPU seconds of this process and of its waited-for children."""
    return sum(u.ru_utime + u.ru_stime for u in
               map(resource.getrusage, (resource.RUSAGE_SELF,
                                        resource.RUSAGE_CHILDREN)))


def _peak_rss_mb():
    """Peak resident set of this process or its largest waited-for child."""
    return max(resource.getrusage(who).ru_maxrss for who in
               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def output_digest(outdir: Path) -> str:
    """Digest of every CSV output (the manifest holds timings)."""
    h = hashlib.sha256()
    for path in sorted(outdir.rglob("*.csv")):
        h.update(str(path.relative_to(outdir)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _bytes_out(outdir: Path) -> int:
    return sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file())


def _output_ratios(outdir: Path) -> dict:
    """Per-layer ratios read from stage outputs; 0 without the output."""
    out = {"matching.matched_frac": 0.0, "novelty.undefined_pair_frac": 0.0,
           "disruption.undefined_frac": 0.0}
    matches = outdir / "matches.csv"
    if matches.exists():
        rows = read_rows(matches)
        out["matching.matched_frac"] = (
            sum(1 for r in rows if r["uj_id"]) / len(rows) if rows else 0.0)
    novelty = outdir / "novelty.csv"
    if novelty.exists():
        rows = read_rows(novelty)
        undefined = sum(int(r["undefined_pair_count"]) for r in rows)
        total = undefined + sum(int(r["defined_pair_count"]) for r in rows)
        out["novelty.undefined_pair_frac"] = undefined / total if total else 0.0
    disruption = outdir / "disruption.csv"
    if disruption.exists():
        rows = read_rows(disruption)
        out["disruption.undefined_frac"] = (
            sum(1 for r in rows if r["D"] == "") / len(rows) if rows else 0.0)
    return out


def layer_metrics(tracer, outdir: Path, wall: float) -> dict:
    """Per-layer figures of one traced repetition."""
    t = tracer
    c = t.counters
    psi_calls = t.agg_count("selfcite.psi")
    shuffled = c.get("novelty.edges_shuffled", 0.0)
    stage_and_run = [s for s in t.spans
                     if s.name.startswith("pipeline.stage.")
                     or s.name in ("pipeline.run", "synth.run")]
    m = {
        "corpus.load_s": t.span_total("corpus.load"),
        "corpus.validate_s": t.span_total("corpus.validate"),
        "corpus.papers": c.get("corpus.papers", 0.0),
        "corpus.edges": c.get("corpus.edges", 0.0),
        "corpus.dangling_refs": c.get("corpus.dangling_refs", 0.0),
        "impact.table_s": (t.span_total("impact.normalization")
                           + t.span_total("impact.table")),
        "impact.market_share_s": t.agg_total("impact.market_share"),
        "impact.market_share_calls": t.agg_count("impact.market_share"),
        "matching.match_s": t.agg_total("matching.match"),
        "selfcite.count_table_s": t.agg_total("selfcite.count_table"),
        "selfcite.count_table_calls": t.agg_count("selfcite.count_table"),
        "selfcite.psi_s": t.agg_total("selfcite.psi"),
        "selfcite.psi_calls": psi_calls,
        "selfcite.rate_s": t.agg_total("selfcite.rate"),
        "selfcite.psi_undefined_frac": (
            c.get("selfcite.psi_undefined", 0.0) / psi_calls
            if psi_calls else 0.0),
        "jnet.build_s": t.span_total("jnet.build"),
        "jnet.betweenness_s": t.span_total("jnet.betweenness"),
        "jnet.closeness_s": t.span_total("jnet.closeness"),
        "jnet.pagerank_s": t.span_total("jnet.pagerank"),
        "jnet.pathcore_s": t.span_total("jnet.pathcore"),
        "jnet.nodes": c.get("jnet.nodes", 0.0),
        "jnet.edges": c.get("jnet.edges", 0.0),
        "novelty.shuffle_s": t.span_total("novelty.shuffle"),
        "novelty.shuffle_calls": sum(1 for s in t.spans
                                     if s.name == "novelty.shuffle"),
        "novelty.pair_count_s": t.span_total("novelty.pair_count"),
        "novelty.zscore_self_s": t.self_total("novelty.zscore"),
        "novelty.paper_s": t.agg_total("novelty.paper"),
        "novelty.edges_moved_frac": (c.get("novelty.edges_moved", 0.0)
                                     / shuffled if shuffled else 0.0),
        "disruption.counts_s": t.agg_total("disruption.counts"),
        "disruption.calls": t.agg_count("disruption.counts"),
        "authors.disambiguate_s": t.span_total("authors.disambiguate"),
        "authors.similarity_s": t.agg_total("authors.similarity"),
        "authors.similarity_calls": t.agg_count("authors.similarity"),
        "authors.merge_self_s": t.self_total("authors.disambiguate"),
        "authors.excluded_mentions": c.get("authors.excluded_mentions", 0.0),
        "authors.demographics_s": t.span_total("authors.demographics"),
        "synth.experiment_s": t.span_total("synth.experiment"),
        "synth.scenarios_s": t.span_total("synth.scenarios"),
        "pipeline.write_s": t.agg_total("pipeline.write"),
        "pipeline.bytes_out": _bytes_out(outdir),
        "pipeline.self_s": sum(t.self_time(s) for s in stage_and_run),
        "traced_wall_s": wall,
    }
    m.update(_output_ratios(outdir))
    return m


def _synth_probes(tracer, input_dir: Path) -> dict:
    """Time generation and rewiring through their public entry points.

    Inside run_synth both happen in private helpers, so the traced run
    calls the public functions once at the workload's ensemble config.
    """
    import citnet
    from citnet.pipeline import load_config
    config = load_config(input_dir / "config.yaml")
    section = config["synth"]
    synth_cfg = citnet.SynthConfig(
        component_size_range=tuple(section.get("component_size_range",
                                               (450, 550))),
        seed=int(config["seed"]))
    corpus, g0, g1 = tracer.span("synth.generate", citnet.generate_synthetic,
                                 synth_cfg)
    steps = int(round(float(section["rewire_fraction"])
                      * sum(len(r) for r in corpus.forward.values())))
    rewire_cfg = citnet.RewireConfig(
        rewire_fraction=float(section["rewire_fraction"]),
        seed=int(config["seed"]) + 1)
    _c, r0, r1 = tracer.span("synth.rewire", citnet.rewire, corpus,
                             rewire_cfg, steps)
    return {"synth.generate_s": g1 - g0,
            "synth.rewire_steps_per_s": steps / (r1 - r0)}


def run_workload(input_dir: Path, kind: str, seconds: float, trace: bool,
                 result_path: Path):
    import citnet
    from citnet.pipeline import load_config, run_pipeline, run_synth
    import tracer as tracing

    config = load_config(input_dir / "config.yaml")
    if kind == "pipeline":
        fn, name = run_pipeline, "pipeline.run"
    else:
        fn, name = run_synth, "synth.run"
    run_dir = result_path.parent
    reps = []
    tracers = []
    start = time.perf_counter()
    last = 0.0
    while True:
        index = len(reps)
        traced = trace and index % 2 == 1
        outdir = run_dir / f"rep{index}"
        if outdir.exists():
            shutil.rmtree(outdir)
        rep = {"index": index, "traced": traced}
        tracer = tracing.Tracer(f"rep{index}") if traced else None
        patches = None
        if traced:
            tracers.append(tracer)
            if kind == "pipeline":
                # the `citnet validate` pre-flight, outside the wall time
                corpus = citnet.load_corpus(
                    config.corpus_paths(),
                    year_range=tuple(config["year_range"]))
                tracer.span("corpus.validate", citnet.validate_corpus, corpus)
                del corpus
            patches = tracing.install(tracer)
        error = ""
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            if traced:
                result, t0, t1 = tracer.span(name, fn, config, outdir)
            else:
                result = fn(config, outdir)
                t1 = time.perf_counter()
        except Exception as exc:  # reported as a failed operation
            t1 = time.perf_counter()
            result = None
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if patches is not None:
                patches.undo()
        rep["wall_s"] = t1 - t0
        rep["cpu_s"] = _cpu_seconds() - cpu0
        if kind == "pipeline" and result is not None:
            rep["stages"] = [{"name": r.name, "status": r.status,
                              "seconds": r.seconds, "error": r.error}
                             for r in result]
        else:
            rep["stages"] = [{"name": kind, "seconds": t1 - t0,
                              "status": "failed" if error else "ok",
                              "error": error}]
        rep["digest"] = output_digest(outdir) if outdir.exists() else ""
        if traced:
            rep["layers"] = layer_metrics(tracer, outdir, t1 - t0)
            # stage -> (traced seconds, seconds outside every traced layer)
            rep["accounting"] = {
                s.name.rsplit(".", 1)[1]: (s.end - s.start, tracer.self_time(s))
                for s in tracer.spans if s.name.startswith("pipeline.stage.")}
            if kind == "synth" and len(tracers) == 1:
                rep["layers"].update(_synth_probes(tracer, input_dir))
        if index > 0 and outdir.exists():
            shutil.rmtree(outdir)       # rep0 stays for the output checks
        reps.append(rep)
        last = max(last, time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        enough = len(reps) >= (2 if trace else 1)
        if error or (enough and elapsed + last > seconds):
            break

    if tracers:
        tracing.write_spans(run_dir / "spans.jsonl", tracers)
    result_path.write_text(json.dumps({
        "reps": reps, "peak_rss_mb": _peak_rss_mb(),
        "measured_s": time.perf_counter() - start}, sort_keys=True),
        encoding="utf-8")


def main(argv):
    mode, input_dir, kind = argv[1], Path(argv[2]), argv[3]
    if mode == "setup":
        print(repr(setup_seconds(input_dir, kind)))
    elif mode == "run":
        run_workload(input_dir, kind, float(argv[4]), argv[5] == "1",
                     Path(argv[6]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv)
