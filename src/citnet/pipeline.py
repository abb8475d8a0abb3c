"""Declarative multi-stage runs over one corpus.

A run is described by a single config file (YAML or JSON); the settings,
their defaults and their checks are the one table of ``citnet.config``.
Each stage returns its CSV tables, and one runner writes them into the
output directory once the stage has returned, so a stage that raises
writes nothing. No stage reads back from that directory: stages share
only the tables on the run context, each computed from (config, corpus)
alone on first use (the normalization table, the impact rows, the
control registry and the matches). A stage fails when it raises, also
when a table it reads cannot be built, and carries that error; the
other stages still run, and the manifest carries a partial-run marker.
A run removes ``manifest.json`` before its first stage and writes it
after the last. The manifest records the hash of the resolved settings
that can change a result (all but ``threads``, ``output`` and
``stages``), the seconds of the corpus load and of the citation graph
build that precede the stages, and per-stage status, timings and output
files, also the entries an earlier manifest of the same hash and
version held for stages this run did not run (their files are
untouched); the figure exports read only the files a manifest lists.

The impact and matching stages run first, in this process, as they
build the tables the others read. With ``threads`` above 1, the other
enabled stages run in that many forked worker processes at most, where
the platform supports ``fork``, and inherit those tables; ``run_synth``
spreads its rewiring ensembles over as many workers the same way
(``_util.fork_map``). ``threads`` defaults to the CPUs this process may
run on. All randomness derives from the configured seed and results are
reported in stage (or ensemble) order, so a rerun with the same config
produces byte-identical CSVs, and manifest stage entries equal apart
from their seconds, at any worker count.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from pathlib import Path

from . import __version__
from ._util import atomic_write, fork_map, write_csv
from .config import (STAGES, ConfigError, RunConfig, _impact_years,
                     _matching_year, _matching_year_error, _synth_configs,
                     _value_errors, config_hash, load_config)
from .corpus import Corpus, load_corpus
from . import authors as authors_mod
from . import disruption as disruption_mod
from . import impact as impact_mod
from . import jnet as jnet_mod
from . import matching as matching_mod
from . import novelty as novelty_mod
from . import selfcite as selfcite_mod
from . import synth as synth_mod

__all__ = [
    "RunConfig",
    "StageResult",
    "load_config",
    "config_hash",
    "run_pipeline",
    "run_synth",
    "emit_plot_data",
    "FIGURE_IDS",
]

SYNTH_MANIFEST = "synth_manifest.json"
# the CSVs of run_synth, by the panel that reads each
_SYNTH_OUTPUTS = {"S15": "synth_psi_scenarios.csv",
                  "S18": "synth_psi_rewire.csv"}


@dataclass
class StageResult:
    name: str
    status: str          # "ok" | "failed"
    seconds: float = 0.0
    error: str = ""
    outputs: list[str] = field(default_factory=list)
    skipped: dict[str, str] = field(default_factory=dict)  # item -> reason
    counts: dict[str, int] = field(default_factory=dict)   # excluded items


@dataclass
class _RunContext:
    """One run's config and corpus; each table computed from them is a
    cached property, built on first use. A table that raises is not
    cached, so every stage that reads it fails with the same error."""

    config: RunConfig
    corpus: Corpus
    outdir: Path
    normalization_error: str = ""

    @cached_property
    def normalization(self):
        """The NormalizationTable, or None with ``normalization_error``."""
        try:
            return impact_mod.build_normalization_table(
                self.corpus, self.config["impact"]["reference_year"])
        except ValueError as exc:
            self.normalization_error = str(exc)
            return None

    @cached_property
    def impact(self):
        """impact_table rows of every impact year."""
        return impact_mod.impact_table(self.corpus, _impact_years(self.config),
                                       self.normalization)

    @cached_property
    def registry(self):
        """(matching year, registry) that control matching runs on."""
        error = _matching_year_error(self.config)
        if error:
            raise ConfigError(error)
        year = _matching_year(self.config)
        kind = self.config["matching"]["impact_kind"]
        if kind == "normalized" and self.normalization is None:
            raise ConfigError(f"normalized impact needs a normalization "
                              f"table: {self.normalization_error}")
        records = [r for r in self.impact if r.year == year]
        return year, matching_mod.build_registry(self.corpus, records, kind)

    @cached_property
    def matches(self):
        """The MatchRecords of every flagged journal, by (QJ, category)."""
        return matching_mod.match_all(self.registry[1])

    @cached_property
    def groups(self):
        """(QJ, UJ): the flagged journals and their matched controls."""
        qj = {j for j, journal in self.corpus.journals.items()
              if journal.questionable_flag}
        return qj, {uj for _qj, uj in matching_mod.matched_pairs(self.matches)}


def _fraction_or_none(x):
    return None if x is None else float(x)


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------
# Each stage returns its tables, a list of (file name, header, rows) in
# write order, and a dict of further StageResult fields (``skipped``,
# ``counts``); _run_stage writes the tables once the stage has returned.


def _stage_impact(ctx: _RunContext):
    years = _impact_years(ctx.config)
    rows = [(r.journal_id, r.year, _fraction_or_none(r.impact),
             r.normalized_impact, r.immediacy, r.cited_half_life,
             r.citing_half_life)
            for r in ctx.impact]
    tables = [("impact.csv",
               ["journal_id", "year", "impact", "normalized_impact",
                "immediacy", "cited_half_life", "citing_half_life"], rows)]

    if ctx.config["impact"]["market_share"]:
        shares = impact_mod.market_shares(ctx.corpus, years)
        tables.append(("market_share.csv", ["publisher_id", "year", "share"],
                       [(pub, year, shares[pub, year]) for year in years
                        for pub in sorted(ctx.corpus.publishers)
                        if (pub, year) in shares]))
    reason = ctx.normalization_error
    return tables, {"skipped": {"normalization": reason} if reason else {}}


def _stage_matching(ctx: _RunContext):
    rows = [(r.qj_id, r.category, r.uj_id, r.impact_gap, r.tercile)
            for r in ctx.matches]
    unmatched = sum(1 for r in ctx.matches if r.uj_id is None)
    return ([("matches.csv",
              ["qj_id", "category", "uj_id", "impact_gap", "tercile"], rows)],
            {"counts": {"unmatched_categories": unmatched}})


def _stage_selfcite(ctx: _RunContext):
    section, corpus = ctx.config["selfcite"], ctx.corpus
    window = tuple(section["window"]) if section["window"] else None
    # one count table per window
    table_for = cache(partial(selfcite_mod.aggregate_citation_counts,
                              corpus.graph))
    scores = selfcite_mod.solidarity_scores(
        corpus.graph, table_for(window), section["include_self_journal"])
    tables = [("solidarity.csv",
               ["journal_id", "psi", "Q_r", "Q_c", "publisher_paper_total"],
               [(s.journal_id, s.psi, s.q_r, s.q_c, s.publisher_paper_total)
                for s in scores])]
    counts = {f"{status}_psi": sum(s.status == status for s in scores)
              for status in ("undefined", "excluded")}

    # (source, target, kind, window, source journals, target journals):
    # the group rates of the flagged and control journals, then the
    # queries, so that ties of the sort below keep that order
    windows = [(y, y) for y in section["rate_years"]] or [window]
    qj, uj = ctx.groups
    requests = []
    for jid in sorted(qj | uj):
        publisher = corpus.journals[jid].publisher_id
        targets = {"self": {jid}, "qj_group": qj, "uj_group": uj,
                   "publisher": set(corpus.publisher_journals.get(
                       publisher, ()))}
        requests += [(jid, label, kind, win, (jid,), targets[label])
                     for win in windows for label in sorted(targets)
                     if targets[label] for kind in ("citation", "reference")]
    skipped = {}
    resolve = partial(selfcite_mod.resolve_group, corpus)
    for n, query in ctx.config.rate_queries[0]:
        try:
            requests.append((query.source, "+".join(query.targets),
                             query.kind, query.window, resolve(query.source),
                             resolve(query.targets)))
        except KeyError as exc:
            skipped[f"query {n}"] = exc.args[0]
    rate_rows = [(source, target, kind, *(win or corpus.year_range),
                  selfcite_mod.share(table_for(win), journals, group,
                                     kind == "citation"))
                 for source, target, kind, win, journals, group in requests]

    tables.append(("rates.csv",
                   ["source", "target", "kind", "year_start", "year_end",
                    "rate"], sorted(rate_rows, key=lambda r: r[:4])))
    return tables, {"counts": counts, "skipped": skipped}


def _stage_jnet(ctx: _RunContext):
    section = ctx.config["jnet"]
    year = section["year"]
    if year is None:
        year = _matching_year(ctx.config)
    computed, skipped = jnet_mod.centrality_variants(
        ctx.corpus, year, section["windows"], section["link_types"])

    tables = []
    comparison_rows = []
    for network, vectors in computed:
        window, link_type = network.window_years, network.link_type
        tag = f"{year}_{window}{link_type}"
        tables.append((f"network_{tag}.csv",
                       ["citing_id", "cited_id", "weight"],
                       [(u, v, w) for (u, v), w
                        in sorted(network.edges.items())]))
        tables += [(f"centrality_{vec.metric}_{tag}.csv",
                    ["journal_id", "score"], sorted(vec.scores.items()))
                   for vec in vectors]
        if not ctx.matches:
            continue
        comparison = jnet_mod.centrality_comparison(ctx.matches, vectors)
        comparison_rows += [(year, window, link_type, metric,
                             rep.uj_higher_fraction, rep.pair_count,
                             rep.excluded_pairs)
                            for metric, rep in sorted(comparison.items())]
    if comparison_rows:
        tables.append(("centrality_comparison.csv",
                       ["year", "window", "link_type", "metric",
                        "uj_higher_fraction", "pair_count", "excluded_pairs"],
                       comparison_rows))
    return tables, {"skipped": skipped}


def _stage_novelty(ctx: _RunContext):
    section = ctx.config["novelty"]
    config = novelty_mod.ShuffleConfig(
        ensemble_count=section["ensemble_count"],
        swaps_per_edge=float(section["swaps_per_edge"]),
        seed=ctx.config["seed"],
        collapse_multiplicity=section["collapse_multiplicity"],
    )
    zscores = novelty_mod.pair_zscores(ctx.corpus, config)
    rows = [(nov.paper_id, nov.median_z, nov.p10_z, nov.defined_pair_count,
             nov.undefined_pair_count)
            for nov in novelty_mod.paper_novelty(ctx.corpus, zscores)]
    counts = {"undefined_pairs": int((zscores.sigma == 0).sum()),
              "undefined_papers": sum(1 for r in rows if r[1] is None)}
    return [("novelty.csv",
             ["paper_id", "median_z", "p10_z", "defined_pair_count",
              "undefined_pair_count"], rows)], {"counts": counts}


def _stage_disruption(ctx: _RunContext):
    section = ctx.config["disruption"]
    window = tuple(section["window"]) if section["window"] else None

    table = disruption_mod.disruption_table(ctx.corpus, ctx.corpus.papers,
                                            window)
    rows = []
    for c in table:
        paper = ctx.corpus.papers[c.paper_id]
        rows.append((c.paper_id, c.n_i, c.n_j, c.n_k, c.value,
                     len(paper.author_keys), paper.year))
    tables = [("disruption.csv",
               ["paper_id", "n_i", "n_j", "n_k", "D", "author_count", "year"],
               rows)]

    if section["by_journal"]:
        means, _ = disruption_mod.group_means(
            ctx.corpus, table, key=lambda p: p.journal_id)
        tables.append(("disruption_journal.csv", ["journal_id", "mean_D"],
                       sorted(means.items())))
    counts = {"undefined_D": sum(1 for r in rows if r[4] is None)}
    return tables, {"counts": counts}


def _stage_authors(ctx: _RunContext):
    section = ctx.config["authors"]
    w = section["weights"]
    weights = authors_mod.SimilarityWeights(
        w_self_citation=float(w["self_citation"]),
        w_shared_author=float(w["shared_author"]),
        w_shared_citation=float(w["shared_citation"]),
        w_shared_reference=float(w["shared_reference"]),
        pair_threshold=float(section["pair_threshold"]),
        group_threshold=float(section["group_threshold"]),
    )
    clusters = authors_mod.disambiguate(ctx.corpus, weights)
    rows = [(cid, key, pid) for cid in sorted(clusters.clusters)
            for key, pid in sorted(clusters.clusters[cid])]

    qj, uj = ctx.groups
    stat_rows = []
    for label, group in (("qj", qj), ("uj", uj)):
        if not group:
            continue
        for s in authors_mod.author_demographics(ctx.corpus, clusters, group):
            stat_rows.append((label, s.cluster_id, s.academic_age,
                              s.paper_count, s.group_paper_count,
                              s.self_cited_fraction, s.self_citing_fraction,
                              s.group_self_cited_any, s.group_self_citing_any,
                              s.group_self_cited_own, s.group_self_citing_own))
    counts = {"excluded_mentions": len(clusters.excluded)}
    return [("clusters.csv", ["cluster_id", "author_key", "paper_id"], rows),
            ("author_stats.csv",
             ["group", "cluster_id", "academic_age", "paper_count",
              "group_paper_count", "self_cited_fraction",
              "self_citing_fraction", "group_self_cited_any",
              "group_self_citing_any", "group_self_cited_own",
              "group_self_citing_own"], stat_rows)], {"counts": counts}


_STAGE_FNS = {
    "impact": _stage_impact,
    "matching": _stage_matching,
    "selfcite": _stage_selfcite,
    "jnet": _stage_jnet,
    "novelty": _stage_novelty,
    "disruption": _stage_disruption,
    "authors": _stage_authors,
}


def _run_stage(ctx: _RunContext, name: str) -> StageResult:
    """Run one stage, then write its tables. An exception from the stage
    or from a write makes it a failed result; a stage that raises writes
    nothing, and a failed write lists the tables written before it."""
    t0 = time.perf_counter()
    written = []
    try:
        tables, extra = _STAGE_FNS[name](ctx)
        for filename, header, rows in tables:
            write_csv(ctx.outdir / filename, header, rows)
            written.append(filename)
        return StageResult(name, "ok", seconds=time.perf_counter() - t0,
                           outputs=written, **extra)
    except Exception as exc:  # stage isolation: report, run the others
        return StageResult(name, "failed", seconds=time.perf_counter() - t0,
                           outputs=written,
                           error=f"{type(exc).__name__}: {exc}")


def _lost_stage(name, exc) -> StageResult:
    """The result of a stage whose worker died."""
    return StageResult(name, "failed", error=f"{type(exc).__name__}: {exc}")


def run_pipeline(config: RunConfig, outdir=None):
    """Execute the enabled stages and write the manifest.

    Returns the list of StageResult in stage order. Stage failures do
    not raise; they mark the run partial, and the other stages still
    run. A stage fails when it raises, also when a run-context table it
    reads (such as the control registry behind the matches) cannot be
    built, with that table's error. Items a stage leaves out (such as a
    journal-network variant outside the corpus range, or a rate query
    naming an id the corpus lacks, as ``query <n>``) are listed with the
    reason under the stage's ``skipped`` entry, and the stage stays ok. Counts of excluded or
    undefined items go under ``counts``: the matching stage records
    ``unmatched_categories`` (``matches.csv`` rows without a control),
    the selfcite stage ``undefined_psi`` and ``excluded_psi``
    (``solidarity.csv`` rows of those statuses), the novelty stage
    ``undefined_pairs`` (observed journal pairs whose ensemble spread is
    0) and ``undefined_papers`` (rows without a defined pair), the
    disruption stage ``undefined_D`` (rows whose D is empty: never cited
    and references never cited), and the authors stage
    ``excluded_mentions`` (mentions left out of ``clusters.csv`` as lone
    mentions of uncited single-authored papers).
    """
    return _run_loaded(config, *_load_checked(config), outdir)[0]


def _load_checked(config: RunConfig) -> tuple[Corpus, float]:
    """Validate the config, then load its corpus: (corpus, load seconds)."""
    errors = config.validate()
    if errors:
        raise ConfigError("; ".join(errors))
    t0 = time.perf_counter()
    corpus = load_corpus(config.corpus_paths(),
                         year_range=tuple(config["year_range"]))
    return corpus, time.perf_counter() - t0


def _run_loaded(config: RunConfig, corpus: Corpus, load_seconds: float,
                outdir=None):
    """run_pipeline on a loaded corpus; returns (results, run context)."""
    ctx = _RunContext(config, corpus, Path(outdir or config["output"]))
    seed, threads = config["seed"], config["threads"]
    digest = config_hash(config)
    enabled = [s for s in STAGES if s in config["stages"]]
    ctx.outdir.mkdir(parents=True, exist_ok=True)
    # an earlier run of this config vouches still for the outputs of the
    # stages this run leaves alone; no manifest vouches for outputs while
    # the stages replace them
    path = ctx.outdir / "manifest.json"
    earlier = json.loads(path.read_text(encoding="utf-8")) \
        if path.exists() else {}
    same = (earlier.get("config_hash"), earlier.get("version")) == \
        (digest, __version__)
    entries = {e["name"]: e for e in earlier.get("stages", ())
               if same and e["name"] not in enabled}
    path.unlink(missing_ok=True)

    # every stage reads the graph; built once here, forked workers share it
    t0 = time.perf_counter()
    graph = corpus.graph
    graph_seconds = time.perf_counter() - t0

    # impact and matching build the tables that the other stages read, so
    # they run here first and forked workers inherit those tables (a
    # table not built yet is built by each worker that reads it); a dead
    # worker fails every stage still without a result
    first = [s for s in enabled if s in ("impact", "matching")]
    results = [_run_stage(ctx, name) for name in first]
    results += fork_map(partial(_run_stage, ctx), enabled[len(first):],
                        threads, lost=_lost_stage)

    entries.update((r.name, {"name": r.name, "status": r.status,
                             "seconds": round(r.seconds, 6), "error": r.error,
                             "outputs": r.outputs, "skipped": r.skipped,
                             "counts": r.counts})
                   for r in results)
    stages = [entries[s] for s in STAGES if s in entries]
    manifest = {
        "config_hash": digest,
        "version": __version__,
        "seed": seed,
        "threads": threads,
        "partial": any(e["status"] != "ok" for e in stages),
        "load_report": corpus.load_report.summary(),
        "load": {"seconds": round(load_seconds, 6)},
        "graph": {"seconds": round(graph_seconds, 6),
                  "nodes": graph.n_nodes, "edges": len(graph.src)},
        "stages": stages,
    }
    _write_json(path, manifest)
    return results, ctx


def _write_json(path, data):
    with atomic_write(path) as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_synth(config: RunConfig, outdir=None):
    """Scenario sweeps plus the rewiring experiment, written as CSVs.

    The rewiring ensembles run in ``threads`` forked workers at most,
    with the same CSVs at any worker count. Raises ConfigError, before
    writing anything, on the setting errors that ``RunConfig.validate``
    reports too (``_value_errors``), and the error of a worker that
    dies. ``synth_manifest.json`` records the config hash, the version,
    the worker count and the seconds of the scenario sweeps and of the
    rewiring experiment once both CSVs are written; a pipeline run's
    manifest has another name.
    """
    section, threads = config["synth"], config["threads"]
    errors = _value_errors(config.resolved)
    if errors:
        raise ConfigError("; ".join(errors))
    synth_cfg, rewire_cfg, _ = _synth_configs(section, config["seed"])
    outdir = Path(outdir or config["output"])
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / SYNTH_MANIFEST).unlink(missing_ok=True)

    t0 = time.perf_counter()
    scen_rows = []
    for scenario in ("a", "b", "c"):
        for value, psi in synth_mod.psi_scenarios(scenario, section["grid"]):
            scen_rows.append((scenario, value, psi))
    write_csv(outdir / _SYNTH_OUTPUTS["S15"],
              ["scenario", "sweep_value", "psi"], scen_rows)
    t1 = time.perf_counter()
    curves = synth_mod.psi_rewiring_experiment(synth_cfg, rewire_cfg,
                                               threads)
    write_csv(outdir / _SYNTH_OUTPUTS["S18"],
              ["checkpoint", "journal", "rate", "psi_ratio_mean",
               "psi_ratio_std"], curves.rows)
    seconds = {"scenarios": round(t1 - t0, 6),
               "experiment": round(time.perf_counter() - t1, 6)}
    _write_json(outdir / SYNTH_MANIFEST,
                {"config_hash": config_hash(config), "version": __version__,
                 "threads": threads, "seconds": seconds})
    return curves


# ---------------------------------------------------------------------------
# Figure-ready exports
# ---------------------------------------------------------------------------

def _read(outdir, listed, filename, stage):
    """The rows of an output that the manifest lists (``listed`` maps
    each listed file name to its stage); FileNotFoundError naming
    ``stage`` for a file it does not list."""
    if filename not in listed:
        raise FileNotFoundError(
            f"figure needs {filename}, which the '{stage}' stage produces; "
            f"run that stage first")
    with (Path(outdir) / filename).open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _figure_context(config, outdir):
    """A run context over the config's corpus."""
    corpus = load_corpus(config.corpus_paths(),
                         year_range=tuple(config["year_range"]))
    return _RunContext(config, corpus, Path(outdir))


def _mean_rate_figure(config, outdir, listed, target_label):
    rows = _read(outdir, listed, "rates.csv", "selfcite")
    qj, _uj = _figure_context(config, outdir).groups
    targets = (("qj_group", "uj_group") if target_label == "group"
               else (target_label,))
    acc: dict[tuple, list[float]] = {}
    for row in rows:
        if row["target"] not in targets or not row["rate"]:
            continue
        group = "qj" if row["source"] in qj else "uj"
        key = (int(row["year_start"]), int(row["year_end"]), group,
               row["kind"], row["target"])
        acc.setdefault(key, []).append(float(row["rate"]))
    out = [(k[0], k[1], k[2], k[3], k[4], sum(v) / len(v), len(v))
           for k, v in sorted(acc.items())]
    return ["year_start", "year_end", "group", "kind", "target",
            "mean_rate", "n"], out


def _figure_2f(config, outdir, listed):
    ctx = _figure_context(config, outdir)
    solidarity = {r["journal_id"]: r for r in
                  _read(outdir, listed, "solidarity.csv", "selfcite")}
    _year, registry = ctx.registry
    rows = []
    for qj_id, uj_id in matching_mod.matched_pairs(ctx.matches):
        sq, su = solidarity.get(qj_id), solidarity.get(uj_id)
        # no ratio when either psi is undefined or the control's is 0
        if not sq or not su or not sq["psi"] or not su["psi"] \
                or float(su["psi"]) == 0:
            continue
        ratio = float(sq["psi"]) / float(su["psi"])
        rel_size = None
        if sq["publisher_paper_total"] and su["publisher_paper_total"] \
                and float(su["publisher_paper_total"]) > 0:
            rel_size = (float(sq["publisher_paper_total"])
                        / float(su["publisher_paper_total"]))
        rows.append((qj_id, ratio, rel_size, registry[qj_id].impact))
    return ["qj_id", "psi_ratio", "relative_publisher_size", "qj_impact"], rows


def _figure_3(config, outdir, listed):
    pairs = matching_mod.matched_pairs(_figure_context(config, outdir).matches)
    # centrality_<metric>_<year>_<window><link type>.csv
    names = [name for name in sorted(listed) if listed[name] == "jnet"
             and name.startswith("centrality_") and name.count("_") == 3]
    if not names:
        raise FileNotFoundError(
            "figure needs the centrality_<metric>_<network>.csv files, "
            "which the 'jnet' stage produces; run that stage first")
    rows = []
    for name in names:
        _centrality, metric, _year, tag = name.removesuffix(".csv").split("_")
        scores = {r["journal_id"]: float(r["score"])
                  for r in _read(outdir, listed, name, "jnet")}
        for qj_id, uj_id in pairs:
            if qj_id in scores and uj_id in scores:
                q, u = scores[qj_id], scores[uj_id]
                logdiff = (math.log10(u / q) if q > 0 and u > 0 else None)
                rows.append((metric, tag, qj_id, uj_id, q, u, logdiff))
    return (["metric", "network", "qj_id", "uj_id", "qj_score", "uj_score",
             "log10_ratio"], rows)


def _paper_group(ctx, pid):
    qj, uj = ctx.groups
    jid = ctx.corpus.papers[pid].journal_id
    return "qj" if jid in qj else "uj" if jid in uj else "other"


def _figure_4a(config, outdir, listed):
    data = _read(outdir, listed, "disruption.csv", "disruption")
    ctx = _figure_context(config, outdir)
    rows = [(_paper_group(ctx, r["paper_id"]), r["paper_id"],
             int(r["n_i"]) + int(r["n_j"])) for r in data]
    return ["group", "paper_id", "citation_count"], sorted(rows)


def _figure_4b(config, outdir, listed):
    data = _read(outdir, listed, "novelty.csv", "novelty")
    ctx = _figure_context(config, outdir)
    rows = [(_paper_group(ctx, r["paper_id"]), r["paper_id"],
             float(r["median_z"]) if r["median_z"] else None,
             float(r["p10_z"]) if r["p10_z"] else None) for r in data]
    return ["group", "paper_id", "median_z", "p10_z"], sorted(rows)


def _figure_4c(config, outdir, listed):
    data = _read(outdir, listed, "disruption.csv", "disruption")
    ctx = _figure_context(config, outdir)
    acc: dict[tuple, list[float]] = {}
    for r in data:
        if not r["D"]:
            continue
        group = _paper_group(ctx, r["paper_id"])
        acc.setdefault((group, int(r["author_count"])), []).append(float(r["D"]))
    rows = [(g, k, sum(v) / len(v), len(v))
            for (g, k), v in sorted(acc.items())]
    return ["group", "team_size", "mean_D", "n"], rows


def _passthrough(filename, stage):
    def build(config, outdir, listed):
        rows = _read(outdir, listed, filename, stage)
        if not rows:
            return [], []
        header = list(rows[0].keys())
        return header, [tuple(r[h] for h in header) for r in rows]
    return build


_FIGURES = {
    "2B": partial(_mean_rate_figure, target_label="self"),
    "2C": partial(_mean_rate_figure, target_label="group"),
    "2D": partial(_mean_rate_figure, target_label="publisher"),
    "2E": _passthrough("market_share.csv", "impact (enable market_share)"),
    "2F": _figure_2f,
    "3": _figure_3,
    "4A": _figure_4a,
    "4B": _figure_4b,
    "4C": _figure_4c,
    "4D": _passthrough("author_stats.csv", "authors"),
    **{figure_id: _passthrough(filename, "synth")
       for figure_id, filename in _SYNTH_OUTPUTS.items()},
}
FIGURE_IDS = tuple(_FIGURES)


def emit_plot_data(config: RunConfig, outdir, figure_id: str) -> Path:
    """Write one figure panel's tidy table under <outdir>/figures/.

    Raises KeyError for unknown panel ids, ConfigError unless the
    manifest in ``outdir`` records this config's hash (``manifest.json``
    of the pipeline run, or ``synth_manifest.json`` of ``run_synth`` for
    the synth panels), and FileNotFoundError naming the absent stage
    when that manifest does not list an input: a panel reads only the
    files its manifest lists, whatever else the directory holds.
    """
    if figure_id not in _FIGURES:
        raise KeyError(f"unknown figure id: {figure_id!r}; "
                       f"known: {', '.join(FIGURE_IDS)}")
    synth = figure_id in _SYNTH_OUTPUTS
    manifest = Path(outdir) / (SYNTH_MANIFEST if synth else "manifest.json")
    if not manifest.exists():
        raise ConfigError(f"no {manifest}; run "
                          f"{'citnet synth' if synth else 'the stages'} first")
    recorded = json.loads(manifest.read_text(encoding="utf-8"))
    if recorded["config_hash"] != config_hash(config):
        raise ConfigError(f"{manifest} records another config's hash")
    # each listed file with the stage that wrote it; synth_manifest.json
    # is written once both synth CSVs are
    if synth:
        listed = dict.fromkeys(_SYNTH_OUTPUTS.values(), "synth")
    else:
        listed = {name: stage["name"] for stage in recorded["stages"]
                  for name in stage["outputs"]}
    header, rows = _FIGURES[figure_id](config, Path(outdir), listed)
    path = Path(outdir) / "figures" / f"figure_{figure_id}.csv"
    write_csv(path, header, rows)
    return path
