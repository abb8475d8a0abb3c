"""Declarative multi-stage runs over one corpus.

A run is described by a single config file (YAML or JSON). Each stage
writes its own CSV outputs into the output directory and reads nothing
back from it: stages share only the tables on the run context, each
computed from (config, corpus) alone on first use (the normalization
table, the impact rows, the control registry and the matches). A stage
fails when it raises, also when a table it reads cannot be built, and
carries that error; the other stages still run, and the manifest carries
a partial-run marker, with the completed outputs left in place. The
manifest records the hash of the resolved settings that can change a
result (all but ``threads``, ``output`` and ``stages``), the seconds of
the corpus load and of the citation graph build that precede the
stages, and per-stage status and timings.

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
import difflib
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path
from typing import Optional

import yaml

from . import __version__
from ._util import atomic_write, fork_map, usable_cpus, write_csv
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

STAGES = ("impact", "matching", "selfcite", "jnet", "novelty",
          "disruption", "authors")
SYNTH_MANIFEST = "synth_manifest.json"

_DEFAULTS = {
    "year_range": [1996, 2018],
    "seed": 0,
    "threads": None,        # the usable CPU count
    "output": "out",
    "stages": list(STAGES),
    "impact": {"years": [], "reference_year": 2017, "market_share": False},
    "matching": {"year": None, "impact_kind": "normalized"},
    "selfcite": {"window": None, "include_self_journal": True,
                 "rate_years": [], "query_file": None},
    "jnet": {"year": None, "windows": [2], "link_types": ["citation"]},
    "novelty": {"ensemble_count": 10, "swaps_per_edge": 10.0,
                "collapse_multiplicity": False},
    "disruption": {"window": None, "by_journal": False},
    "authors": {"weights": None, "pair_threshold": 1.0,
                "group_threshold": 0.19},
    "synth": {"grid": None, "journals_per_publisher": 5,
              "component_size_range": [450, 550], "out_degree_mean": 20.0,
              "out_degree_std": 5.0, "in_degree_exponent": 3.0,
              "baseline_rate": 0.2, "rewire_fraction": 3.0,
              "ensemble_count": 20},
}

# keys of the mappings that have no defaults of their own
_CORPUS_KEYS = ("papers", "journals", "publishers")
_WEIGHT_KEYS = ("self_citation", "shared_author", "shared_citation",
                "shared_reference")
_QUERY_KEYS = ("source", "targets", "window", "kind")


class ConfigError(ValueError):
    pass


def _check_keys(section, mapping, known):
    """Reject a key outside ``known``, naming the closest known one."""
    for key in mapping:
        if key in known:
            continue
        close = difflib.get_close_matches(str(key), sorted(known), n=1,
                                          cutoff=0.65)
        hint = (f"did you mean {close[0]}?" if close
                else f"known keys: {', '.join(sorted(known))}")
        name = f"{section}.{key}" if section else str(key)
        raise ConfigError(f"unknown config key {name}; {hint}")


@dataclass
class RunConfig:
    raw: dict
    path: Optional[Path] = None

    def __post_init__(self):
        _check_keys("", self.raw, [*_DEFAULTS, "corpus"])
        merged = {k: (dict(v) if isinstance(v, dict) else v)
                  for k, v in _DEFAULTS.items()}
        for key, value in self.raw.items():
            if isinstance(value, dict) and isinstance(merged.get(key), dict):
                _check_keys(key, value, merged[key])
                merged[key].update(value)
            else:
                merged[key] = value
        _check_keys("corpus", merged.get("corpus") or {}, _CORPUS_KEYS)
        _check_keys("authors.weights", merged["authors"]["weights"] or {},
                    _WEIGHT_KEYS)
        if merged["threads"] is None:
            merged["threads"] = usable_cpus()
        self.resolved = merged

    def __getitem__(self, key):
        return self.resolved[key]

    def corpus_paths(self):
        section = self.resolved.get("corpus") or {}
        return {k: self._beside_config(v) for k, v in section.items()}

    def _beside_config(self, path) -> Path:
        return (self.path.parent if self.path else Path(".")) / path

    def validate(self):
        """Static checks; every referenced path must exist."""
        errors = []
        section = self.resolved.get("corpus") or {}
        for key in ("papers", "journals", "publishers"):
            if key not in section:
                errors.append(f"corpus.{key} missing from config")
        for key, path in self.corpus_paths().items():
            if not Path(path).exists():
                errors.append(f"corpus.{key}: no such file: {path}")
        unknown = set(self.resolved["stages"]) - set(STAGES)
        if unknown:
            errors.append(f"unknown stages: {sorted(unknown)}")
        weights = self.resolved["authors"]["weights"]
        if "authors" in self.resolved["stages"] and not weights:
            errors.append("authors stage needs explicit similarity weights "
                          "(authors.weights); the built-in defaults are "
                          "fixture placeholders")
        errors += [f"authors.weights.{key} missing from config"
                   for key in _WEIGHT_KEYS if weights and key not in weights]
        errors += _value_errors(self.resolved)
        return errors + self.rate_queries[1]

    @cached_property
    def rate_queries(self):
        """(queries, errors) of selfcite.query_file, resolved like the
        corpus paths: each well-formed entry as (n, RateQuery), n counting
        the file's entries from 1, and an error naming ``query <n>`` for
        each malformed one. Whether an id names a journal or publisher is
        left to the stage."""
        query_file = self.resolved["selfcite"]["query_file"]
        if not query_file:
            return [], []
        path = self._beside_config(query_file)
        if not path.exists():
            return [], [f"selfcite.query_file: no such file: {path}"]
        try:
            with path.open(encoding="utf-8") as fh:
                entries = yaml.safe_load(fh) or []
        except yaml.YAMLError as exc:
            return [], [f"selfcite.query_file: {exc}"]
        if not isinstance(entries, list):
            return [], [f"selfcite.query_file: {path} must hold a list of queries"]
        queries, errors = [], []
        for n, entry in enumerate(entries, start=1):
            entry = entry if isinstance(entry, dict) else {}
            targets, window = entry.get("targets", ""), entry.get("window")
            targets = targets if isinstance(targets, list) else [targets]
            kind = entry.get("kind", "citation")
            problems = [f"unknown key {key!r}" for key in entry
                        if key not in _QUERY_KEYS]
            problems += [f"{key} missing" for key in ("source", "targets")
                         if key not in entry]
            if not targets or not all(isinstance(i, str) for i in
                                      (entry.get("source", ""), *targets)):
                problems.append("source and targets must be ids")
            if kind not in ("citation", "reference"):
                problems.append(f"kind must be citation or reference, "
                                f"not {kind!r}")
            if window is not None and not (
                    isinstance(window, list) and len(window) == 2
                    and all(type(y) is int for y in window)):
                problems.append(f"window must be two integers, not {window!r}")
            errors += [f"selfcite.query_file: query {n}: {what}"
                       for what in problems]
            if not problems:
                queries.append((n, selfcite_mod.RateQuery(
                    entry["source"], tuple(targets),
                    tuple(window) if window else None, kind)))
        return queries, errors


def _number(value):
    """Whether a config value is a finite int or float (not a bool)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _count_check(name, value, least=1):
    """(name, value, ok, what) of a setting that must be an integer >=
    ``least`` (not a bool)."""
    return (name, value, _number(value) and isinstance(value, int)
            and value >= least, f"an integer >= {least}")


def _errors(checks):
    return [f"{name} must be {what}, not {value!r}"
            for name, value, ok, what in checks if not ok]


def _value_errors(resolved):
    """The settings that the stages or ``run_synth`` would fail to use."""
    authors, novelty = resolved["authors"], resolved["novelty"]
    checks = [(f"authors.weights.{key}", value, _number(value), "a number")
              for key, value in (authors["weights"] or {}).items()]
    checks += [(f"authors.{key}", authors[key],
                _number(authors[key]) and authors[key] > 0,
                "a positive number")
               for key in ("pair_threshold", "group_threshold")]
    swaps = novelty["swaps_per_edge"]
    checks += [_count_check("novelty.ensemble_count",
                            novelty["ensemble_count"]),
               ("novelty.swaps_per_edge", swaps, _number(swaps) and swaps > 0,
                "a positive number"),
               _count_check("synth.ensemble_count",
                            resolved["synth"]["ensemble_count"]),
               _count_check("threads", resolved["threads"]),
               _count_check("seed", resolved["seed"], 0)]
    return _errors(checks) + _synth_configs(resolved["synth"])[2]


def _synth_configs(section, seed=0):
    """(SynthConfig, RewireConfig, errors) of the synth section; a config
    that cannot be built is None, with its ``synth: <reason>`` error.
    ``seed`` seeds the network and ``seed + 1`` the rewiring."""
    errors = []
    try:
        synth_cfg = synth_mod.SynthConfig(
            journals_per_publisher=int(section["journals_per_publisher"]),
            component_size_range=tuple(section["component_size_range"]),
            out_degree_mean=float(section["out_degree_mean"]),
            out_degree_std=float(section["out_degree_std"]),
            in_degree_exponent=float(section["in_degree_exponent"]),
            seed=seed)
    except (TypeError, ValueError) as exc:
        synth_cfg = None
        errors.append(f"synth: {exc}")
    try:
        rewire_cfg = synth_mod.RewireConfig(
            baseline_rate=float(section["baseline_rate"]),
            rewire_fraction=float(section["rewire_fraction"]),
            ensemble_count=section["ensemble_count"],
            seed=seed + 1)
    except (TypeError, ValueError) as exc:
        rewire_cfg = None
        errors.append(f"synth: {exc}")
    return synth_cfg, rewire_cfg, errors


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        with path.open(encoding="utf-8") as fh:
            raw = yaml.safe_load(fh) or {}
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    return RunConfig(raw=raw, path=path)


def config_hash(config: RunConfig) -> str:
    """sha256 of the resolved settings, less those that cannot change a
    result: the worker count, the output directory and the stages run."""
    canon = json.dumps(dict(config.resolved, threads=None, output=None,
                            stages=None), sort_keys=True, default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


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
        year = _matching_year(self.config)
        if year not in _impact_years(self.config):
            raise ConfigError(f"matching year {year} is not covered by the "
                              f"impact stage years")
        kind = self.config["matching"]["impact_kind"]
        if kind == "normalized" and self.normalization is None:
            raise ConfigError(f"normalized impact needs a normalization "
                              f"table: {self.normalization_error}")
        records = [r for r in self.impact if r.year == year]
        return year, matching_mod.build_registry(self.corpus, records, kind)

    @cached_property
    def matches(self):
        """The MatchRecords of every flagged journal, by (QJ, category)."""
        _year, registry = self.registry
        terciles = matching_mod._category_terciles(registry)
        records = [rec for qj in sorted(registry) if registry[qj].questionable
                   for rec in matching_mod.match_registry(registry, qj,
                                                          terciles)]
        return sorted(records, key=lambda r: (r.qj_id, r.category))

    @cached_property
    def groups(self):
        """(QJ, UJ): the flagged journals and their matched controls."""
        qj = {j for j, journal in self.corpus.journals.items()
              if journal.questionable_flag}
        return qj, {m.uj_id for m in self.matches if m.uj_id}


def _fraction_or_none(x):
    return None if x is None else float(x)


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------
# Each stage returns its output file names and a dict of further
# StageResult fields (``skipped``, ``counts``).


def _impact_years(config):
    years = config["impact"]["years"]
    if years:
        return list(years)
    lo, hi = config["year_range"]
    return list(range(lo, hi + 1))


def _stage_impact(ctx: _RunContext):
    years = _impact_years(ctx.config)
    rows = [(r.journal_id, r.year, _fraction_or_none(r.impact),
             r.normalized_impact, r.immediacy, r.cited_half_life,
             r.citing_half_life)
            for r in ctx.impact]
    write_csv(ctx.outdir / "impact.csv",
              ["journal_id", "year", "impact", "normalized_impact",
               "immediacy", "cited_half_life", "citing_half_life"], rows)
    outputs = ["impact.csv"]

    if ctx.config["impact"]["market_share"]:
        shares = impact_mod._market_shares(ctx.corpus, years)
        share_rows = [(pub, year, shares[pub, year]) for year in years
                      for pub in sorted(ctx.corpus.publishers)
                      if (pub, year) in shares]
        write_csv(ctx.outdir / "market_share.csv",
                  ["publisher_id", "year", "share"], share_rows)
        outputs.append("market_share.csv")
    reason = ctx.normalization_error
    return outputs, {"skipped": {"normalization": reason} if reason else {}}


def _matching_year(config):
    """The configured matching year, else the last impact year."""
    year = config["matching"]["year"]
    if year is not None:
        return int(year)
    return _impact_years(config)[-1]


def _stage_matching(ctx: _RunContext):
    rows = [(r.qj_id, r.category, r.uj_id, r.impact_gap, r.tercile)
            for r in ctx.matches]
    write_csv(ctx.outdir / "matches.csv",
              ["qj_id", "category", "uj_id", "impact_gap", "tercile"], rows)
    unmatched = sum(1 for r in ctx.matches if r.uj_id is None)
    return ["matches.csv"], {"counts": {"unmatched_categories": unmatched}}


def _stage_selfcite(ctx: _RunContext):
    section = ctx.config["selfcite"]
    window = tuple(section["window"]) if section["window"] else None
    include_self = section["include_self_journal"]
    tables = {}

    def table_for(win):
        if win not in tables:
            tables[win] = selfcite_mod.aggregate_citation_counts(ctx.corpus,
                                                                 win)
        return tables[win]

    scores = selfcite_mod.solidarity_scores(ctx.corpus, window, include_self,
                                            table_for(window))
    write_csv(ctx.outdir / "solidarity.csv",
              ["journal_id", "psi", "Q_r", "Q_c", "publisher_paper_total"],
              [(s.journal_id, s.psi, s.q_r, s.q_c, s.publisher_paper_total)
               for s in scores])
    outputs = ["solidarity.csv"]
    counts = {f"{status}_psi": sum(s.status == status for s in scores)
              for status in ("undefined", "excluded")}

    # (window written to rates.csv, window of its count table)
    if section["rate_years"]:
        windows = [((y, y), (y, y)) for y in section["rate_years"]]
    else:
        windows = [(window or ctx.corpus.year_range, window)]
    qj, uj = ctx.groups
    rate_rows = []
    for jid in sorted(qj | uj):
        publisher = ctx.corpus.journals[jid].publisher_id
        targets = {"self": {jid}, "qj_group": qj, "uj_group": uj,
                   "publisher": set(ctx.corpus.publisher_journals.get(
                       publisher, ()))}
        for (lo, hi), key in windows:
            tab = table_for(key)
            for label in sorted(targets):
                group = targets[label]
                if not group:
                    continue
                for kind in ("citation", "reference"):
                    rate_rows.append((jid, label, kind, lo, hi,
                                      selfcite_mod._share(
                                          tab, (jid,), group,
                                          kind == "citation")))

    skipped = {}
    for n, query in ctx.config.rate_queries[0]:
        try:
            source = selfcite_mod.resolve_group(ctx.corpus, query.source)
            group = selfcite_mod.resolve_group(ctx.corpus, query.targets)
        except KeyError as exc:
            skipped[f"query {n}"] = exc.args[0]
            continue
        rate = selfcite_mod._share(table_for(query.window), source, group,
                                   query.kind == "citation")
        lo, hi = query.window if query.window else ctx.corpus.year_range
        rate_rows.append((query.source, "+".join(query.targets),
                          query.kind, lo, hi, rate))

    write_csv(ctx.outdir / "rates.csv",
              ["source", "target", "kind", "year_start", "year_end", "rate"],
              sorted(rate_rows, key=lambda r: (r[0], r[1], r[2], r[3])))
    outputs.append("rates.csv")
    return outputs, {"counts": counts, "skipped": skipped}


def _stage_jnet(ctx: _RunContext):
    section = ctx.config["jnet"]
    year = section["year"]
    if year is None:
        year = _matching_year(ctx.config)
    computed, skipped = jnet_mod.centrality_variants(
        ctx.corpus, year, section["windows"], section["link_types"])

    outputs = []
    comparison_rows = []
    for network, vectors in computed:
        window, link_type = network.window_years, network.link_type
        tag = f"{year}_{window}{link_type}"
        name = f"network_{tag}.csv"
        write_csv(ctx.outdir / name, ["citing_id", "cited_id", "weight"],
                  [(u, v, w) for (u, v), w in sorted(network.edges.items())])
        outputs.append(name)
        for vec in vectors:
            name = f"centrality_{vec.metric}_{tag}.csv"
            write_csv(ctx.outdir / name, ["journal_id", "score"],
                      sorted(vec.scores.items()))
            outputs.append(name)
        if not ctx.matches:
            continue
        comparison = jnet_mod.centrality_comparison(ctx.matches, vectors)
        for metric in sorted(comparison):
            rep = comparison[metric]
            comparison_rows.append((year, window, link_type, metric,
                                    rep.uj_higher_fraction, rep.pair_count,
                                    rep.excluded_pairs))
    if comparison_rows:
        write_csv(ctx.outdir / "centrality_comparison.csv",
                  ["year", "window", "link_type", "metric",
                   "uj_higher_fraction", "pair_count", "excluded_pairs"],
                  comparison_rows)
        outputs.append("centrality_comparison.csv")
    return outputs, {"skipped": skipped}


def _stage_novelty(ctx: _RunContext):
    section = ctx.config["novelty"]
    config = novelty_mod.ShuffleConfig(
        ensemble_count=int(section["ensemble_count"]),
        swaps_per_edge=float(section["swaps_per_edge"]),
        seed=ctx.config["seed"],
        collapse_multiplicity=bool(section["collapse_multiplicity"]),
    )
    zscores = novelty_mod.pair_zscores(ctx.corpus, config)
    rows = [(nov.paper_id, nov.median_z, nov.p10_z, nov.defined_pair_count,
             nov.undefined_pair_count)
            for nov in novelty_mod.paper_novelty(ctx.corpus, zscores)]
    write_csv(ctx.outdir / "novelty.csv",
              ["paper_id", "median_z", "p10_z", "defined_pair_count",
               "undefined_pair_count"], rows)
    counts = {"undefined_pairs": int((zscores.sigma == 0).sum()),
              "undefined_papers": sum(1 for r in rows if r[1] is None)}
    return ["novelty.csv"], {"counts": counts}


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
    write_csv(ctx.outdir / "disruption.csv",
              ["paper_id", "n_i", "n_j", "n_k", "D", "author_count", "year"],
              rows)
    outputs = ["disruption.csv"]

    if section["by_journal"]:
        means = disruption_mod.journal_means(ctx.corpus, table)
        write_csv(ctx.outdir / "disruption_journal.csv",
                  ["journal_id", "mean_D"], sorted(means.items()))
        outputs.append("disruption_journal.csv")
    counts = {"undefined_D": sum(1 for r in rows if r[4] is None)}
    return outputs, {"counts": counts}


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
    rows = []
    for cid in sorted(clusters.clusters):
        for key, pid in sorted(clusters.clusters[cid]):
            rows.append((cid, key, pid))
    write_csv(ctx.outdir / "clusters.csv",
              ["cluster_id", "author_key", "paper_id"], rows)

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
    write_csv(ctx.outdir / "author_stats.csv",
              ["group", "cluster_id", "academic_age", "paper_count",
               "group_paper_count", "self_cited_fraction",
               "self_citing_fraction", "group_self_cited_any",
               "group_self_citing_any", "group_self_cited_own",
               "group_self_citing_own"], stat_rows)
    counts = {"excluded_mentions": len(clusters.excluded)}
    return ["clusters.csv", "author_stats.csv"], {"counts": counts}


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
    """Run one stage; an exception it raises makes it a failed result."""
    t0 = time.perf_counter()
    try:
        outputs, extra = _STAGE_FNS[name](ctx)
        return StageResult(name, "ok", seconds=time.perf_counter() - t0,
                           outputs=outputs, **extra)
    except Exception as exc:  # stage isolation: report, run the others
        return StageResult(name, "failed", seconds=time.perf_counter() - t0,
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
    ctx.outdir.mkdir(parents=True, exist_ok=True)

    # every stage reads the graph; built once here, forked workers share it
    t0 = time.perf_counter()
    graph = corpus.graph
    graph_seconds = time.perf_counter() - t0

    # impact and matching build the tables that the other stages read, so
    # they run here first and forked workers inherit those tables (a
    # table not built yet is built by each worker that reads it); a dead
    # worker fails every stage still without a result
    enabled = [s for s in STAGES if s in config["stages"]]
    first = [s for s in enabled if s in ("impact", "matching")]
    results = [_run_stage(ctx, name) for name in first]
    results += fork_map(partial(_run_stage, ctx), enabled[len(first):],
                        threads, lost=_lost_stage)

    manifest = {
        "config_hash": config_hash(config),
        "version": __version__,
        "seed": seed,
        "threads": threads,
        "partial": any(r.status != "ok" for r in results),
        "load_report": corpus.load_report.summary(),
        "load": {"seconds": round(load_seconds, 6)},
        "graph": {"seconds": round(graph_seconds, 6),
                  "nodes": graph.n_nodes, "edges": len(graph.src)},
        "stages": [{"name": r.name, "status": r.status,
                    "seconds": round(r.seconds, 6), "error": r.error,
                    "outputs": r.outputs, "skipped": r.skipped,
                    "counts": r.counts}
                   for r in results],
    }
    _write_json(ctx.outdir / "manifest.json", manifest)
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
    write_csv(outdir / "synth_psi_scenarios.csv",
              ["scenario", "sweep_value", "psi"], scen_rows)
    t1 = time.perf_counter()
    curves = synth_mod.psi_rewiring_experiment(synth_cfg, rewire_cfg,
                                               threads)
    write_csv(outdir / "synth_psi_rewire.csv",
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

def _need(outdir, filename, stage):
    path = Path(outdir) / filename
    if not path.exists():
        raise FileNotFoundError(
            f"figure needs {filename}, which the '{stage}' stage produces; "
            f"run that stage first")
    return path


def _read_rows(path):
    with Path(path).open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _figure_context(config, outdir):
    """A run context over the config's corpus."""
    corpus = load_corpus(config.corpus_paths(),
                         year_range=tuple(config["year_range"]))
    return _RunContext(config, corpus, Path(outdir))


def _mean_rate_figure(config, outdir, target_label):
    rows = _read_rows(_need(outdir, "rates.csv", "selfcite"))
    qj, _uj = _figure_context(config, outdir).groups
    acc: dict[tuple, list[float]] = {}
    for row in rows:
        if row["target"] != target_label and target_label != "group":
            continue
        if target_label == "group" and row["target"] not in ("qj_group",
                                                             "uj_group"):
            continue
        if not row["rate"]:
            continue
        group = "qj" if row["source"] in qj else "uj"
        key = (int(row["year_start"]), int(row["year_end"]), group,
               row["kind"], row["target"])
        acc.setdefault(key, []).append(float(row["rate"]))
    out = [(k[0], k[1], k[2], k[3], k[4], sum(v) / len(v), len(v))
           for k, v in sorted(acc.items())]
    return ["year_start", "year_end", "group", "kind", "target",
            "mean_rate", "n"], out


def _figure_2f(config, outdir):
    ctx = _figure_context(config, outdir)
    solidarity = {r["journal_id"]: r for r in
                  _read_rows(_need(outdir, "solidarity.csv", "selfcite"))}
    _year, registry = ctx.registry
    rows = []
    for m in sorted({(m.qj_id, m.uj_id) for m in ctx.matches if m.uj_id}):
        qj_id, uj_id = m
        sq, su = solidarity.get(qj_id), solidarity.get(uj_id)
        if not sq or not su or not sq["psi"] or not su["psi"]:
            continue
        ratio = float(sq["psi"]) / float(su["psi"])
        rel_size = None
        if sq["publisher_paper_total"] and su["publisher_paper_total"] \
                and float(su["publisher_paper_total"]) > 0:
            rel_size = (float(sq["publisher_paper_total"])
                        / float(su["publisher_paper_total"]))
        rows.append((qj_id, ratio, rel_size, registry[qj_id].impact))
    return ["qj_id", "psi_ratio", "relative_publisher_size", "qj_impact"], rows


def _figure_3(config, outdir):
    matches = _figure_context(config, outdir).matches
    pairs = sorted({(m.qj_id, m.uj_id) for m in matches if m.uj_id})
    rows = []
    for path in sorted(Path(outdir).glob("centrality_*_*.csv")):
        parts = path.stem.split("_")
        if len(parts) != 4 or parts[0] != "centrality":
            continue
        metric, tag = parts[1], parts[3]
        scores = {r["journal_id"]: float(r["score"]) for r in _read_rows(path)}
        for qj_id, uj_id in pairs:
            if qj_id in scores and uj_id in scores:
                q, u = scores[qj_id], scores[uj_id]
                logdiff = (math.log10(u / q) if q > 0 and u > 0 else None)
                rows.append((metric, tag, qj_id, uj_id, q, u, logdiff))
    if not rows:
        _need(outdir, "centrality_comparison.csv", "jnet")
    return (["metric", "network", "qj_id", "uj_id", "qj_score", "uj_score",
             "log10_ratio"], rows)


def _paper_group(ctx, pid):
    qj, uj = ctx.groups
    jid = ctx.corpus.papers[pid].journal_id
    if jid in qj:
        return "qj"
    if jid in uj:
        return "uj"
    return "other"


def _figure_4a(config, outdir):
    data = _read_rows(_need(outdir, "disruption.csv", "disruption"))
    ctx = _figure_context(config, outdir)
    rows = []
    for r in data:
        pid = r["paper_id"]
        cites = int(r["n_i"]) + int(r["n_j"])
        rows.append((_paper_group(ctx, pid), pid, cites))
    return ["group", "paper_id", "citation_count"], sorted(rows)


def _figure_4b(config, outdir):
    data = _read_rows(_need(outdir, "novelty.csv", "novelty"))
    ctx = _figure_context(config, outdir)
    rows = []
    for r in data:
        pid = r["paper_id"]
        rows.append((_paper_group(ctx, pid), pid,
                     float(r["median_z"]) if r["median_z"] else None,
                     float(r["p10_z"]) if r["p10_z"] else None))
    return ["group", "paper_id", "median_z", "p10_z"], sorted(rows)


def _figure_4c(config, outdir):
    data = _read_rows(_need(outdir, "disruption.csv", "disruption"))
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
    def build(config, outdir):
        rows = _read_rows(_need(outdir, filename, stage))
        if not rows:
            return [], []
        header = list(rows[0].keys())
        return header, [tuple(r[h] for h in header) for r in rows]
    build.stage = stage
    return build


_FIGURES = {
    "2B": lambda c, o: _mean_rate_figure(c, o, "self"),
    "2C": lambda c, o: _mean_rate_figure(c, o, "group"),
    "2D": lambda c, o: _mean_rate_figure(c, o, "publisher"),
    "2E": _passthrough("market_share.csv", "impact (enable market_share)"),
    "2F": _figure_2f,
    "3": _figure_3,
    "4A": _figure_4a,
    "4B": _figure_4b,
    "4C": _figure_4c,
    "4D": _passthrough("author_stats.csv", "authors"),
    "S15": _passthrough("synth_psi_scenarios.csv", "synth"),
    "S18": _passthrough("synth_psi_rewire.csv", "synth"),
}
FIGURE_IDS = tuple(_FIGURES)


def emit_plot_data(config: RunConfig, outdir, figure_id: str) -> Path:
    """Write one figure panel's tidy table under <outdir>/figures/.

    Raises KeyError for unknown panel ids, ConfigError unless the
    manifest in ``outdir`` records this config's hash (``manifest.json``
    of the pipeline run, or ``synth_manifest.json`` of ``run_synth`` for
    the synth panels), and FileNotFoundError naming the absent stage
    when inputs are missing.
    """
    if figure_id not in _FIGURES:
        raise KeyError(f"unknown figure id: {figure_id!r}; "
                       f"known: {', '.join(FIGURE_IDS)}")
    build = _FIGURES[figure_id]
    synth = getattr(build, "stage", None) == "synth"
    manifest = Path(outdir) / (SYNTH_MANIFEST if synth else "manifest.json")
    if not manifest.exists():
        raise ConfigError(f"no {manifest}; run "
                          f"{'citnet synth' if synth else 'the stages'} first")
    recorded = json.loads(manifest.read_text(encoding="utf-8"))
    if recorded["config_hash"] != config_hash(config):
        raise ConfigError(f"{manifest} records another config's hash")
    header, rows = build(config, Path(outdir))
    path = Path(outdir) / "figures" / f"figure_{figure_id}.csv"
    write_csv(path, header, rows)
    return path
