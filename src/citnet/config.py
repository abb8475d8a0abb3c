"""Run settings: one table of every setting, its default and its check.

``SETTINGS`` maps each dotted key of a run config to its default and to
one check, a (description, predicate) pair of a handful of shared kinds.
The defaults a config is merged onto, the keys it may give, and the
value checks that ``RunConfig.validate`` and ``run_synth`` share all
derive from it. Two sources keep their own errors: the synth section's
network and rewiring settings (``_synth_configs``) and the entries of
``selfcite.query_file`` (``RunConfig.rate_queries``). One rule joins
two settings: the matching year must be an impact year
(``_matching_year_error``), which ``validate`` and the run's control
registry both check. Checks that need the corpus (jnet windows inside
the corpus range) stay where the stages meet them.
"""

from __future__ import annotations

import copy
import difflib
import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional

import yaml

from ._util import usable_cpus
from . import selfcite as selfcite_mod
from . import synth as synth_mod

STAGES = ("impact", "matching", "selfcite", "jnet", "novelty",
          "disruption", "authors")

# the stages that read the control registry, built in the matching year
_REGISTRY_STAGES = ("matching", "selfcite", "jnet", "authors")


class ConfigError(ValueError):
    pass


def _int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value):
    """Whether a value is a finite int or float (not a bool)."""
    return _int(value) or isinstance(value, float) and math.isfinite(value)


def _list_of(ok):
    return lambda value: (isinstance(value, (list, tuple))
                          and all(map(ok, value)))


def _pair(value):
    return _list_of(_int)(value) and len(value) == 2


def _words(names, last):
    return f"{', '.join(names[:-1])} {last} {names[-1]}"


# the check kinds: (what a value must be, whether a value is that)
_YEAR = ("an integer year", _int)
_YEARS = ("a list of integer years", _list_of(_int))
_PAIR = ("two integers", _pair)
_YEAR_PAIR = ("two integer years [lo, hi] with lo <= hi",
              lambda value: _pair(value) and value[0] <= value[1])
_BOOL = ("true or false", lambda value: isinstance(value, bool))
_NUMBER = ("a number", _number)
_NUMBERS = ("a list of numbers", _list_of(_number))
_POSITIVE = ("a positive number", lambda value: _number(value) and value > 0)
_WINDOWS = ("a list of integers >= 1",
            _list_of(lambda value: _int(value) and value >= 1))
_PATH = ("a non-empty string",
         lambda value: isinstance(value, str) and value != "")
_MAPPING = ("a mapping", lambda value: isinstance(value, dict))


def _count(least):
    return f"an integer >= {least}", lambda value: _int(value) and value >= least


def _choice(*names):
    return _words(names, "or"), lambda value: value in names


def _choices(*names):
    return (f"a list drawn from {_words(names, 'and')}",
            _list_of(lambda value: value in names))


def _optional(check):
    what, ok = check
    return f"null or {what}", lambda value: value is None or ok(value)


# the checks of a rate query's optional keys
_QUERY_CHECKS = {"window": _optional(_YEAR_PAIR),
                 "kind": _choice("citation", "reference")}

_REQUIRED = object()    # the default of a setting a config must give

SETTINGS = {
    "corpus.papers": (_REQUIRED, _PATH),
    "corpus.journals": (_REQUIRED, _PATH),
    "corpus.publishers": (_REQUIRED, _PATH),
    "year_range": ([1996, 2018], _YEAR_PAIR),
    "seed": (0, _count(0)),
    "threads": (None, _count(1)),       # None: the usable CPU count
    "output": ("out", _PATH),
    "stages": (list(STAGES), _choices(*STAGES)),
    "impact.years": ([], _YEARS),
    "impact.reference_year": (2017, _YEAR),
    "impact.market_share": (False, _BOOL),
    "matching.year": (None, _optional(_YEAR)),
    "matching.impact_kind": ("normalized", _choice("normalized", "raw")),
    "selfcite.window": (None, _optional(_YEAR_PAIR)),
    "selfcite.include_self_journal": (True, _BOOL),
    "selfcite.rate_years": ([], _YEARS),
    "selfcite.query_file": (None, _optional(_PATH)),
    "jnet.year": (None, _optional(_YEAR)),
    "jnet.windows": ([2], _WINDOWS),
    "jnet.link_types": (["citation"], _choices("citation", "reference")),
    "novelty.ensemble_count": (10, _count(1)),
    "novelty.swaps_per_edge": (10.0, _POSITIVE),
    "novelty.collapse_multiplicity": (False, _BOOL),
    "disruption.window": (None, _optional(_YEAR_PAIR)),
    "disruption.by_journal": (False, _BOOL),
    "authors.weights": (None, _optional(_MAPPING)),
    "authors.weights.self_citation": (_REQUIRED, _NUMBER),
    "authors.weights.shared_author": (_REQUIRED, _NUMBER),
    "authors.weights.shared_citation": (_REQUIRED, _NUMBER),
    "authors.weights.shared_reference": (_REQUIRED, _NUMBER),
    "authors.pair_threshold": (1.0, _POSITIVE),
    "authors.group_threshold": (0.19, _POSITIVE),
    "synth.grid": (None, _optional(_NUMBERS)),
    "synth.journals_per_publisher": (5, _count(1)),
    "synth.component_size_range": ([450, 550], _PAIR),
    "synth.out_degree_mean": (20.0, _NUMBER),
    "synth.out_degree_std": (5.0, _NUMBER),
    "synth.in_degree_exponent": (3.0, _NUMBER),
    "synth.baseline_rate": (0.2, _NUMBER),
    "synth.rewire_fraction": (3.0, _NUMBER),
    "synth.ensemble_count": (20, _count(1)),
}

# each value of these lists makes rows, so none may repeat (a stage may)
_DISTINCT = ("impact.years", "selfcite.rate_years", "jnet.windows",
             "jnet.link_types", "synth.grid")


def _defaults():
    """The resolved settings of an empty config, with lists of its own."""
    defaults = {}
    for key, (default, _check) in SETTINGS.items():
        if default is not _REQUIRED:
            *path, leaf = key.split(".")
            node = defaults
            for part in path:
                node = node.setdefault(part, {})
            node[leaf] = copy.deepcopy(default)
    return defaults


def _known(section):
    """The keys a config may give in ``section`` ("" for the top level)."""
    prefix = f"{section}." if section else ""
    return {key[len(prefix):].split(".")[0] for key in SETTINGS
            if key.startswith(prefix)}


def _check_keys(section, mapping):
    """Reject a key of ``section`` ("" for the top level) outside the
    table, naming the closest known one; the sections it holds as
    mappings are checked the same way."""
    known = _known(section)
    for key, value in mapping.items():
        name = f"{section}.{key}" if section else str(key)
        if key not in known:
            close = difflib.get_close_matches(str(key), sorted(known), n=1,
                                              cutoff=0.65)
            hint = (f"did you mean {close[0]}?" if close
                    else f"known keys: {', '.join(sorted(known))}")
            raise ConfigError(f"unknown config key {name}; {hint}")
        if isinstance(value, dict) and _known(name):
            _check_keys(name, value)


@dataclass
class RunConfig:
    raw: dict
    path: Optional[Path] = None

    def __post_init__(self):
        _check_keys("", self.raw)
        merged = _defaults()
        for key, value in self.raw.items():
            # a null section (its keys all commented out) keeps its defaults
            if (isinstance(merged.get(key), dict)
                    and isinstance(value, (dict, type(None)))):
                merged[key].update(value or {})
            else:
                merged[key] = value
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
        """The config's errors, [] when it can run. First the settings of
        the table (``_value_errors``, with the corpus paths required);
        once every setting is of its kind, the files the config names,
        the matching year when a stage reads the control registry, and
        the weights the authors stage needs."""
        resolved = self.resolved
        errors = _value_errors(dict(resolved,
                                    corpus=resolved.get("corpus") or {}))
        if errors:
            return errors
        errors = [f"corpus.{key}: no such file: {path}"
                  for key, path in self.corpus_paths().items()
                  if not path.exists()]
        error = _matching_year_error(resolved)
        if error and set(_REGISTRY_STAGES) & set(resolved["stages"]):
            errors.append(error)
        if ("authors" in resolved["stages"]
                and resolved["authors"]["weights"] is None):
            errors.append("authors stage needs explicit similarity weights "
                          "(authors.weights); the built-in defaults are "
                          "fixture placeholders")
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
            problems = [f"unknown key {key!r}" for key in entry
                        if key not in ("source", "targets", *_QUERY_CHECKS)]
            problems += [f"{key} missing" for key in ("source", "targets")
                         if key not in entry]
            if not targets or not all(isinstance(i, str) for i in
                                      (entry.get("source", ""), *targets)):
                problems.append("source and targets must be ids")
            problems += [f"{key} must be {what}, not {entry[key]!r}"
                         for key, (what, ok) in _QUERY_CHECKS.items()
                         if key in entry and not ok(entry[key])]
            errors += [f"selfcite.query_file: query {n}: {what}"
                       for what in problems]
            if not problems:
                queries.append((n, selfcite_mod.RateQuery(
                    entry["source"], tuple(targets),
                    tuple(window) if window else None,
                    entry.get("kind", "citation"))))
        return queries, errors


def _impact_years(config):
    """The impact stage years: ``impact.years``, else every year of
    ``year_range``."""
    years = config["impact"]["years"]
    if years:
        return list(years)
    lo, hi = config["year_range"]
    return list(range(lo, hi + 1))


def _matching_year(config):
    """The configured matching year, else the last impact year."""
    year = config["matching"]["year"]
    if year is not None:
        return year
    return _impact_years(config)[-1]


def _matching_year_error(config):
    """The error of a matching year that is not an impact year, else None:
    the control registry is built from that year's impact rows."""
    year = _matching_year(config)
    if year not in _impact_years(config):
        return (f"matching.year {year} is not covered by the impact stage "
                f"years")


def _value_errors(resolved):
    """The errors of the settings that the stages or ``run_synth`` could
    not use: a setting of the table of another kind than its check's, a
    setting of ``_DISTINCT`` that names a value twice, a setting without
    a default missing from its mapping, and a section given as a
    non-mapping, under the section's name. A mapping that is absent or
    null is not looked into. Then, when every synth setting is of its
    kind, the errors of the synth section (``_synth_configs``)."""
    errors = {}
    for key, (_default, (what, ok)) in SETTINGS.items():
        *path, leaf = key.split(".")
        mapping = resolved
        for depth, part in enumerate(path):
            mapping = mapping.get(part)
            if not isinstance(mapping, dict):
                section = ".".join(path[:depth + 1])
                if mapping is not None:
                    errors.setdefault(section, f"{section} must be a "
                                      f"mapping, not {mapping!r}")
                break
        else:
            if leaf not in mapping:
                errors[key] = f"{key} missing from config"
            elif not ok(mapping[leaf]):
                errors[key] = f"{key} must be {what}, not {mapping[leaf]!r}"
            elif key in _DISTINCT and mapping[leaf] is not None:
                repeated = [repr(value) for value, count
                            in Counter(mapping[leaf]).items() if count > 1]
                if repeated:
                    errors[key] = (f"{key} names {', '.join(repeated)} "
                                   f"more than once")
    if any(key.partition(".")[0] == "synth" for key in errors):
        return list(errors.values())
    return [*errors.values(), *_synth_configs(resolved["synth"])[2]]


def _synth_configs(section, seed=0):
    """(SynthConfig, RewireConfig, errors) of a synth section whose
    settings are of their kinds; a config that cannot be built is None,
    with its ``synth: <reason>`` error. ``seed`` seeds the network and
    ``seed + 1`` the rewiring."""
    errors = []
    try:
        synth_cfg = synth_mod.SynthConfig(
            journals_per_publisher=section["journals_per_publisher"],
            component_size_range=tuple(section["component_size_range"]),
            out_degree_mean=float(section["out_degree_mean"]),
            out_degree_std=float(section["out_degree_std"]),
            in_degree_exponent=float(section["in_degree_exponent"]),
            seed=seed)
    except ValueError as exc:
        synth_cfg = None
        errors.append(f"synth: {exc}")
    try:
        rewire_cfg = synth_mod.RewireConfig(
            baseline_rate=float(section["baseline_rate"]),
            rewire_fraction=float(section["rewire_fraction"]),
            ensemble_count=section["ensemble_count"],
            seed=seed + 1)
    except ValueError as exc:
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
