import inspect
import json
import re
import sys
from pathlib import Path

import pytest
import yaml

from citnet.authors import SimilarityWeights
from citnet.cli import main as cli_main
from citnet.config import SETTINGS
from citnet.corpus import DEFAULT_YEAR_RANGE
from citnet.impact import build_normalization_table
from citnet.matching import build_registry
from citnet.novelty import ShuffleConfig
from citnet.pipeline import ConfigError, RunConfig, config_hash, load_config
from citnet.synth import RewireConfig, SynthConfig

from conftest import PIPELINE_CONFIG, write_pipeline_config

ROOT = Path(__file__).resolve().parents[1]


def _fixture_config():
    return json.loads(json.dumps(PIPELINE_CONFIG))


def _readme_config():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return yaml.safe_load(re.search(r"```yaml\n(.*?)```", readme, re.S)
                          .group(1))


def _benchmark_config(kind, scale=1.0):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    if kind == "pipeline":
        return workloads.pipeline_config(1)
    return {"seed": 1, "output": "out", "synth": workloads.synth_section(scale)}


@pytest.mark.parametrize("make_raw", [
    _fixture_config,
    _readme_config,
    lambda: _benchmark_config("pipeline"),
    lambda: _benchmark_config("synth", 1.0),
    lambda: _benchmark_config("synth", 0.1),
], ids=["fixture", "readme", "bench-pipeline", "bench-synth", "bench-synth-0.1"])
def test_known_configs_load(make_raw):
    raw = make_raw()
    config = RunConfig(raw=raw)
    for section, value in raw.items():
        if isinstance(value, dict):
            for key, setting in value.items():
                assert config[section][key] == setting
        else:
            assert config[section] == value


@pytest.mark.parametrize("raw, name, hint", [
    ({"jnet": {"window": [2]}}, "jnet.window", "did you mean windows?"),
    ({"stage": ["impact"]}, "stage", "did you mean stages?"),
    ({"synth": {"ensembles": 3}}, "synth.ensembles",
     "did you mean ensemble_count?"),
    ({"corpus": {"paper": "p.jsonl"}}, "corpus.paper",
     "did you mean papers?"),
    ({"authors": {"weights": {"self_cite": 1.0}}}, "authors.weights.self_cite",
     "did you mean self_citation?"),
    # closest is ensemble_count, too far to be the key meant
    ({"synth": {"publisher_count": 5}}, "synth.publisher_count",
     "known keys: "),
])
def test_unknown_key_names_section_and_closest_key(raw, name, hint):
    with pytest.raises(ConfigError) as err:
        RunConfig(raw=raw)
    assert f"unknown config key {name};" in str(err.value)
    assert hint in str(err.value)
    assert ("did you mean" in str(err.value)) == hint.startswith("did you")


def test_cli_rejects_typo_with_exit_2(tmp_path, pipeline_files, capsys):
    config_path = write_pipeline_config(tmp_path, pipeline_files,
                                        tmp_path / "o",
                                        extra={"jnet": {"window": [2]}})
    assert cli_main(["validate", "--config", str(config_path)]) == 2
    assert "jnet.window" in capsys.readouterr().err


def test_cli_reports_yaml_syntax_error_with_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("seed: [1,\n", encoding="utf-8")
    assert cli_main(["validate", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(bad) in err


def _write_config(tmp_path, pipeline_files, key, value):
    """The fixture config, output under ``tmp_path/o``, with the dotted
    ``key`` set to ``value``; returns its path."""
    path = write_pipeline_config(tmp_path, pipeline_files, tmp_path / "o")
    config = yaml.safe_load(path.read_text(encoding="utf-8"))
    *sections, leaf = key.split(".")
    mapping = config
    for section in sections:
        mapping = mapping.setdefault(section, {})
    mapping[leaf] = value
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    return path


def _assert_refused(tmp_path, config_path, name, commands):
    """``validate()`` names ``name`` and never raises; each command exits
    2 and no CSV is written."""
    assert any(name in error for error in load_config(config_path).validate())
    for command in commands:
        assert cli_main([command, "--config", str(config_path)]) == 2
    assert not list(tmp_path.rglob("*.csv"))


# one value of the wrong kind per setting of the table
WRONG = {
    "corpus.papers": 5,
    "corpus.journals": "",
    "corpus.publishers": ["publishers.csv"],
    "year_range": ["a", "b"],
    "seed": "3",
    "threads": "two",
    "output": 5,
    "stages": "impact",
    "impact.years": ["x"],
    "impact.reference_year": "abc",
    "impact.market_share": "no",
    "matching.year": "abc",
    "matching.impact_kind": "norm",
    "selfcite.window": "x",
    "selfcite.include_self_journal": "no",
    "selfcite.rate_years": ["x"],
    "selfcite.query_file": 5,
    "jnet.year": "x",
    "jnet.windows": ["abc"],
    "jnet.link_types": "citation",
    "novelty.ensemble_count": 2.5,
    "novelty.swaps_per_edge": "many",
    "novelty.collapse_multiplicity": "maybe",
    "disruption.window": "x",
    "disruption.by_journal": "no",
    "authors.weights": 5,
    "authors.weights.self_citation": "half",
    "authors.weights.shared_author": None,
    "authors.weights.shared_citation": float("nan"),
    "authors.weights.shared_reference": True,
    "authors.pair_threshold": "1.0",
    "authors.group_threshold": None,
    "synth.grid": "x",
    "synth.journals_per_publisher": 2.5,
    "synth.component_size_range": "wide",
    "synth.out_degree_mean": "x",
    "synth.out_degree_std": None,
    "synth.in_degree_exponent": "3",
    "synth.baseline_rate": True,
    "synth.rewire_fraction": [3],
    "synth.ensemble_count": "3",
}


@pytest.mark.parametrize("key", list(SETTINGS))
def test_every_setting_refuses_a_value_of_the_wrong_kind(
        tmp_path, pipeline_files, monkeypatch, key):
    """A setting added to the table without a check (or without a wrong
    value here) fails this test."""
    monkeypatch.chdir(tmp_path)     # where a relative output would go
    config_path = _write_config(tmp_path, pipeline_files, key, WRONG[key])
    errors = load_config(config_path).validate()
    assert any(error.startswith(f"{key} must be ") for error in errors), \
        errors
    _assert_refused(tmp_path, config_path, key, ("validate", "run", "synth"))


@pytest.mark.parametrize("key, value, message", [
    ("corpus", {"papers": 5}, "corpus.papers must be a non-empty string"),
    ("selfcite", {"query_file": 5},
     "selfcite.query_file must be null or a non-empty string"),
    ("authors", {"weights": 5}, "authors.weights must be null or a mapping"),
    ("novelty", "x", "novelty must be a mapping, not 'x'"),
    ("impact", 5, "impact must be a mapping, not 5"),
    ("stages", "impact", "stages must be a list drawn from impact, "
     "matching, selfcite, jnet, novelty, disruption and authors, "
     "not 'impact'"),
    ("matching", {"year": "2016"},
     "matching.year must be null or an integer year, not '2016'"),
])
def test_validate_names_a_misshapen_setting_without_raising(
        tmp_path, pipeline_files, key, value, message):
    config_path = write_pipeline_config(tmp_path, pipeline_files,
                                        tmp_path / "o", extra={key: value})
    assert message in "; ".join(load_config(config_path).validate())
    # match and net run stages of their own choosing
    commands = ("validate", "run", "synth") + (
        () if key == "stages" else ("match", "net"))
    _assert_refused(tmp_path, config_path, message, commands)


@pytest.mark.parametrize("key, value, message", [
    ("impact.years", [2001, 2002, 2001], "impact.years names 2001 more than "
     "once"),
    ("selfcite.rate_years", [2001, 2001], "selfcite.rate_years names 2001 "
     "more than once"),
    ("jnet.windows", [2, 1, 2], "jnet.windows names 2 more than once"),
    ("jnet.link_types", ["citation", "reference", "citation"],
     "jnet.link_types names 'citation' more than once"),
    ("synth.grid", [0, 10, 0.0, 10], "synth.grid names 0, 10 more than once"),
])
def test_a_list_setting_names_each_value_once(tmp_path, pipeline_files, key,
                                              value, message):
    config_path = _write_config(tmp_path, pipeline_files, key, value)
    assert load_config(config_path).validate() == [message]
    _assert_refused(tmp_path, config_path, message,
                    ("validate", "run", "match", "net", "synth"))


def test_a_repeated_stage_is_accepted(tmp_path, pipeline_files):
    config_path = _write_config(tmp_path, pipeline_files, "stages",
                                ["impact", "impact"])
    assert load_config(config_path).validate() == []


def _without(config_path, section):
    """A copy of the config at ``config_path`` without ``section``."""
    raw = yaml.safe_load(config_path.read_text(encoding="utf-8"))
    raw.pop(section, None)
    path = config_path.with_name(f"no-{section}.yaml")
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    return path


def test_a_null_synth_section_validates_like_an_absent_one(tmp_path,
                                                           pipeline_files):
    config_path = write_pipeline_config(tmp_path, pipeline_files,
                                        tmp_path / "o", extra={"synth": None})
    null, absent = (load_config(path) for path in
                    (config_path, _without(config_path, "synth")))
    assert null.validate() == absent.validate() == []
    assert null["synth"] == absent["synth"]


def test_a_null_novelty_section_runs_at_its_defaults(tmp_path,
                                                     pipeline_files):
    """A section written with all of its keys commented out is null in
    YAML: it means the section's defaults, as an absent one does."""
    config_path = write_pipeline_config(
        tmp_path, pipeline_files, tmp_path / "null",
        extra={"novelty": None, "stages": ["novelty"]})
    absent = _without(config_path, "novelty")
    assert config_hash(load_config(config_path)) == \
        config_hash(load_config(absent))
    assert cli_main(["run", "--config", str(config_path)]) == 0
    assert cli_main(["run", "--config", str(absent),
                     "--out", str(tmp_path / "absent")]) == 0
    assert (tmp_path / "null" / "novelty.csv").read_bytes() == \
        (tmp_path / "absent" / "novelty.csv").read_bytes()


def _parameter_default(function, name):
    return inspect.signature(function).parameters[name].default


# each setting whose default is also a library default, and that default
LIBRARY_DEFAULTS = {
    "year_range": DEFAULT_YEAR_RANGE,
    "seed": ShuffleConfig().seed,
    "impact.reference_year": _parameter_default(build_normalization_table,
                                                "reference_year"),
    "matching.impact_kind": _parameter_default(build_registry,
                                               "impact_kind"),
    "novelty.ensemble_count": ShuffleConfig().ensemble_count,
    "novelty.swaps_per_edge": ShuffleConfig().swaps_per_edge,
    "novelty.collapse_multiplicity": ShuffleConfig().collapse_multiplicity,
    "authors.pair_threshold": SimilarityWeights().pair_threshold,
    "authors.group_threshold": SimilarityWeights().group_threshold,
    "synth.journals_per_publisher": SynthConfig().journals_per_publisher,
    "synth.component_size_range": SynthConfig().component_size_range,
    "synth.out_degree_mean": SynthConfig().out_degree_mean,
    "synth.out_degree_std": SynthConfig().out_degree_std,
    "synth.in_degree_exponent": SynthConfig().in_degree_exponent,
    "synth.baseline_rate": RewireConfig().baseline_rate,
    "synth.rewire_fraction": RewireConfig().rewire_fraction,
    "synth.ensemble_count": RewireConfig().ensemble_count,
}


@pytest.mark.parametrize("key", list(LIBRARY_DEFAULTS))
def test_setting_default_equals_the_library_default(key):
    default = SETTINGS[key][0]
    if isinstance(default, list):
        default = tuple(default)
    assert default == LIBRARY_DEFAULTS[key]
    assert type(default) is type(LIBRARY_DEFAULTS[key])


def test_readme_lists_every_setting():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    settings = re.search(r"\n### Settings\n(.*?)\n#", readme, re.S).group(1)
    listed = re.findall(r"^\* `([a-z_.]+)`", settings, re.M)
    assert listed == list(SETTINGS)


def test_benchmark_config_hash_is_pinned():
    """The table resolves a config to the same settings as before it."""
    config = RunConfig(raw=_benchmark_config("pipeline"))
    assert config_hash(config) == ("302d6e15c4a1d4eaccc813da99e1420f0f2e848"
                                   "4fdb912e799b34deebada71e2")
