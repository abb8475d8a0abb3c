import json
import re
import sys
from pathlib import Path

import pytest
import yaml

from citnet.cli import main as cli_main
from citnet.config import SETTINGS
from citnet.pipeline import ConfigError, RunConfig, config_hash, load_config

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
