import json
import re
import sys
from pathlib import Path

import pytest
import yaml

from citnet.cli import main as cli_main
from citnet.pipeline import ConfigError, RunConfig

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
])
def test_unknown_key_names_section_and_closest_key(raw, name, hint):
    with pytest.raises(ConfigError) as err:
        RunConfig(raw=raw)
    assert f"unknown config key {name};" in str(err.value)
    assert hint in str(err.value)


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
