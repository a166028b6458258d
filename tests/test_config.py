"""Config validation: every bad value ends as a ConfigError, CLI exit code 1."""

import copy
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gainbeam.cli import EXIT_CONFIG, main
from gainbeam.config import FilterConfig, ScenarioConfig
from gainbeam.errors import ConfigError

SCENARIO = {
    "schema_version": 1,
    "name": "valid-scenario",
    "potential": {"kind": "quadratic_linear", "omega": 1.0, "gamma": 1.0, "hermitian": False},
    "initial": {"q0": 0.0, "p0": -1.0, "b0": [0.0, 1.0], "norm0": 1.0, "alpha0": 0.0},
    "propagators": ["gaussian", "oracle"],
    "z_max": 0.1,
    "gaussian": {"dz": 1e-2},
    "grid": {"half_width": 8.0, "n_points": 256, "dz": 1e-2},
    "constants": {"hbar": 1.0, "n_zero": 1.0},
    "sample_stride": 1,
    "heatmap": False,
}

FILTER = {
    "schema_version": 1,
    "name": "valid-filter",
    "widths": [[0.0, 0.5], [0.0, 2.0]],
    "q0": 0.0,
    "p0": 0.0,
    "potential": {"kind": "quadratic_linear", "omega": 1.0, "gamma": 1.0, "hermitian": False},
    "z_max": 1.0,
    "dz": 1e-3,
    "probe_z": [0.01],
    "constants": {"hbar": 1.0, "n_zero": 1.0},
}

DOCUMENTS = {
    "scenario": (SCENARIO, ScenarioConfig, "run"),
    "filter": (FILTER, FilterConfig, "filter"),
}


def replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def paths(node, prefix=()):
    """Path of every value inside a document, containers included."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return []
    return [p for key, child in children for p in [prefix + (key,), *paths(child, prefix + (key,))]]


ESCAPES = [
    ("filter", ("constants", "hbar"), 0),
    ("filter", ("probe_z",), ["a"]),
    ("filter", ("probe_z",), [None]),
    ("filter", ("name",), 5),
    ("scenario", ("potential", "hermitian"), "no"),
    ("filter", ("potential", "hermitian"), "no"),
    ("filter", ("widths", 1), [math.nan, 1.0]),
    ("filter", ("widths", 1), [0.0, math.inf]),
    ("filter", ("probe_z",), [True]),
    ("scenario", ("initial", "b0"), [math.nan, 1.0]),
    ("scenario", ("grid", "half_width"), "a"),
    ("scenario", ("propagators",), [[1]]),
    ("scenario", ("potential", "omega"), 0),
    ("scenario", ("constants", "n_zero"), 2.0),
    ("filter", ("constants", "n_zero"), 2.0),
    ("scenario", ("name",), "../../escaped"),
    ("filter", ("name",), "../../escaped"),
    ("scenario", ("name",), ".."),
    ("filter", ("name",), "."),
    ("scenario", ("name",), "a\\b"),
    ("filter", ("name",), "a\0b"),
    ("scenario", ("gaussian", "dz"), 1e-30),
    ("filter", ("dz",), 1e-30),
    ("scenario", ("initial", "norm0"), 0.0),
    ("scenario", ("potential", "omega"), 1e300),
    ("filter", ("potential", "omega"), 1e-170),
    ("scenario", ("grid", "half_width"), 5e-324),
    ("scenario", ("initial", "b0"), [1e300, 1.0]),
    ("filter", ("widths", 0), [1.0, 1e200]),
    ("scenario", ("initial", "b0"), [0.0, 5e-324]),
    ("filter", ("widths", 0), [0.0, 5e-324]),
]


@pytest.mark.parametrize(
    "kind, path, value",
    ESCAPES,
    ids=[f"{kind}.{'.'.join(map(str, path))}={value!r}" for kind, path, value in ESCAPES],
)
def test_bad_value_is_config_error(kind, path, value, tmp_path):
    doc, cls, command = DOCUMENTS[kind]
    bad = replaced(doc, path, value)
    with pytest.raises(ConfigError):
        cls.from_dict(bad)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(bad))
    assert main([command, str(config), "--out-dir", str(tmp_path / "out"), "--quiet"]) == EXIT_CONFIG


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
def test_escaping_name_writes_nothing(kind, tmp_path, monkeypatch):
    # without --out-dir a run writes to runs/<name> below the working directory
    doc, _, command = DOCUMENTS[kind]
    work = tmp_path / "a" / "b"
    work.mkdir(parents=True)
    monkeypatch.chdir(work)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(replaced(doc, ("name",), "../../escaped")))
    assert main([command, str(config), "--quiet"]) == EXIT_CONFIG
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a", "b", "config.json"]


@pytest.mark.parametrize(
    "kind, changes, field",
    [
        ("scenario", [(("gaussian", "dz"), 1e-30)], "gaussian.dz"),
        ("scenario", [(("propagators",), ["grid"]), (("grid", "dz"), 1e-30)], "grid.dz"),
        ("filter", [(("dz",), 1e-30)], "dz"),
    ],
)
def test_step_count_must_fit(kind, changes, field):
    # 1e-30 fails before any allocation; a count that fits but is huge would not
    doc, cls, _ = DOCUMENTS[kind]
    for path, value in changes:
        doc = replaced(doc, path, value)
    with pytest.raises(ConfigError, match=rf"^{field} = 1e-30 gives"):
        cls.from_dict(doc)


def test_step_override_must_fit(tmp_path, capsys):
    argv = ["run-builtin", "fig7-top", "--dz", "1e-30", "--z-max", "1e-3"]
    assert main([*argv, "--out-dir", str(tmp_path / "out"), "--quiet"]) == EXIT_CONFIG
    assert "gaussian.dz = 1e-30" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_grid_only_scenario_keeps_n_zero():
    # n_zero reaches the grid's kinetic step only, so only a grid-only run may set it
    doc = replaced(replaced(SCENARIO, ("propagators",), ["grid"]), ("constants", "n_zero"), 2.0)
    assert ScenarioConfig.from_dict(doc).constants.n_zero == 2.0


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
def test_valid_documents_round_trip(kind):
    doc, cls, _ = DOCUMENTS[kind]
    assert cls.from_dict(doc).to_dict() == doc


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=6,
)


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(sorted(DOCUMENTS)), data=st.data())
def test_any_replacement_gives_config_or_config_error(kind, data):
    doc, cls, _ = DOCUMENTS[kind]
    path = data.draw(st.sampled_from(paths(doc)))
    try:
        config = cls.from_dict(replaced(doc, path, data.draw(JSON_VALUES)))
    except ConfigError:
        return
    assert cls.from_dict(config.to_dict()) == config
