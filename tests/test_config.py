from __future__ import annotations

import ast
import dataclasses
import json
import re
from pathlib import Path

import pytest

import aide
from aide import mock, planner, simulator
from aide.cli import build_parser, main
from aide.config import ConfigError, ConfigParams, load_config, save_config

# The eleven dropped fields at the value every earlier save wrote for them.
SAVED_RETIRED_KEYS = {
    "T": None,
    "frame_size": 800,
    "view_range": 40.0,
    "visible_candidate_max_rank": None,
    "A": 432,
    "sigma": 0.5,
    "frame_period": 100.0,
    "epsilon": 1e-6,
    "confidence_lambda": 5.0,
    "blur_range": 8.0,
    "max_subgoal_depth": 4,
}


def test_default_operating_point():
    p = ConfigParams()
    assert (p.X, p.a, p.b) == (19, 8, 3)
    assert (p.D, p.c, p.d) == (25.0, 10.0, 15.0)
    assert (p.m, p.N, p.N_prime, p.PX) == (0.85, 5, 40, 250)
    assert p.strategy_threshold == 0.75
    assert p.validity_threshold == 0.5
    assert (p.r_near, p.approach_speed) == (1.0, 0.5)
    assert p.detection_budget == max(p.N_prime, 2 * p.N) == 40


def test_invariants_enforced():
    with pytest.raises(ConfigError):
        ConfigParams(N=40, N_prime=40)
    with pytest.raises(ConfigError):
        ConfigParams(N=0)  # no detection could ever be scored for grounding
    with pytest.raises(ConfigError):
        ConfigParams(PX=-1)
    with pytest.raises(ConfigError):
        ConfigParams(m=1.0)
    with pytest.raises(ConfigError):
        ConfigParams(m=0.0)
    with pytest.raises(ConfigError):
        ConfigParams(c=-1.0)
    with pytest.raises(ConfigError):
        ConfigParams(a=0)


@pytest.mark.parametrize("name", ["D", "c", "d"])
def test_a_nan_distance_is_rejected(name):
    # A NaN radius compares false both ways, so it would pass a plain "< 0" check.
    with pytest.raises(ConfigError, match=f"distance {name} must be non-negative"):
        ConfigParams(**{name: float("nan")})


def test_round_trip(tmp_path):
    source = ConfigParams(approach_speed=0.25, c=12.0, N=7)
    path = tmp_path / "config.json"
    save_config(source, path)
    assert "paths" not in json.loads(path.read_text())
    assert load_config(path) == source


@pytest.mark.parametrize("paths", [{}, None], ids=["empty", "absent"])
def test_load_accepts_an_empty_or_absent_paths_section(tmp_path, paths):
    # What save_config wrote by default before paths were set by flags alone.
    doc = {"schema": "aide-config/1", "params": {"c": 12.0}}
    if paths is not None:
        doc["paths"] = paths
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert load_config(path) == ConfigParams(c=12.0)


@pytest.mark.parametrize("paths", [{"space": "space.json"}, ["space.json"], "space.json"])
def test_load_rejects_paths_and_names_the_flags(tmp_path, paths):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schema": "aide-config/1", "params": {}, "paths": paths}))
    with pytest.raises(ConfigError, match="--space, --scenarios, --report or --out"):
        load_config(path)


def test_load_rejects_unknown_parameters(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"schema": "aide-config/1", "params": {"bogus": 1}}')
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_rejects_wrong_schema_and_garbage(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"schema": "aide-config/2", "params": {}}')
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("[]")
    with pytest.raises(ConfigError, match="expected schema"):
        load_config(path)


def write_config(path, params: dict) -> None:
    path.write_text(json.dumps({"schema": "aide-config/1", "params": params, "paths": {}}))


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("N", True, "True is not an integer"),  # ran as N = 1
        ("N", 5.5, "5.5 is not an integer"),
        ("N_prime", 40.5, "40.5 is not an integer"),
        ("X", 19.0, "19.0 is not an integer"),
        ("c", "10", "'10' is not a number"),  # a TypeError traceback before
    ],
)
def test_a_value_of_the_wrong_json_type_is_a_one_line_config_error(tmp_path, capsys, key, value, message):
    # Each field is read at its JSON type, as a space header's numbers are.
    path = tmp_path / "config.json"
    write_config(path, {key: value})
    with pytest.raises(ConfigError, match=f"parameter '{key}': {re.escape(message)}"):
        load_config(path)
    assert main(["run-episode", "--config", str(path), "--world", "clear_cup"]) == 2
    err = capsys.readouterr().err
    assert err == f"aide run-episode: error: parameter '{key}': {message}\n"


def test_an_int_for_a_float_field_reads_as_that_float(tmp_path):
    path = tmp_path / "config.json"
    write_config(path, {"c": 12, "D": 25})
    assert load_config(path) == ConfigParams(c=12.0, D=25.0)
    assert type(load_config(path).c) is float


def test_load_accepts_dropped_keys_at_their_saved_values(tmp_path):
    source = ConfigParams(approach_speed=0.25, c=12.0)
    path = tmp_path / "config.json"
    write_config(path, {**source.to_dict(), **SAVED_RETIRED_KEYS})
    assert load_config(path) == source


@pytest.mark.parametrize(
    "key, value",
    [
        ("visible_candidate_max_rank", 12),
        ("frame_size", 400),
        ("view_range", 20.0),
        ("T", 300),
        ("A", 1000),
        ("sigma", 0.0),
        ("frame_period", 50.0),
        ("epsilon", 1e-3),
        ("confidence_lambda", 10.0),
        ("blur_range", 20.0),
        ("max_subgoal_depth", 2),
    ],
)
def test_load_rejects_dropped_keys_with_other_values(tmp_path, key, value):
    path = tmp_path / "config.json"
    write_config(path, {**ConfigParams().to_dict(), key: value})
    fixed = repr(SAVED_RETIRED_KEYS[key])
    with pytest.raises(ConfigError, match=rf"'{key}' is fixed at {re.escape(fixed)}"):
        load_config(path)


def test_retired_settings_keep_their_saved_values_as_constants():
    # A saved document that holds one of these loads as the code now runs.
    count = build_parser().parse_args(["gen-corpus", "--out", "drafts.corpus"]).count
    assert SAVED_RETIRED_KEYS["A"] == count
    assert SAVED_RETIRED_KEYS["sigma"] == mock.DEFAULT_SIGMA
    assert 1.0 - SAVED_RETIRED_KEYS["epsilon"] == mock.SIMILARITY_CAP
    assert SAVED_RETIRED_KEYS["confidence_lambda"] == mock._CONFIDENCE_LAMBDA
    assert SAVED_RETIRED_KEYS["frame_period"] == simulator.FRAME_PERIOD_MS
    assert SAVED_RETIRED_KEYS["blur_range"] == simulator.BLUR_RANGE
    assert SAVED_RETIRED_KEYS["max_subgoal_depth"] == planner.MAX_SUBGOAL_DEPTH


def _params_fields_read(source: str) -> set[str]:
    """Attribute names read as ``params.<name>`` or ``self.params.<name>``."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if isinstance(base, ast.Name) and base.id == "params":
            read.add(node.attr)
        elif (
            isinstance(base, ast.Attribute)
            and base.attr == "params"
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
        ):
            read.add(node.attr)
    return read


def test_every_param_is_read_outside_config():
    package = Path(aide.__file__).parent
    read = set()
    for path in package.glob("*.py"):
        if path.name != "config.py":
            read |= _params_fields_read(path.read_text(encoding="utf-8"))
    fields = {f.name for f in dataclasses.fields(ConfigParams)}
    assert sorted(fields - read) == []
    assert len(fields) == 14
