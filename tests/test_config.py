from __future__ import annotations

import pytest

from aide.config import ConfigError, ConfigParams, load_config, save_config


def test_default_operating_point():
    p = ConfigParams()
    assert (p.X, p.a, p.b) == (19, 8, 3)
    assert (p.D, p.c, p.d) == (25.0, 10.0, 15.0)
    assert (p.m, p.N, p.N_prime, p.PX) == (0.85, 5, 40, 250)
    assert p.strategy_threshold == 0.75
    assert p.validity_threshold == 0.5
    assert p.frame_period == 100.0
    assert p.candidate_max_rank == 2 * p.N


def test_invariants_enforced():
    with pytest.raises(ConfigError):
        ConfigParams(N=40, N_prime=40)
    with pytest.raises(ConfigError):
        ConfigParams(N=0)  # no detection could ever be scored for grounding
    with pytest.raises(ConfigError):
        ConfigParams(T=500)  # above A
    with pytest.raises(ConfigError):
        ConfigParams(m=1.0)
    with pytest.raises(ConfigError):
        ConfigParams(m=0.0)
    with pytest.raises(ConfigError):
        ConfigParams(c=-1.0)
    with pytest.raises(ConfigError):
        ConfigParams(a=0)


def test_round_trip_with_paths(tmp_path):
    source = ConfigParams(sigma=0.25, c=12.0, visible_candidate_max_rank=12)
    path = tmp_path / "config.json"
    save_config(source, path, paths={"space": "space.json", "report": "out.tsv"})
    loaded, paths = load_config(path)
    assert loaded == source
    assert paths == {"space": "space.json", "report": "out.tsv"}


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


def test_with_overrides():
    p = ConfigParams().with_overrides(sigma=0.0, approach_speed=0.01)
    assert p.sigma == 0.0
    assert p.approach_speed == 0.01
    assert p.m == 0.85
