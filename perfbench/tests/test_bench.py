"""Smoke tests of the benchmark: few-episode runs of every workload in both modes.

    python3 -m pytest -q perfbench/tests

The index-50k smoke run uses a 5,000-record corpus and one set-up so the
tests stay fast; everything else runs as the benchmark does.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import pkgutil

import aide
import pytest
from aide.config import ConfigParams
from aide.mock import MockPerception
from aide.perception import PerceptionError, SceneFrame
from aide.remote import RemotePerception
from aide.simulator import fresh_world, scripted_scenarios

import run
from speed import SpeedSampler
from standin import STANDIN_URL, JsonStandIn

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def snapshot() -> dict[str, object]:
    """Every module-level name and class attribute of the aide package."""
    names: dict[str, object] = {}
    for info in pkgutil.iter_modules(aide.__path__):
        module = importlib.import_module(f"aide.{info.name}")
        for name, value in vars(module).items():
            names[f"{module.__name__}.{name}"] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    names[f"{module.__name__}.{name}.{attr}"] = member
    return names


def changed(before: dict[str, object]) -> set[str]:
    now = snapshot()
    return {name for name, value in before.items() if now.get(name) is not value}


@pytest.fixture()
def small_bench(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)
    monkeypatch.setitem(
        run.WORKLOADS, "index-50k", dataclasses.replace(run.WORKLOADS["index-50k"], corpus_size=5000)
    )


def bench(workload: str, trace: int, capsys) -> tuple[str, dict]:
    argv = ["--workload", workload, "--seed", "100", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv + ["--episodes", "4"]) == 0
    out = capsys.readouterr().out
    return out, json.loads(out.strip().splitlines()[-1])


def test_metric_tables_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, small_bench, capsys):
    out, result = bench(workload, trace, capsys)
    assert result["correct"], out
    assert result["attempted"] == (8 if trace else 4)
    assert result["failed"] == 0
    table = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(table)
    printed = dict(line.split(" = ", 1) for line in out.splitlines() if " = " in line)
    for name, unit in table:
        assert printed[name].endswith(f" {unit}")


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_untraced_run_patches_only_the_step_timer_and_call_counter(
    workload, small_bench, monkeypatch, capsys
):
    before = snapshot()
    seen: list[set[str]] = []
    run_batch = run.run_batch

    def spy(*args, **kwargs):
        seen.append(changed(before))
        return run_batch(*args, **kwargs)

    monkeypatch.setattr(run, "run_batch", spy)
    _, result = bench(workload, 0, capsys)
    assert result["correct"]
    assert seen[0] == {"aide.planner.step", "aide.harness.MockPerception"}
    # remote-eval's second batch is the plain MockPerception comparison run.
    assert all(not names for names in seen[1:])
    assert not changed(before)


def test_traced_run_restores_every_patched_name(small_bench, monkeypatch, capsys):
    before = snapshot()
    seen: list[set[str]] = []
    run_batch = run.run_batch

    def spy(*args, **kwargs):
        seen.append(changed(before))
        return run_batch(*args, **kwargs)

    monkeypatch.setattr(run, "run_batch", spy)
    _, result = bench("remote-eval", 1, capsys)
    assert result["correct"]
    assert {"aide.planner.match_tool", "aide.space.RelationshipSpace.dfs_retrieve"} <= seen[1]
    assert "aide.remote.RemotePerception.similarity" in seen[1]
    assert not changed(before)


def test_output_change_is_reported():
    batch = run.Batch(
        start=(0.0, 0.0), end=(1.0, 1.0), ticks=4312, wsr=100.0, esr=99.0, outcomes=[],
        digest="0" * 64,
    )  # fmt: skip
    bad = run.Run(batches=[batch])
    assert run.check_reference(bad, run.CORPUS_SEED, run.DEFAULT_SEED, run.EPISODES) == (
        "output change"
    )
    assert any("output change" in p for p in bad.problems)


def test_seed_without_reference_is_checked_against_the_recorded_range():
    seed = 10**6
    ok = run.Batch(
        start=(0.0, 0.0), end=(1.0, 1.0), ticks=4316, wsr=100.0, esr=99.5, outcomes=[],
        digest="0" * 64,
    )  # fmt: skip
    good = run.Run(batches=[ok])
    assert "within the recorded range" in run.check_reference(
        good, run.CORPUS_SEED, seed, run.EPISODES
    )
    assert not good.problems
    bad = run.Run(batches=[dataclasses.replace(ok, esr=90.0)])
    assert run.check_reference(bad, run.CORPUS_SEED, seed, run.EPISODES) == "output change"
    assert any("esr_pct" in p for p in bad.problems)


def test_speed_sampler_scales_by_mean_speed_and_excludes_its_own_time():
    sampler = SpeedSampler()
    with sampler:
        start = sampler.mark()
        while len(sampler.seconds) < 3:
            pass
        end = sampler.mark()
    assert end[1] - start[1] == pytest.approx(end[0] - start[0] - sampler.spent)
    sampler.starts, sampler.seconds = [1.0, 2.0, 3.0], [0.001, 0.002, 0.004]
    sampler.__exit__(None, None, None)
    assert sampler.speed(0.0, 10.0) == pytest.approx((1.0 + 0.5 + 0.25) / 3)
    assert sampler.speed(2.0, 2.0) == pytest.approx(0.5)  # samples within PAD_S
    assert sampler.speed(1.5, 1.6) == pytest.approx((1.0 + 0.5) / 2)
    assert sampler.speed(9.0, 9.5) == pytest.approx(0.25)  # nearest sample
    assert sampler.nominal((1.0, 10.0), (4.0, 12.0)) == pytest.approx(2.0 * 1.75 / 3)


def test_standin_round_trip_and_backend_errors():
    world = fresh_world(scripted_scenarios()["clear_cup"])
    params = ConfigParams()
    mock = MockPerception(world, params, seed=3)
    client = RemotePerception(STANDIN_URL, transport=JsonStandIn(mock))
    assert client.score_affordance(world.instruction) == mock.score_affordance(world.instruction)
    assert client.similarity("a cup", "tool:drink:cup") == mock.similarity(
        "a cup", "tool:drink:cup"
    )
    frame = SceneFrame(image="frame:nowhere:0", width=10, height=10, timestamp=0.0)
    with pytest.raises(PerceptionError):
        client.detect(frame, ["cup"], 5)
