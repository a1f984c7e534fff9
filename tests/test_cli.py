from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import aide
from aide import cli, planner
from aide.cli import build_parser, main
from aide.config import ConfigParams, save_config
from aide.harness import events_path, render_report, run_eval
from aide.planner import write_trace
from aide.simulator import save_world, scripted_scenarios
from aide.space import load_space


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One corpus + space built through the CLI, reused across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "drafts.corpus"
    space = root / "space.json"
    assert main(["gen-corpus", "--out", str(corpus), "--count", "432", "--seed", "7"]) == 0
    assert main(["build-space", "--corpus", str(corpus), "--out", str(space), "--seed", "7"]) == 0
    return {"root": root, "corpus": corpus, "space": space}


def test_gen_corpus_and_build_space(artifacts):
    loaded = load_space(artifacts["space"])
    assert loaded.record_count > 0
    assert len(loaded.clusters) == 8


def test_eval_command_writes_report(artifacts, capsys):
    report = artifacts["root"] / "report.tsv"
    code = main(
        [
            "eval",
            "--space",
            str(artifacts["space"]),
            "--report",
            str(report),
            "--noise",
            "0",
            "--seed",
            "0",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "WSR\t100.0" in out
    assert report.exists()
    events = report.with_suffix(report.suffix + ".events.jsonl")
    assert events.exists()


def _fixed_clock(monkeypatch):
    """Make every tick latency and episode wall time a fixed step, so two
    runs of the same episodes write the same bytes."""
    monkeypatch.setattr(planner, "time", SimpleNamespace(perf_counter=itertools.count(0.0, 0.001).__next__))


def test_eval_streams_the_report_and_events_that_kept_traces_gave(artifacts, monkeypatch, capsys, tmp_path):
    # As the events were written before they were streamed: every trace kept
    # to the end of the eval, then the report and the events written from them.
    kept = tmp_path / "kept.tsv"
    traces = []
    _fixed_clock(monkeypatch)
    report = run_eval(
        load_space(artifacts["space"]),
        seed=3,
        episodes=6,
        trace_sink=lambda episode_id, trace: traces.append((episode_id, trace)),
    )
    kept.write_text(render_report(report), encoding="utf-8")
    for episode_id, trace in traces:
        write_trace(trace, events_path(kept), episode_id)

    streamed = tmp_path / "streamed.tsv"
    events_path(streamed).write_text("left from an earlier eval\n", encoding="utf-8")
    _fixed_clock(monkeypatch)
    argv = ["eval", "--space", str(artifacts["space"]), "--report", str(streamed), "--episodes", "6", "--seed", "3"]
    assert main(argv) == 0
    assert streamed.read_bytes() == kept.read_bytes()
    assert events_path(streamed).read_bytes() == events_path(kept).read_bytes()
    assert len(events_path(kept).read_text(encoding="utf-8").splitlines()) > 6


def test_eval_without_report_passes_no_trace_sink(artifacts, monkeypatch, capsys):
    sinks = []

    def spy(*args, **kwargs):
        sinks.append(kwargs["trace_sink"])
        return run_eval(*args, **kwargs)

    monkeypatch.setattr(cli, "run_eval", spy)
    assert main(["eval", "--space", str(artifacts["space"]), "--episodes", "2"]) == 0
    assert sinks == [None]


def test_eval_requires_space(tmp_path):
    assert main(["eval", "--report", str(tmp_path / "r.tsv")]) == 2


def test_ablate_retrieval_command(artifacts, capsys, tmp_path):
    report = tmp_path / "ablation.tsv"
    code = main(
        [
            "ablate-retrieval",
            "--corpus",
            str(artifacts["corpus"]),
            "--queries",
            "30",
            "--method",
            "affordance",
            "--seed",
            "3",
            "--report",
            str(report),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "method\tthreshold\tmean_time_s\taccuracy_pct" in out
    assert "\tES\t" in out
    assert report.read_text(encoding="utf-8") == out


def test_error_analysis_command(artifacts, capsys, tmp_path):
    report = tmp_path / "errors.tsv"
    code = main(
        [
            "error-analysis",
            "--space",
            str(artifacts["space"]),
            "--noise",
            "0",
            "--seed",
            "0",
            "--report",
            str(report),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "EDR\t100.0" in out
    assert "ERR\t100.0" in out
    assert report.read_text(encoding="utf-8") == out


def test_run_episode_batch(artifacts, capsys, tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    code = main(
        [
            "run-episode",
            "--space",
            str(artifacts["space"]),
            "--world",
            "occ_coke_fridge",
            "--noise",
            "0",
            "--report",
            str(trace_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "occ_coke_fridge: completed" in out
    lines = [json.loads(l) for l in trace_path.read_text().splitlines()]
    assert lines[-1]["final"] and lines[-1]["status"] == "completed"


def test_run_episode_unknown_world(artifacts, capsys):
    assert main(["run-episode", "--space", str(artifacts["space"]), "--world", "nope"]) == 2


def test_run_episode_interactive(artifacts, monkeypatch, tmp_path, capsys):
    # Break the reasoner mapping in a scenario file, then answer the prompt.
    worlds = scripted_scenarios()
    world = worlds["clear_cup"]
    world.tool_table.pop(world.instruction)
    scen_dir = tmp_path / "scenarios"
    scen_dir.mkdir()
    save_world(world, scen_dir / "clear_cup.json")
    answers = iter(["cup"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(answers))
    code = main(
        [
            "run-episode",
            "--space",
            str(artifacts["space"]),
            "--scenarios",
            str(scen_dir),
            "--world",
            "clear_cup",
            "--interactive",
            "--noise",
            "0",
        ]
    )
    assert code == 0
    assert "clear_cup: completed" in capsys.readouterr().out


def test_config_file_supplies_params(artifacts, tmp_path, capsys):
    config = tmp_path / "config.json"
    save_config(ConfigParams(c=12.0), config)
    code = main(
        ["run-episode", "--config", str(config), "--space", str(artifacts["space"])]
        + ["--world", "clear_brush", "--seed", "1", "--noise", "0"]
    )
    assert code == 0
    assert "clear_brush: completed" in capsys.readouterr().out


def test_negative_noise_is_an_error(artifacts, capsys):
    argv = ["eval", "--space", str(artifacts["space"]), "--episodes", "1", "--noise", "-1"]
    assert main(argv) == 2
    assert "sigma must be non-negative" in capsys.readouterr().err


def test_build_space_needs_out(artifacts, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["build-space", "--corpus", str(artifacts["corpus"])])
    assert excinfo.value.code == 2
    assert "--out" in capsys.readouterr().err


def test_config_rejects_bad_schema(tmp_path, capsys):
    bad = tmp_path / "config.json"
    bad.write_text('{"schema": "aide-config/9", "params": {}}')
    assert main(["run-episode", "--config", str(bad), "--world", "clear_cup"]) == 2
    assert "expected schema 'aide-config/1'" in capsys.readouterr().err


# One rejected input per error class that ``main`` catches; each input's own
# message is pinned where it is decided, in its loader's or function's tests.
@pytest.mark.parametrize(
    "document, argv, message",
    [
        (None, ["gen-corpus", "--count", "0", "--out", "{root}/x.corpus"], "corpus size must be positive"),
        (
            '{"schema": "aide-config/1", "params": {"sigma": -1}}',
            ["run-episode", "--config", "{doc}", "--world", "clear_cup"],
            "parameter 'sigma' is fixed at 0.5",
        ),
        ('{"schema": "aide-corpus/1"}', ["build-space", "--corpus", "{doc}", "--out", "{root}/s.aide"], "aide-corpus/2"),
        (None, ["eval", "--space", "{root}/missing.json"], "No such file or directory"),
        (None, ["eval", "--space", "{space}", "--scenarios", "{root}"], "no scenario files found"),
    ],
    ids=["ValueError", "ConfigError", "SpaceError", "OSError", "WorldError"],
)
def test_a_rejected_input_is_a_one_line_error(document, argv, message, artifacts, tmp_path, capsys):
    doc = tmp_path / "doc.json"
    if document is not None:
        doc.write_text(document)
    paths = {"root": tmp_path, "doc": doc, "space": artifacts["space"]}
    written = set(tmp_path.iterdir())
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"aide {argv[0]}: error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert set(tmp_path.iterdir()) == written  # no output file


def test_a_world_error_names_its_file(artifacts, tmp_path, capsys):
    # Among several worlds, the one whose object has no label is named.
    worlds = scripted_scenarios()
    for world_id in ("abs_cup", "clear_cup"):
        save_world(worlds[world_id], tmp_path / f"{world_id}.json")
    doc = json.loads((tmp_path / "clear_cup.json").read_text())
    doc["objects"][0]["label"] = None
    (tmp_path / "clear_cup.json").write_text(json.dumps(doc))
    assert main(["eval", "--space", str(artifacts["space"]), "--scenarios", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert f"{tmp_path / 'clear_cup.json'}: objects[0]: label: None is not a non-empty string" in err


# Arguments that satisfy each subcommand's required flags.
REQUIRED = {
    "gen-corpus": ["--out", "drafts.corpus"],
    "build-space": ["--corpus", "drafts.corpus", "--out", "space.json"],
    "ablate-retrieval": ["--corpus", "drafts.corpus"],
    "eval": [],
    "error-analysis": [],
}

# Flags a subcommand never read; each is now rejected instead of ignored.
UNREAD_FLAGS = [
    ("gen-corpus", "--space"),
    ("gen-corpus", "--scenarios"),
    ("gen-corpus", "--report"),
    ("gen-corpus", "--interactive"),
    ("gen-corpus", "--noise"),
    ("build-space", "--space"),
    ("build-space", "--scenarios"),
    ("build-space", "--report"),
    ("build-space", "--interactive"),
    ("build-space", "--noise"),
    ("ablate-retrieval", "--space"),
    ("ablate-retrieval", "--scenarios"),
    ("ablate-retrieval", "--interactive"),
    ("ablate-retrieval", "--noise"),
    ("eval", "--interactive"),
    ("error-analysis", "--interactive"),
]


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
def test_unread_flag_is_rejected(command, flag, capsys):
    value = [] if flag == "--interactive" else ["0.5" if flag == "--noise" else "x"]
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args([command, *REQUIRED[command], flag, *value])
    assert excinfo.value.code == 2
    assert flag in capsys.readouterr().err


def test_flag_slot_count():
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if a.choices and a.dest == "command"]
    slots = sum(
        1
        for sub in subparsers.choices.values()
        for action in sub._actions
        if action.option_strings and action.dest != "help"
    )
    assert slots == 39


def test_the_module_guard_exits_with_main_s_status(tmp_path):
    # ``python -m aide.cli`` runs ``main`` through the ``__main__`` guard: a
    # rejected input is still a one-line error with exit status 2.
    src = str(Path(aide.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "aide.cli", "gen-corpus", "--count", "0", "--out", str(tmp_path / "x.corpus")],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 2
    assert done.stderr == "aide gen-corpus: error: corpus size must be positive, got 0\n"
    assert not (tmp_path / "x.corpus").exists()
