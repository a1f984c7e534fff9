"""``tools/ab.py`` on a faked runner: argument parsing, pairing and verdicts,
with no benchmark run and no git export."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

END_TO_END = json.loads((ab.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


@pytest.mark.parametrize(
    ("text", "seeds"),
    [("0-9", list(range(10))), ("4", [4]), ("0,2,5-7", [0, 2, 5, 6, 7])],
)
def test_seeds_are_ranges_and_lists(text, seeds):
    assert ab.parse_seeds(text) == seeds


@pytest.mark.parametrize("text", ["3-1", "1,1", "x"])
def test_seeds_that_name_none_or_one_twice_are_rejected(text, capsys):
    with pytest.raises(SystemExit) as exc:
        ab.parse_args(["--base", "HEAD", "--label", "x", "--seeds", text], ["ref-eval"])
    assert exc.value.code == 2


def test_arguments_default_to_the_worktree_every_workload_and_ten_seeds(capsys):
    args = ab.parse_args(["--base", "HEAD~1", "--label", "x"], ["ref-eval", "index-50k"])
    assert (args.change, args.workloads, args.seeds) == ("worktree", ["ref-eval", "index-50k"], list(range(10)))
    for argv in (["--label", "x"], ["--base", "HEAD"], ["--base", "HEAD", "--label", "x", "--workloads", "nope"]):
        with pytest.raises(SystemExit):
            ab.parse_args(argv, ["ref-eval"])
    assert args.claim == []


@pytest.mark.parametrize("claim", ["index-50k:ticks_per_s", "ref-eval:nope", "ref-eval", "ticks_per_s"])
def test_a_claim_names_a_workload_that_runs_and_a_metric(claim, capsys):
    argv = ["--base", "HEAD", "--label", "x", "--workloads", "ref-eval", "--claim", claim]
    with pytest.raises(SystemExit) as exc:
        ab.parse_args(argv, ["ref-eval", "index-50k"], ["ticks_per_s", "tick_p50_ms"])
    assert exc.value.code == 2 and "names no workload:metric" in capsys.readouterr().err
    argv[-1:] = ["ref-eval:ticks_per_s", "--claim", "ref-eval:tick_p50_ms"]
    args = ab.parse_args(argv, ["ref-eval", "index-50k"], ["ticks_per_s", "tick_p50_ms"])
    assert args.claim == ["ref-eval:ticks_per_s", "ref-eval:tick_p50_ms"]


def _result(**values) -> dict:
    # Every end-to-end metric at 100, but those given.
    metrics = {spec["name"]: {"value": values.get(spec["name"], 100.0), "unit": ""} for spec in END_TO_END}
    return {"correct": True, "attempted": 200, "failed": 0, "metrics": metrics}


def _fake(results):
    """An export that copies nothing and a runner that answers from ``results``,
    keyed by side and workload; it records the order of the runs."""
    calls = []

    def export(rev, into):
        return {"rev": rev, "commit": f"commit-of-{rev}"}

    def runner(side_dir, workload, seed):
        calls.append((side_dir.name, workload, seed))
        return results(side_dir.name, workload, seed)

    return export, runner, calls


def test_three_pairs_alternate_and_each_metric_gets_its_verdict(tmp_path, monkeypatch):
    def results(side, workload, seed):
        if side == "base":
            return _result(ticks_per_s=100.0 + seed, tick_p50_ms=1.0, peak_rss_mb=50.0 + seed)
        # Faster in every pair, slower ticks at the median by more than the
        # 25% bound, and a peak that wins only one pair in three.
        return _result(ticks_per_s=120.0 + seed, tick_p50_ms=1.3, peak_rss_mb=(49.0, 51.0, 53.0)[seed])

    export, runner, calls = _fake(results)
    monkeypatch.chdir(tmp_path)
    argv = ["--base", "v1", "--workloads", "ref-eval", "--seeds", "0-2", "--label", "smoke"]
    assert ab.main([*argv, "--claim", "ref-eval:ticks_per_s"], runner=runner, export_side=export) == 0
    assert calls == [
        ("base", "ref-eval", 0), ("change", "ref-eval", 0),
        ("change", "ref-eval", 1), ("base", "ref-eval", 1),
        ("base", "ref-eval", 2), ("change", "ref-eval", 2),
    ]  # fmt: skip
    report = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert (report["base"]["commit"], report["change"]["rev"]) == ("commit-of-v1", "worktree")
    assert report["seeds"] == [0, 1, 2] and set(report["machine"]) >= {"platform", "cpu_count", "python"}
    assert report["claims"] == ["ref-eval:ticks_per_s"]
    summary = report["workloads"]["ref-eval"]
    assert [run["first"] for run in summary["runs"]] == ["base", "change", "base"]
    metrics = summary["metrics"]
    assert set(metrics) == {spec["name"] for spec in END_TO_END}
    ticks = metrics["ticks_per_s"]
    assert (ticks["base"], ticks["change"]) == ([100.0, 101.0, 102.0], [120.0, 121.0, 122.0])
    assert (ticks["base_median"], ticks["change_median"], ticks["wins"], ticks["pairs"]) == (101.0, 121.0, 3, 3)
    assert (ticks["claimed"], ticks["sign_p"], ticks["verdict"]) == (True, 0.25, "better")
    assert metrics["tick_p50_ms"]["verdict"] == "worse"
    assert metrics["tick_p50_ms"]["change_vs_base"] == pytest.approx(0.3)
    assert (metrics["peak_rss_mb"]["wins"], metrics["peak_rss_mb"]["verdict"]) == (1, "no difference")
    assert metrics["wsr_pct"]["verdict"] == "no difference" and metrics["wsr_pct"]["wins"] == 0
    assert summary["failed_share"] == {"base": 0.0, "change": 0.0, "verdict": "no difference"}


def test_a_gain_inside_the_base_spread_is_no_difference():
    # A claimed gain, better in three pairs of three, but by less than the
    # base runs' IQR.
    compared = ab.compare([100.0, 110.0, 120.0], [101.0, 111.0, 121.0], "higher", 0.25, claimed=True)
    assert (compared["wins"], compared["verdict"]) == (3, "no difference")
    # Runs that spread wider than the bound leave a small difference unresolved.
    assert ab.compare([50.0, 100.0, 150.0], [52.0, 98.0, 149.0], "lower", 0.25)["verdict"] == "unresolved"
    # A lower-is-better metric worse by exactly its bound is not yet worse,
    # only slower: it lost its one pair.
    assert ab.compare([10.0], [11.0], "lower", 0.1)["verdict"] == "slower"
    assert ab.compare([10.0], [11.5], "lower", 0.1)["verdict"] == "worse"


def test_a_workload_with_a_run_that_is_not_correct_is_refused(tmp_path, monkeypatch, capsys):
    def results(side, workload, seed):
        if (side, workload, seed) == ("change", "index-50k", 1):
            return {**_result(), "correct": False}
        return _result()

    export, runner, _ = _fake(results)
    monkeypatch.chdir(tmp_path)
    argv = ["--base", "v1", "--change", "v2", "--workloads", "ref-eval", "index-50k", "--seeds", "0-2", "--label", "r"]
    assert ab.main(argv, runner=runner, export_side=export) == 1
    report = json.loads((tmp_path / "BENCH_r.json").read_text())
    assert "metrics" in report["workloads"]["ref-eval"]
    refused = report["workloads"]["index-50k"]
    assert refused["refused"] == ["seed 1 change: not correct"] and "metrics" not in refused
    assert "index-50k: refused" in capsys.readouterr().out


def test_nine_losses_in_ten_beyond_the_base_spread_read_slower(tmp_path, monkeypatch):
    def results(side, workload, seed):
        # About 10% fewer ticks, inside the 25% bound, in every pair but the last.
        return _result(ticks_per_s=100.0 + seed if side == "base" else (90.0 + seed if seed < 9 else 120.0))

    export, runner, _ = _fake(results)
    monkeypatch.chdir(tmp_path)
    assert ab.main(["--base", "v1", "--workloads", "ref-eval", "--label", "s"], runner=runner, export_side=export) == 0
    ticks = json.loads((tmp_path / "BENCH_s.json").read_text())["workloads"]["ref-eval"]["metrics"]["ticks_per_s"]
    assert (ticks["wins"], ticks["verdict"]) == (1, "slower")


def test_only_a_claimed_metric_reads_better(tmp_path, monkeypatch, capsys):
    def results(side, workload, seed):
        # More ticks in nine pairs of ten and fewer MB in every pair, both
        # beyond the base runs' IQR: only the ticks are claimed.
        if side == "base":
            return _result(ticks_per_s=100.0 + seed, peak_rss_mb=50.0 + seed / 10)
        return _result(ticks_per_s=120.0 + seed if seed else 99.0, peak_rss_mb=45.0 + seed / 10)

    export, runner, _ = _fake(results)
    monkeypatch.chdir(tmp_path)
    argv = ["--base", "v1", "--workloads", "ref-eval", "--label", "c", "--claim", "ref-eval:ticks_per_s"]
    assert ab.main(argv, runner=runner, export_side=export) == 0
    metrics = json.loads((tmp_path / "BENCH_c.json").read_text())["workloads"]["ref-eval"]["metrics"]
    ticks, peak = metrics["ticks_per_s"], metrics["peak_rss_mb"]
    assert (ticks["wins"], ticks["claimed"], ticks["verdict"]) == (9, True, "better")
    assert (peak["wins"], peak["claimed"], peak["verdict"]) == (10, False, "unclaimed")
    # Exact two-sided sign-test p: 2 * (1 + 10) / 1024 and 2 / 1024.
    assert (ticks["sign_p"], peak["sign_p"]) == (22 / 1024, 2 / 1024)
    assert "ref-eval peak_rss_mb: 50.45 -> 45.45 (-9.9%, 10/10 wins, sign test p 0.00195): unclaimed" in (
        capsys.readouterr().out
    )


def test_an_a_a_run_reads_no_difference_even_where_claimed(tmp_path, monkeypatch):
    def results(side, workload, seed):
        # Both sides draw from the same values, shifted by one seed: the
        # change wins some pairs and loses the others.
        at = seed if side == "base" else seed + 1
        return _result(ticks_per_s=100.0 + at % 3, tick_p50_ms=1.0 + (at % 4) / 100, peak_rss_mb=50.0 + at % 2)

    export, runner, _ = _fake(results)
    monkeypatch.chdir(tmp_path)
    argv = ["--base", "v1", "--change", "v1", "--workloads", "ref-eval", "index-50k", "--label", "aa"]
    argv += ["--claim", "ref-eval:ticks_per_s", "--claim", "index-50k:tick_p50_ms"]
    assert ab.main(argv, runner=runner, export_side=export) == 0
    report = json.loads((tmp_path / "BENCH_aa.json").read_text())
    verdicts = {
        (workload, name): (metric["wins"], metric["verdict"])
        for workload, summary in report["workloads"].items()
        for name, metric in summary["metrics"].items()
    }
    assert verdicts[("ref-eval", "ticks_per_s")] == (7, "no difference")
    assert verdicts[("index-50k", "tick_p50_ms")] == (2, "no difference")
    assert {verdict for _, verdict in verdicts.values()} == {"no difference"}


def test_a_bench_file_holds_one_run_per_line(tmp_path, monkeypatch):
    export, runner, _ = _fake(lambda side, workload, seed: _result(ticks_per_s=100.0 + seed))
    monkeypatch.chdir(tmp_path)
    argv = ["--base", "v1", "--workloads", "ref-eval", "index-50k", "--seeds", "0-3", "--label", "lines"]
    assert ab.main(argv, runner=runner, export_side=export) == 0
    text = (tmp_path / "BENCH_lines.json").read_text()
    report = json.loads(text)
    # The same JSON as an indented dump, laid out with each run on one line.
    assert ab.render(json.loads(json.dumps(report, indent=2))) + "\n" == text
    run_lines = [line.strip().rstrip(",") for line in text.splitlines() if '"seed": ' in line]
    runs = [run for summary in report["workloads"].values() for run in summary["runs"]]
    assert [json.loads(line) for line in run_lines] == runs and len(runs) == 8
    assert '"seeds": [0, 1, 2, 3],' in text
