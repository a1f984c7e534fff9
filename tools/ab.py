"""Alternating A/B runs of the benchmark between two revisions, summed up in one file.

    python3 tools/ab.py --base <rev> [--change <rev>|worktree] \\
        [--workloads ref-eval index-50k remote-eval] [--seeds 0-9] \\
        [--claim <workload>:<metric> ...] --label <label>
    python3 tools/ab.py --trajectory BENCH_*.json

Each side is exported on its own into a temporary directory: a revision with
``git archive`` (its ``src/`` and ``perfbench/``), ``worktree`` (the default
change) as the working tree's files that git does not ignore. Each side then
runs its own ``perfbench/run.py`` (the command in ``BENCHMARK.json``) with
``--trace 0`` and the benchmark's ``run_seconds``, one process per run, once
per seed and workload. The two runs of a pair follow each other, and the side
that goes first alternates from pair to pair, so a drift in machine speed
falls on both.

``BENCH_<label>.json`` is written to the current directory, one run per
line. It holds the machine, both revisions, the command, the claims, every
run's values by seed and, per workload and end-to-end metric of
``BENCHMARK.json``: each side's values, median and IQR/median, the change's
relative difference of medians, its wins (pairs where it was better), the
exact two-sided sign-test p of its wins and losses (ties dropped), whether it
was claimed, and a verdict:

  worse          the change's median is worse than the base's by more than
                 the metric's bound in ``BENCHMARK.json`` (a fraction of the
                 base's median)
  slower         the change lost at least nine pairs in ten, and its median is
                 worse by more than the base runs' interquartile range (a loss
                 within the bound; it fails nothing)
  better         a claimed metric (``--claim <workload>:<metric>``, given once
                 per claim): the change won at least nine pairs in ten, and
                 its median is better by more than the base runs'
                 interquartile range
  unclaimed      a metric not claimed whose change won at least nine pairs in
                 ten: a consistent gain that was not predicted, so no claim
                 (with no difference, 11 metrics in 1,024 read so)
  unresolved     neither, and the runs of one side spread wider than the
                 bound (IQR/median), so a difference within it cannot be told
  no difference  anything else

A workload in which any run was not ``"correct": true`` is refused: the file
names the runs and reports none of its metrics, and the exit status is 1.
The tool changes nothing under ``perfbench/`` or ``src/``.

``--trajectory`` runs nothing and writes nothing: it reads the given BENCH
files and prints, per workload and end-to-end metric, each file's
change/base ratio of medians and their running product, the drift of the
metric across the changes the files measured. The files are taken in the
order of their base commits in the history of HEAD, oldest first; a file
whose base commit is not in it keeps its place on the command line, after
those that are. Files with one base commit are repeated runs of one change:
the product takes the mean of their ratios once. A file that ran a commit
against itself (an A/A run) is listed but not taken. A workload a file
refused, or did not run, is left out of that file's lines, and a metric no
file holds has none.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import Callable, Collection

ROOT = Path(__file__).resolve().parent.parent
WORKTREE = "worktree"
# What a side needs to run the benchmark: ``run.py`` finds ``src/`` beside it.
EXPORTED = ("src", "perfbench")
# A run that takes longer is not correct: run.py ends each run within 180 s.
RUN_TIMEOUT_S = 600
# Pairs out of ten the change must win for "better" or "unclaimed", or lose for "slower".
WINS_FOR_BETTER = 0.9

# A runner takes a side's directory, a workload and a seed, and returns the
# JSON object on the last line of the benchmark's output.
Runner = Callable[[Path, str, int], dict]


def parse_seeds(text: str) -> list[int]:
    """``0-9``, ``3`` or ``0,2,5-7`` as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    if not seeds or len(set(seeds)) != len(seeds):
        raise argparse.ArgumentTypeError(f"{text!r} names no seeds, or one twice")
    return seeds


def parse_args(argv: list[str] | None, workloads: list[str], metrics: Collection[str] = ()) -> argparse.Namespace:
    """The options; ``--base`` and ``--label`` are required unless
    ``--trajectory`` is given, and a claim must name a workload that runs
    and, when ``metrics`` are given, one of them."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--trajectory",
        nargs="+",
        type=Path,
        metavar="BENCH_FILE",
        help="print the drift the given BENCH files measured; runs nothing",
    )
    parser.add_argument("--base", help="git revision of the base side")
    parser.add_argument("--change", default=WORKTREE, help="git revision, or 'worktree' (default)")
    parser.add_argument(
        "--workloads", nargs="+", default=workloads, choices=workloads, help="default: all"
    )
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-9"), help="default: 0-9")
    parser.add_argument("--label", help="names the output, BENCH_<label>.json")
    parser.add_argument(
        "--claim",
        action="append",
        default=[],
        metavar="WORKLOAD:METRIC",
        help="a gain this change claims; only a claimed metric can read 'better'",
    )
    args = parser.parse_args(argv)
    if args.trajectory is None:
        for name in ("base", "label"):
            if getattr(args, name) is None:
                parser.error(f"--{name} is required without --trajectory")
    for claim in args.claim:
        workload, _, metric = claim.partition(":")
        if workload not in args.workloads or (metrics and metric not in metrics):
            parser.error(f"--claim {claim!r} names no workload:metric of this run")
    return args


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, into: Path) -> dict:
    """Put side ``rev`` into directory ``into``; returns how to name it."""
    into.mkdir(parents=True)
    if rev == WORKTREE:
        listed = _git("ls-files", "--cached", "--others", "--exclude-standard", "-z", "--", *EXPORTED)
        for name in filter(None, listed.split("\0")):
            if (ROOT / name).is_file():  # a deleted file is still listed as cached
                (into / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / name, into / name)
        dirty = bool(_git("status", "--porcelain", "--", *EXPORTED))
        return {"rev": rev, "commit": _git("rev-parse", "HEAD"), "uncommitted_changes": dirty}
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", commit, "--", *EXPORTED],
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return {"rev": rev, "commit": commit}


def benchmark_runner(command: list[str], seconds: float) -> Runner:
    """Runs ``command`` (as ``BENCHMARK.json`` gives it) in a side's directory."""

    def run(side: Path, workload: str, seed: int) -> dict:
        argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        try:
            done = subprocess.run(argv, cwd=side, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"correct": False, "error": f"no result within {RUN_TIMEOUT_S} s"}
        lines = done.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            return {"correct": False, "error": f"exit {done.returncode}: {done.stderr.strip()[-500:]}"}
        if done.returncode:
            result["correct"] = False
        return result

    return run


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)  # as perfbench/spread.py takes them
    return q3 - q1


def _relative(change: float, base: float) -> float:
    if change == base:
        return 0.0
    return (change - base) / abs(base) if base else math.copysign(math.inf, change - base)


def sign_test_p(wins: int, losses: int) -> float:
    """The exact two-sided sign test: the chance of a split at least this
    uneven when each pair is a fair coin."""
    n = wins + losses
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def compare(base: list[float], change: list[float], better: str, bound: float, claimed: bool = False) -> dict:
    """One metric's values, paired by seed, summed up with its verdict."""
    sign = 1.0 if better == "higher" else -1.0  # > 0: the change is better
    base_median, change_median = statistics.median(base), statistics.median(change)
    gain = sign * _relative(change_median, base_median)
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    spread = {
        side: _iqr(values) / abs(median) if median else 0.0
        for side, values, median in (("base", base, base_median), ("change", change, change_median))
    }
    if -gain > bound:
        verdict = "worse"
    elif losses >= WINS_FOR_BETTER * len(base) and sign * (base_median - change_median) > _iqr(base):
        verdict = "slower"
    elif wins >= WINS_FOR_BETTER * len(base) and not claimed:
        verdict = "unclaimed"
    elif wins >= WINS_FOR_BETTER * len(base) and sign * (change_median - base_median) > _iqr(base):
        verdict = "better"
    elif max(spread.values()) > bound:
        verdict = "unresolved"
    else:
        verdict = "no difference"
    return {
        "better": better,
        "bound": bound,
        "base": base,
        "change": change,
        "base_median": base_median,
        "change_median": change_median,
        "base_iqr_over_median": spread["base"],
        "change_iqr_over_median": spread["change"],
        "change_vs_base": _relative(change_median, base_median),
        "wins": wins,
        "pairs": len(base),
        "sign_p": sign_test_p(wins, losses),
        "claimed": claimed,
        "verdict": verdict,
    }


def summarize(runs: list[dict], end_to_end: list[dict], claimed: Collection[str] = ()) -> dict:
    """A workload's pairs of runs, refused if any run was not correct; only
    the metrics named in ``claimed`` can read "better"."""
    wrong = [
        f"seed {run['seed']} {side}: {run[side].get('error', 'not correct')}"
        for run in runs
        for side in ("base", "change")
        if run[side].get("correct") is not True
    ]
    if wrong:
        return {"refused": wrong, "runs": runs}
    metrics = {}
    for spec in end_to_end:
        name = spec["name"]
        values = {side: [run[side]["metrics"][name]["value"] for run in runs] for side in ("base", "change")}
        metrics[name] = compare(
            values["base"], values["change"], spec["better"], spec["bound"], claimed=name in claimed
        )
    failed = {
        side: sum(run[side]["failed"] for run in runs) / max(1, sum(run[side]["attempted"] for run in runs))
        for side in ("base", "change")
    }
    failed["verdict"] = "worse" if failed["change"] > failed["base"] else "no difference"
    return {"runs": runs, "metrics": metrics, "failed_share": failed}


def render(value: object, depth: int = 0, one_per_line: bool = False) -> str:
    """``value`` as JSON, indented two spaces a level as ``json.dumps(value,
    indent=2)`` is, but a list of scalars on one line, and with
    ``one_per_line`` (a workload's runs) each item whole on its own line."""
    pad, inner = "  " * depth, "  " * (depth + 1)
    if isinstance(value, dict) and value:
        items = [
            f"{inner}{json.dumps(key)}: {render(item, depth + 1, key == 'runs')}" for key, item in value.items()
        ]
    elif isinstance(value, list) and value and one_per_line:
        items = [inner + json.dumps(item) for item in value]
    elif isinstance(value, list) and any(isinstance(item, (dict, list)) for item in value):
        items = [inner + render(item, depth + 1) for item in value]
    else:
        return json.dumps(value)
    opening, closing = ("{", "}") if isinstance(value, dict) else ("[", "]")
    return f"{opening}\n" + ",\n".join(items) + f"\n{pad}{closing}"


def _history() -> dict[str, int]:
    """Each commit in the history of HEAD, by its age: 0 for the root."""
    try:
        commits = _git("rev-list", "--reverse", "HEAD").split()
    except (OSError, subprocess.CalledProcessError):
        return {}
    return {commit: age for age, commit in enumerate(commits)}


def _is_aa(report: dict) -> bool:
    """Whether a BENCH file ran one commit against itself."""
    change = report["change"]
    return change["commit"] == report["base"]["commit"] and not change.get("uncommitted_changes")


def trajectory(paths: list[Path], end_to_end: list[dict], history: dict[str, int]) -> list[str]:
    """Lines of the drift that the BENCH files at ``paths`` measured, per
    workload and end-to-end metric: each file's base and change medians,
    their ratio and the running product of the changes' ratios, the files
    in the order of their base commits' ages in ``history``. Files that
    share a base commit measured one change, which the product takes once,
    at the mean of their ratios; an A/A file is listed but not taken."""
    reports = [(path, json.loads(path.read_text(encoding="utf-8"))) for path in paths]
    unknown = len(history)
    reports.sort(key=lambda item: history.get(item[1]["base"]["commit"], unknown))
    width = max(len(path.name) for path, _ in reports)
    workloads = list(dict.fromkeys(workload for _, report in reports for workload in report["workloads"]))
    lines = []
    for workload in workloads:
        for spec in end_to_end:
            rows = []
            changes: dict[str, list[float]] = {}  # each base commit's ratios
            for path, report in reports:
                metric = report["workloads"].get(workload, {}).get("metrics", {}).get(spec["name"])
                if metric is None:
                    continue
                ratio = metric["change_median"] / metric["base_median"] if metric["base_median"] else math.nan
                if not _is_aa(report):
                    changes.setdefault(report["base"]["commit"], []).append(ratio)
                running = math.prod(statistics.fmean(ratios) for ratios in changes.values())
                rows.append(
                    f"  {path.name:<{width}}  {metric['base_median']:.6g} -> {metric['change_median']:.6g}"
                    f"  ratio {ratio:.4f}  running {running:.4f} ({running - 1:+.1%})"
                    + ("  A/A, not taken" if _is_aa(report) else "")
                )
            if rows:
                lines += [f"{workload} {spec['name']} ({spec['better']} is better)", *rows]
    return lines


def main(argv: list[str] | None = None, runner: Runner | None = None, export_side=export) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(
        argv, [workload["name"] for workload in spec["workloads"]], [metric["name"] for metric in spec["end_to_end"]]
    )
    if args.trajectory is not None:
        print("\n".join(trajectory(args.trajectory, spec["end_to_end"], _history())))
        return 0
    runner = runner or benchmark_runner(spec["command"], spec["run_seconds"])
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        sides = {"base": args.base, "change": args.change}
        revisions = {side: export_side(rev, Path(tmp) / side) for side, rev in sides.items()}
        runs: dict[str, list[dict]] = {workload: [] for workload in args.workloads}
        for workload in args.workloads:
            for pair, seed in enumerate(args.seeds):
                order = ("base", "change") if pair % 2 == 0 else ("change", "base")
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    run[side] = runner(Path(tmp) / side, workload, seed)
                runs[workload].append(run)
                print(f"{workload} seed {seed}: done", file=sys.stderr)
    report = {
        "label": args.label,
        "machine": {
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        "base": revisions["base"],
        "change": revisions["change"],
        "command": [*spec["command"], "--trace", "0", "--seconds", str(spec["run_seconds"])],
        "seeds": args.seeds,
        "claims": args.claim,
        "wall_s": round(time.perf_counter() - started, 1),
        "workloads": {
            workload: summarize(
                runs[workload],
                spec["end_to_end"],
                [claim.partition(":")[2] for claim in args.claim if claim.partition(":")[0] == workload],
            )
            for workload in args.workloads
        },
    }
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(render(report) + "\n", encoding="utf-8")
    refused = False
    for workload, summary in report["workloads"].items():
        if "refused" in summary:
            refused = True
            print(f"{workload}: refused, a run was not correct: {'; '.join(summary['refused'])}")
            continue
        for name, metric in summary["metrics"].items():
            print(
                f"{workload} {name}: {metric['base_median']:.6g} -> {metric['change_median']:.6g}"
                f" ({metric['change_vs_base']:+.1%}, {metric['wins']}/{metric['pairs']} wins,"
                f" sign test p {metric['sign_p']:.3g}): {metric['verdict']}"
            )
    print(f"wrote {out}")
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
