"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads ref-eval --seeds 0-4
    python3 perfbench/spread.py --seeds 0-9 --trace-seed 100 --write

Each run is a separate ``run.py`` process. For every end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread, ``(q3 - q1) / median``, next to the metric's bound from
``BENCHMARK.json``; a spread above a third of its bound is flagged. When
``baseline.json``
exists, each median is also compared with the one stored there and flagged
when it is worse by more than the bound. ``--write`` stores the
machine, the workloads' seeds and these figures in ``baseline.json`` as the
benchmark's first measured point; ``--trace-seed`` adds one traced run per
workload to it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

import run
from record import seed_list

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BASELINE_PATH = run.BENCH_DIR / "baseline.json"


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(run.BENCH_DIR / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]  # fmt: skip
    done = subprocess.run(command, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{command} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(done.stdout, file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed}: outputs not correct")
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def machine() -> dict:
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "platform": platform.platform(),
        "cpu": model or platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    names = [w["name"] for w in BENCHMARK["workloads"]]
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", nargs="+", required=True, help="seeds or ranges a-b")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--write", action="store_true", help="store the figures in baseline.json")
    args = parser.parse_args()
    seconds = BENCHMARK["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    higher = {m["name"] for m in BENCHMARK["end_to_end"] if m["better"] == "higher"}
    previous = {}
    if BASELINE_PATH.exists():
        previous = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))["workloads"]
    seeds = seed_list(args.seeds)
    whys = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    point: dict = {}
    steady = True
    for workload in args.workloads:
        results = [bench(workload, seed, seconds, 0) for seed in seeds]
        figures = {
            name: summarize([r["metrics"][name]["value"] for r in results]) for name in bounds
        }
        print(f"{workload}: seeds {seeds}", flush=True)
        for name, fig in figures.items():
            flag = ""
            if fig["spread"] > bounds[name] / 3:
                flag = "  <-- spread above bound/3"
                steady = False
            old = previous.get(workload, {}).get("end_to_end", {}).get(name)
            if old:
                change = (fig["median"] - old["median"]) / old["median"]
                worse = -change if name in higher else change
                flag += f"  vs baseline {change:+.4f}"
                if worse > bounds[name]:
                    flag += " <-- worse than the baseline by more than the bound"
                    steady = False
            print(
                f"  {name:28s} median {fig['median']:<12.6g} q1 {fig['q1']:<12.6g} "
                f"q3 {fig['q3']:<12.6g} spread {fig['spread']:.4f} bound {bounds[name]}{flag}\n"
                f"    values {' '.join(f'{v:.5g}' for v in fig['values'])}",
                flush=True,
            )
        entry = {
            "why": whys[workload],
            "corpus_seed": run.CORPUS_SEED,
            "episode_seeds": seeds,
            "end_to_end": figures,
        }
        if args.trace_seed is not None:
            traced = bench(workload, args.trace_seed, seconds, 1)
            entry["per_layer"] = {"seed": args.trace_seed, "metrics": traced["metrics"]}
        point[workload] = entry
    print("steady" if steady else "NOT steady")
    if args.write:
        doc = {
            "about": "first measured point of the benchmark, with the machine it ran on",
            "machine": machine(),
            "run_seconds": seconds,
            "workloads": point,
        }
        BASELINE_PATH.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
