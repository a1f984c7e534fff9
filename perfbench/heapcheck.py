"""Check that the speed reference does not depend on the program's heap.

    python3 perfbench/heapcheck.py --workload index-50k --rounds 20

The reference runs in the benchmark's own process, next to the workload's
space. This script times it there and, alternately, in a helper process that
holds nothing else, first with an empty heap and then with the workload's
space loaded (set up as ``run.py`` does). For each state it prints the
median in-process over helper ratio of the round medians; a ratio that does
not rise once the space is loaded means the heap does not slow the reference.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import run
from speed import SpeedSampler, reference_work

WINDOW = 25
HELPER = """
import sys
from time import perf_counter
from speed import reference_work
for _ in sys.stdin:
    times = []
    for _ in range({window}):
        start = perf_counter()
        reference_work()
        times.append(perf_counter() - start)
    print(sorted(times)[len(times) // 2], flush=True)
"""


def window_median() -> float:
    times = []
    for _ in range(WINDOW):
        start = perf_counter()
        reference_work()
        times.append(perf_counter() - start)
    return statistics.median(times)


def compare(helper: subprocess.Popen, rounds: int, label: str) -> None:
    ours, theirs = [], []
    for _ in range(rounds):
        ours.append(window_median())
        helper.stdin.write("go\n")
        helper.stdin.flush()
        theirs.append(float(helper.stdout.readline()))
    ratio = statistics.median(a / b for a, b in zip(ours, theirs))
    print(
        f"{label}: in-process {statistics.median(ours) * 1e6:.0f} us, "
        f"helper {statistics.median(theirs) * 1e6:.0f} us, median ratio {ratio:.3f}",
        flush=True,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default="index-50k", choices=sorted(run.WORKLOADS))
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args()
    helper = subprocess.Popen(
        [sys.executable, "-c", HELPER.format(window=WINDOW)],
        cwd=run.BENCH_DIR,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        compare(helper, args.rounds, "empty heap")
        run.TMP_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.TMP_DIR) as tmp_name:
            workload = run.WORKLOADS[args.workload]
            sampler = SpeedSampler()
            space, _ = run.set_up(workload, run.CORPUS_SEED, 1, 0.0, Path(tmp_name), sampler)
        compare(helper, args.rounds, f"{args.workload} space loaded")
        del space
    finally:
        helper.stdin.close()
        helper.wait()
    try:
        run.TMP_DIR.rmdir()
    except OSError:
        pass  # a benchmark run is still using it


if __name__ == "__main__":
    main()
