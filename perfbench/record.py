"""Record the reference outputs that ``run.py`` checks every batch against.

    python3 perfbench/record.py --seeds 0-99 100

Runs the ref-eval set-up and one batch per episode seed with the plain
``MockPerception`` and writes ticks, WSR, ESR and the events digest per seed
to ``expected.json``. All three workloads must reproduce these values: the
index-50k space and the remote stand-in do not change a trace at the commit
that recorded them. Re-record only for a change that is meant to alter
traces, and say so where the change is described.
"""

from __future__ import annotations

import argparse
import json
import tempfile

import run


def seed_list(items: list[str]) -> list[int]:
    seeds: list[int] = []
    for item in items:
        lo, _, hi = item.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", nargs="+", required=True, help="seeds or ranges a-b")
    args = parser.parse_args()
    workload = run.WORKLOADS["ref-eval"]
    seeds = {}
    run.TMP_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.TMP_DIR) as tmp_name:
        tmp = run.Path(tmp_name)
        space, _ = run.set_up(workload, run.CORPUS_SEED, 1, 0.0, tmp, run.SpeedSampler())
        for seed in seed_list(args.seeds):
            batch_run = run.Run()
            batch = run.run_batch(space, seed, run.EPISODES, tmp, batch_run)
            if batch is None or batch_run.problems:
                raise SystemExit(f"seed {seed}: {batch_run.problems}")
            seeds[str(seed)] = {
                "ticks": batch.ticks,
                "wsr_pct": batch.wsr,
                "esr_pct": batch.esr,
                "events_sha256": batch.digest,
            }
            print(seed, seeds[str(seed)], flush=True)
    run.TMP_DIR.rmdir()
    doc = {
        "about": "reference outputs per episode seed, shared by all three workloads",
        "corpus_seed": run.CORPUS_SEED,
        "episodes": run.EPISODES,
        "noise": run.NOISE,
        "seeds": seeds,
    }
    run.EXPECTED_PATH.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
