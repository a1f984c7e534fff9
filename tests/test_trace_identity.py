"""The reference eval's events must stay byte-identical to the recorded digest.

``perfbench/expected.json`` holds, per episode seed, the sha256 of
``events.jsonl`` with the timing fields removed, recorded from the 432-record
space built from corpus seed 7. A change to that digest is a change of
behaviour.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from aide.harness import run_eval
from aide.planner import write_trace

EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"
TIMING_FIELDS = ("latency_ms", "wall_seconds")


def test_reference_eval_events_match_recorded_digest(space, params, tmp_path):
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    assert (expected["corpus_seed"], params.A) == (7, 432)
    reference = expected["seeds"]["0"]
    traces = []
    report = run_eval(
        space,
        seed=0,
        noise=expected["noise"],
        episodes=expected["episodes"],
        trace_sink=lambda episode_id, trace: traces.append((episode_id, trace)),
    )
    events = tmp_path / "events.jsonl"
    for episode_id, trace in traces:
        write_trace(trace, events, episode_id)
    digest = hashlib.sha256()
    with events.open(encoding="utf-8") as fh:
        for line in fh:
            doc = json.loads(line)
            for name in TIMING_FIELDS:
                doc.pop(name, None)
            digest.update(json.dumps(doc).encode("utf-8") + b"\n")
    assert sum(row.steps for row in report.rows) == reference["ticks"]
    assert digest.hexdigest() == reference["events_sha256"]
