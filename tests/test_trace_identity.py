"""The reference eval's events and perception calls must stay as recorded.

``perfbench/expected.json`` holds, per episode seed, the sha256 of
``events.jsonl`` with the timing fields removed, recorded from the 432-record
space built from corpus seed 7. A change to that digest is a change of
behaviour. The same run's calls per capability are pinned below: a refactor
that adds or drops a backend call changes them even when the traces stay put.
No episode asks its backend the same question twice.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from aide import harness
from aide.harness import run_eval
from aide.mock import MockPerception
from aide.planner import write_trace

EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"
TIMING_FIELDS = ("latency_ms", "wall_seconds")

# Backend calls of the seed-0 reference eval (200 episodes, 4,313 ticks).
PINNED_CALLS = {
    "detect": 8368,
    "similarity": 94623,
    "score_affordance": 404,
    "select_candidate": 253,
    "propose_tool": 172,
    "infer_unseen_label": 81,
    "segment_regions": 42,
}


def counting_mock(counts: Counter, repeats: Counter) -> type[MockPerception]:
    """``MockPerception`` that counts each capability call into ``counts``,
    and each call with the same capability and arguments as an earlier call
    to the same instance (one episode) into ``repeats``."""

    def counted(name):
        def call(self, *args, **kwargs):
            counts[name] += 1
            asked = self.__dict__.setdefault("_asked", set())
            question = repr((name, args, sorted(kwargs.items())))
            if question in asked:
                repeats[name] += 1
            asked.add(question)
            return getattr(MockPerception, name)(self, *args, **kwargs)

        return call

    return type("CountingMock", (MockPerception,), {name: counted(name) for name in PINNED_CALLS})


@pytest.fixture(scope="module")
def reference_run(space):
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    counts: Counter = Counter()
    repeats: Counter = Counter()
    traces = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "MockPerception", counting_mock(counts, repeats))
        report = run_eval(
            space,
            seed=0,
            noise=expected["noise"],
            episodes=expected["episodes"],
            trace_sink=lambda episode_id, trace: traces.append((episode_id, trace)),
        )
    return expected, report, traces, counts, repeats


def test_reference_eval_events_match_recorded_digest(reference_run, corpus, tmp_path):
    expected, report, traces, _, _ = reference_run
    assert (expected["corpus_seed"], len(corpus)) == (7, 432)
    reference = expected["seeds"]["0"]
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


def test_reference_eval_makes_the_pinned_perception_calls(reference_run):
    _, report, _, counts, _ = reference_run
    assert sum(row.steps for row in report.rows) == 4313
    assert dict(counts) == PINNED_CALLS


def test_reference_eval_asks_no_question_twice_in_an_episode(reference_run):
    *_, repeats = reference_run
    assert dict(repeats) == {}
