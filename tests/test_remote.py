from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

import aide
from aide.geometry import Region
from aide.perception import Detection, PerceptionError, SceneFrame, ToolHypothesis
from aide.remote import CircuitOpenError, RemotePerception


def frame():
    return SceneFrame(image="frame:test:0", width=100, height=100, timestamp=0.0)


class ScriptedTransport:
    """Records calls and replays canned responses or failures."""

    def __init__(self, responses=None, fail_times=0):
        self.responses = responses or {}
        self.fail_times = fail_times
        self.calls = []

    def __call__(self, url, payload):
        self.calls.append((url, payload))
        if self.fail_times > 0:
            self.fail_times -= 1
            raise PerceptionError("boom")
        path = "/" + url.rsplit("/", 1)[-1]
        return self.responses[path]


def client(transport):
    return RemotePerception("http://models.example:9000", transport=transport)


def test_detect_roundtrip():
    transport = ScriptedTransport(
        {
            "/detect": {
                "detections": [
                    {"label": "cup", "box": [1, 2, 3, 4], "confidence": 0.9, "rank": 1},
                    {"label": "cup", "box": [5, 6, 7, 8], "confidence": 0.5, "rank": 2},
                ]
            }
        }
    )
    remote = client(transport)
    dets = remote.detect(frame(), ["cup"], 5)
    assert len(dets) == 2
    assert dets[0].box == Region(1, 2, 3, 4)
    url, payload = transport.calls[0]
    assert url.endswith("/detect")
    assert payload["vocabulary"] == ["cup"]
    assert payload["k"] == 5


def test_similarity_and_reason_routing():
    transport = ScriptedTransport(
        {
            "/similarity": {"value": 0.42},
            "/reason": {"label": "cup", "attributes": ["graspable"]},
        }
    )
    remote = client(transport)
    assert remote.similarity("a", "b").value == pytest.approx(0.42)
    hyp = remote.propose_tool("I am thirsty", frame())
    assert hyp == ToolHypothesis("cup", ("graspable",))
    paths = [url.rsplit("/", 1)[-1] for url, _ in transport.calls]
    assert paths == ["similarity", "reason"]


def test_similarity_clamped_below_one():
    remote = client(ScriptedTransport({"/similarity": {"value": 1.0}}))
    assert remote.similarity("a", "b").value < 1.0


def test_segment_and_select_and_scores():
    transport = ScriptedTransport(
        {
            "/detect": {"operational": [0, 5, 10, 10], "functional": [0, 0, 10, 5]},
            "/reason": {"index": 1, "scores": [5.0] * 19, "label": "fridge"},
        }
    )
    remote = client(transport)
    tool = Detection(label="cup", box=Region(0, 0, 10, 10), confidence=0.9, rank=1)
    operational, functional = remote.segment_regions(tool, frame())
    assert operational == Region(0, 5, 10, 10)
    candidates = [tool, Detection(label="cup", box=Region(1, 1, 5, 5), confidence=0.8, rank=2)]
    assert remote.select_candidate(ToolHypothesis("cup"), candidates, frame()) == 1
    assert len(remote.score_affordance("tool:drink:cup").scores) == 19
    assert remote.infer_unseen_label("where is it", frame()) == "fridge"


def test_an_integer_is_a_number_in_a_reply():
    transport = ScriptedTransport(
        {
            "/detect": {"detections": [{"label": "cup", "box": [1, 2, 3, 4], "confidence": 1}]},
            "/reason": {"scores": [5] * 19},
        }
    )
    remote = client(transport)
    assert [d.confidence for d in remote.detect(frame(), ["cup"], 5)] == [1.0]
    assert remote.score_affordance("x").scores == (5.0,) * 19


def test_select_candidate_range_checked():
    remote = client(ScriptedTransport({"/reason": {"index": 7}}))
    candidates = [Detection(label="cup", box=Region(0, 0, 1, 1), confidence=0.5, rank=1)]
    with pytest.raises(PerceptionError):
        remote.select_candidate(ToolHypothesis("cup"), candidates, frame())


def test_circuit_opens_after_three_consecutive_failures():
    transport = ScriptedTransport({"/similarity": {"value": 0.5}}, fail_times=3)
    remote = client(transport)
    for _ in range(3):
        with pytest.raises(PerceptionError):
            remote.similarity("a", "b")
    assert remote.circuit_open
    with pytest.raises(CircuitOpenError):
        remote.similarity("a", "b")
    # The breaker short-circuits: no further transport calls happen.
    assert len(transport.calls) == 3
    remote.reset()
    assert remote.similarity("a", "b").value == pytest.approx(0.5)


def test_success_resets_failure_streak():
    transport = ScriptedTransport({"/similarity": {"value": 0.5}}, fail_times=2)
    remote = client(transport)
    for _ in range(2):
        with pytest.raises(PerceptionError):
            remote.similarity("a", "b")
    assert remote.similarity("a", "b").value == pytest.approx(0.5)
    assert not remote.circuit_open
    transport.fail_times = 2
    with pytest.raises(PerceptionError):
        remote.similarity("a", "b")
    assert not remote.circuit_open


MALFORMED = [
    ("detect", "/detect", {"detections": [{"label": "cup", "box": [1, 2]}]},
     lambda r: r.detect(frame(), ["cup"], 5)),
    ("detect-fractional-box", "/detect",
     {"detections": [{"label": "cup", "box": [10.5, 0, 30, 40], "confidence": 0.9}]},
     lambda r: r.detect(frame(), ["cup"], 5)),
    ("detect-bool-box", "/detect",
     {"detections": [{"label": "cup", "box": [True, 0, 30, 40], "confidence": 0.9}]},
     lambda r: r.detect(frame(), ["cup"], 5)),
    ("detect-outside-frame", "/detect",
     {"detections": [{"label": "cup", "box": [90, 90, 101, 100], "confidence": 0.9}]},
     lambda r: r.detect(frame(), ["cup"], 5)),
    ("detect-repeated-rank", "/detect",
     {"detections": [{"label": "cup", "box": [1, 2, 3, 4], "confidence": 0.2, "rank": 1},
                     {"label": "cup", "box": [5, 6, 7, 8], "confidence": 0.9, "rank": 1}]},
     lambda r: r.detect(frame(), ["cup"], 5)),
    ("detect-confidence-rises", "/detect",
     {"detections": [{"label": "cup", "box": [1, 2, 3, 4], "confidence": 0.2},
                     {"label": "cup", "box": [5, 6, 7, 8], "confidence": 0.9}]},
     lambda r: r.detect(frame(), ["cup"], 5)),
    ("similarity", "/similarity", {"value": "high"}, lambda r: r.similarity("a", "b")),
    ("similarity-above-one", "/similarity", {"value": 7.5}, lambda r: r.similarity("a", "b")),
    ("similarity-infinite", "/similarity", {"value": float("inf")},
     lambda r: r.similarity("a", "b")),
    ("similarity-nan", "/similarity", {"value": float("nan")}, lambda r: r.similarity("a", "b")),
    ("similarity-bool", "/similarity", {"value": True}, lambda r: r.similarity("a", "b")),
    ("propose_tool", "/reason", {"attributes": []}, lambda r: r.propose_tool("x", frame())),
    ("select_candidate", "/reason", {"index": None},
     lambda r: r.select_candidate(ToolHypothesis("cup"), [], frame())),
    ("segment_regions", "/detect", {"operational": [5, 5, 0, 0], "functional": [0, 0, 1, 1]},
     lambda r: r.segment_regions(
         Detection(label="cup", box=Region(0, 0, 10, 10), confidence=0.9, rank=1), frame()
     )),
    ("segment_regions-fractional", "/detect",
     {"operational": [0, 5, 10, 10], "functional": [0, 0, 10, 4.5]},
     lambda r: r.segment_regions(
         Detection(label="cup", box=Region(0, 0, 10, 10), confidence=0.9, rank=1), frame()
     )),
    ("score_affordance", "/reason", {"scores": []}, lambda r: r.score_affordance("x")),
    ("infer_unseen_label", "/reason", {}, lambda r: r.infer_unseen_label("x", frame())),
    # A value of the wrong JSON type is malformed, not coerced.
    *[
        (f"detect-{name}", "/detect",
         {"detections": [{"label": "cup", "box": [1, 2, 3, 4], "confidence": 0.9, **item}]},
         lambda r: r.detect(frame(), ["cup"], 5))
        for name, item in [
            ("bool-confidence", {"confidence": True}),
            ("string-confidence", {"confidence": "0.7"}),
            ("fractional-rank", {"rank": 1.9}),
            ("integer-label", {"label": 7}),
        ]
    ],
    *[
        (f"select_candidate-{name}", "/reason", {"index": index},
         lambda r: r.select_candidate(ToolHypothesis("cup"), [
             Detection(label="cup", box=Region(0, 0, 1, 1), confidence=0.5, rank=1),
             Detection(label="cup", box=Region(2, 2, 3, 3), confidence=0.4, rank=2),
         ], frame()))
        for name, index in [("bool", True), ("fractional", 1.7), ("string", "1")]
    ],
    ("score_affordance-string", "/reason", {"scores": ["3", 0.5]},
     lambda r: r.score_affordance("x")),
    ("score_affordance-bool", "/reason", {"scores": [0.5, True]},
     lambda r: r.score_affordance("x")),
    ("score_affordance-beyond-float", "/reason", {"scores": [0.5, 10**400]},
     lambda r: r.score_affordance("x")),
    ("score_affordance-string-list", "/reason", {"scores": "35"},
     lambda r: r.score_affordance("x")),
    *[
        (f"infer_unseen_label-{name}", "/reason", {"label": label},
         lambda r: r.infer_unseen_label("x", frame()))
        for name, label in [("null", None), ("integer", 3), ("empty", "")]
    ],
    ("propose_tool-integer-label", "/reason", {"label": 5}, lambda r: r.propose_tool("x", frame())),
    ("propose_tool-string-attributes", "/reason", {"label": "cup", "attributes": "ab"},
     lambda r: r.propose_tool("x", frame())),
    # An attribute, like a label, is a non-empty string.
    ("propose_tool-empty-attribute", "/reason", {"label": "cup", "attributes": ["graspable", ""]},
     lambda r: r.propose_tool("x", frame())),
]


@pytest.mark.parametrize(
    "path,reply,call", [m[1:] for m in MALFORMED], ids=[m[0] for m in MALFORMED]
)
def test_malformed_reply_is_a_counted_perception_error(path, reply, call):
    transport = ScriptedTransport({path: reply})
    remote = client(transport)
    for _ in range(3):
        with pytest.raises(PerceptionError) as caught:
            call(remote)
        assert not isinstance(caught.value, CircuitOpenError)
    assert remote.circuit_open
    with pytest.raises(CircuitOpenError):
        call(remote)
    assert len(transport.calls) == 3


def test_non_dict_reply_counts_toward_breaker():
    remote = client(ScriptedTransport({"/similarity": [0.5]}))
    for _ in range(3):
        with pytest.raises(PerceptionError):
            remote.similarity("a", "b")
    assert remote.circuit_open


def test_detect_rejects_a_reply_out_of_rank_order():
    reply = {
        "detections": [
            {"label": "cup", "box": [1, 2, 3, 4], "confidence": 0.2, "rank": 1},
            {"label": "cup", "box": [5, 6, 7, 8], "confidence": 0.9, "rank": 1},
        ]
    }
    transport = ScriptedTransport({"/detect": reply})
    remote = client(transport)
    with pytest.raises(PerceptionError, match="malformed response from /detect"):
        remote.detect(frame(), ["cup"], 5)
    assert remote._consecutive_failures == 1
    # Equal confidences keep their order; a well-formed reply clears the strike.
    reply["detections"][1].update(confidence=0.2, rank=2)
    dets = remote.detect(frame(), ["cup"], 5)
    assert [(d.rank, d.confidence) for d in dets] == [(1, 0.2), (2, 0.2)]
    assert remote._consecutive_failures == 0


def test_http_transport_sends_the_key_from_aide_api_key(monkeypatch):
    requests = []

    def urlopen(request, timeout):
        requests.append((request, timeout))
        return io.BytesIO(b'{"value": 0.5}')

    monkeypatch.setenv("AIDE_API_KEY", "secret")
    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    # The timeout reaches urlopen in seconds: the default 2,000 ms, then 750 ms.
    for remote in (
        RemotePerception("http://models.example:9000"),
        RemotePerception("http://models.example:9000", timeout_ms=750),
    ):
        assert remote.similarity("a", "b").value == 0.5
    assert [timeout for _, timeout in requests] == [2.0, 0.75]
    for request, _ in requests:
        assert request.full_url == "http://models.example:9000/similarity"
        assert request.get_header("Authorization") == "Bearer secret"


# The HTTP stack: modules only the default transport uses.
_HTTP_STACK = ("urllib.request", "http.client", "ssl")


def _http_modules_added(statements: str) -> tuple[list[str], list[str]]:
    """The HTTP stack modules that running ``statements`` in a fresh
    interpreter loads, and those loaded before it ran (a site hook may
    preload one)."""
    script = (
        "import json, sys\n"
        f"stack = {_HTTP_STACK!r}\n"
        "before = {name for name in stack if name in sys.modules}\n"
        f"{statements}\n"
        "print(json.dumps([name for name in stack if name in sys.modules and name not in before]))\n"
        "print(json.dumps(sorted(before)))\n"
    )
    src = str(Path(aide.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60, check=True
    )
    added, before = map(json.loads, done.stdout.splitlines())
    return added, before


def test_importing_the_client_or_giving_it_a_transport_leaves_the_http_stack_unloaded():
    added, _ = _http_modules_added(
        "import aide.remote\n"
        "aide.remote.RemotePerception('http://models.example:9000', transport=lambda url, payload: {})"
    )
    assert added == []


def test_the_default_transport_loads_the_http_stack():
    added, before = _http_modules_added(
        "import aide.remote\naide.remote.RemotePerception('http://models.example:9000')"
    )
    assert added == [name for name in _HTTP_STACK if name not in before]
