"""In-process stand-in for a remote perception service.

``JsonStandIn`` is a ``RemotePerception`` transport: it JSON-encodes each
request, decodes it as a server would, answers it from one episode's backend
(a ``MockPerception``), and JSON-encodes the reply, which the client parses.
A backend error becomes ``PerceptionError``, as an HTTP error status would.
No sockets and no sleeps: the cost it adds is the serialization and parsing
of one round trip per backend call.
"""

from __future__ import annotations

import json

from aide.affordance import AffordanceVector
from aide.geometry import Region
from aide.perception import (
    Detection,
    PerceptionBackend,
    PerceptionError,
    SceneFrame,
    ToolHypothesis,
)

STANDIN_URL = "standin://perception"


def _frame(doc: dict) -> SceneFrame:
    return SceneFrame(
        image=doc["image"], width=doc["width"], height=doc["height"], timestamp=doc["timestamp"]
    )


def _detection(doc: dict, rank: int) -> Detection:
    return Detection(
        label=doc["label"], box=Region(*doc["box"]), confidence=doc["confidence"], rank=rank
    )


def _detect(backend: PerceptionBackend, req: dict) -> dict:
    found = backend.detect(_frame(req["frame"]), req["vocabulary"], req["k"])
    return {
        "detections": [
            {"label": d.label, "box": d.box.as_list(), "confidence": d.confidence, "rank": d.rank}
            for d in found
        ]
    }


def _similarity(backend: PerceptionBackend, req: dict) -> dict:
    return {"value": backend.similarity(req["a"], req["b"]).value}


def _propose_tool(backend: PerceptionBackend, req: dict) -> dict:
    hypothesis = backend.propose_tool(req["instruction"], _frame(req["frame"]))
    return {"label": hypothesis.label, "attributes": list(hypothesis.attributes)}


def _select_candidate(backend: PerceptionBackend, req: dict) -> dict:
    # The client sends candidates in rank order without their ranks.
    candidates = [_detection(c, rank) for rank, c in enumerate(req["candidates"], start=1)]
    hypothesis = ToolHypothesis(label=req["label"], attributes=tuple(req["attributes"]))
    return {"index": backend.select_candidate(hypothesis, candidates, _frame(req["frame"]))}


def _segment_regions(backend: PerceptionBackend, req: dict) -> dict:
    tool = Detection(label=req["label"], box=Region(*req["box"]), confidence=1.0, rank=1)
    operational, functional = backend.segment_regions(tool, _frame(req["frame"]))
    return {"operational": operational.as_list(), "functional": functional.as_list()}


def _score_affordance(backend: PerceptionBackend, req: dict) -> dict:
    vector: AffordanceVector = backend.score_affordance(req["subject"])
    return {"scores": list(vector.scores)}


def _infer_unseen_label(backend: PerceptionBackend, req: dict) -> dict:
    return {"label": backend.infer_unseen_label(req["instruction"], _frame(req["frame"]))}


_HANDLERS = {
    "detect": _detect,
    "similarity": _similarity,
    "propose_tool": _propose_tool,
    "select_candidate": _select_candidate,
    "segment_regions": _segment_regions,
    "score_affordance": _score_affordance,
    "infer_unseen_label": _infer_unseen_label,
}


class JsonStandIn:
    """``Transport`` callable serving one backend through JSON round trips."""

    def __init__(self, backend: PerceptionBackend):
        self.backend = backend

    def __call__(self, url: str, payload: dict) -> dict:
        request = json.loads(json.dumps(payload))
        handler = _HANDLERS[request["op"]]
        try:
            reply = handler(self.backend, request)
        except PerceptionError as exc:
            raise PerceptionError(f"{url} failed: {exc}") from exc
        return json.loads(json.dumps(reply))
