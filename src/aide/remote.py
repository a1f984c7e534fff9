"""Generic remote perception client.

One request/response contract over HTTP covers every capability; which models
sit behind the endpoints is deployment configuration, not code. Capabilities
map onto three paths:

  /detect      detect, segment_regions
  /similarity  similarity
  /reason      propose_tool, select_candidate, score_affordance,
               infer_unseen_label

A reply value is read at its JSON type and never coerced (``aide.jsonvalues``):
a number is an int or a float (not a bool), a box coordinate, rank or index
is an int, a label and each attribute are non-empty strings, and detections,
boxes, scores and attributes are arrays. A reply that does not parse into the
capability's values that way, gives a similarity outside [0, 1], places a
detection box outside the frame, or ranks its detections out of order (ranks
other than 1..K, or a confidence that rises with rank) raises
``PerceptionError`` like a transport failure does. After three consecutive
failures of either kind the circuit opens and every call raises
``CircuitOpenError`` until ``reset()``.
"""

from __future__ import annotations

import json
import os
from typing import Callable, TypeVar

from .affordance import AffordanceVector
from .geometry import Region
from .jsonvalues import array, integer, integers, member, number, numbers, text, texts
from .perception import (
    Detection,
    PerceptionBackend,
    PerceptionError,
    SceneFrame,
    SimilarityScore,
    ToolHypothesis,
    boxes_in_frame,
    check_detection_ordering,
)

Transport = Callable[[str, dict], dict]
T = TypeVar("T")

_FAILURES_TO_OPEN = 3
# Environment variable holding the bearer token the HTTP transport sends.
_API_KEY_ENV = "AIDE_API_KEY"


class CircuitOpenError(PerceptionError):
    """Too many consecutive failures; calls are short-circuited."""


def _http_transport(timeout_ms: float, api_key: str | None) -> Transport:
    # Imported here: the HTTP stack (urllib, http.client, ssl) takes a few MB
    # that a client given its own transport never needs.
    import urllib.error
    import urllib.request

    def call(url: str, payload: dict) -> dict:
        data = json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            url, data=data, headers={"Content-Type": "application/json"}
        )
        if api_key:
            request.add_header("Authorization", f"Bearer {api_key}")
        try:
            with urllib.request.urlopen(request, timeout=timeout_ms / 1000.0) as response:
                return json.loads(response.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, json.JSONDecodeError) as exc:
            raise PerceptionError(f"remote call to {url} failed: {exc}") from exc

    return call


def _similarity(response: dict) -> SimilarityScore:
    """A reply's score: a number in [0, 1] (not NaN or infinite), clamped
    below 1."""
    value = member(response, "value", number)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"similarity {value!r} is not in [0, 1]")
    return SimilarityScore(min(value, 1.0 - 1e-9))


def _frame_payload(frame: SceneFrame) -> dict:
    return {
        "image": frame.image,
        "width": frame.width,
        "height": frame.height,
        "timestamp": frame.timestamp,
    }


class RemotePerception(PerceptionBackend):
    def __init__(
        self,
        base_url: str,
        timeout_ms: float = 2000.0,
        transport: Transport | None = None,
    ):
        self.base_url = base_url.rstrip("/")
        self._transport = transport or _http_transport(timeout_ms, os.environ.get(_API_KEY_ENV))
        self._consecutive_failures = 0

    def reset(self) -> None:
        self._consecutive_failures = 0

    @property
    def circuit_open(self) -> bool:
        return self._consecutive_failures >= _FAILURES_TO_OPEN

    def _call(self, path: str, payload: dict, parse: Callable[[dict], T]) -> T:
        """One round trip, parsed. A transport failure or a reply ``parse``
        rejects counts toward the breaker and raises ``PerceptionError``."""
        if self.circuit_open:
            raise CircuitOpenError(
                f"circuit open after {self._consecutive_failures} consecutive failures"
            )
        try:
            response = self._transport(f"{self.base_url}{path}", payload)
            if not isinstance(response, dict):
                raise PerceptionError(f"malformed response from {path}")
            result = parse(response)
        except PerceptionError:
            self._consecutive_failures += 1
            raise
        except (KeyError, TypeError, ValueError) as exc:
            self._consecutive_failures += 1
            raise PerceptionError(f"malformed response from {path}: {exc!r}") from exc
        self._consecutive_failures = 0
        return result

    # -- capabilities -----------------------------------------------------

    def detect(self, frame: SceneFrame, vocabulary: list[str], k: int) -> list[Detection]:
        def parse(response: dict) -> list[Detection]:
            found = [
                Detection(
                    label=member(item, "label", text),
                    box=Region(*member(item, "box", integers)),
                    confidence=member(item, "confidence", number),
                    rank=member(item, "rank", integer, i + 1),
                )
                for i, item in enumerate(member(response, "detections", array, [])[:k])
            ]
            if not boxes_in_frame(found, frame):
                raise ValueError("detection box outside the frame")
            check_detection_ordering(found)
            return found

        return self._call(
            "/detect",
            {"op": "detect", "frame": _frame_payload(frame), "vocabulary": vocabulary, "k": k},
            parse,
        )

    def similarity(self, a: str, b: str) -> SimilarityScore:
        return self._call("/similarity", {"op": "similarity", "a": a, "b": b}, _similarity)

    def propose_tool(self, instruction: str, frame: SceneFrame) -> ToolHypothesis:
        return self._call(
            "/reason",
            {"op": "propose_tool", "instruction": instruction, "frame": _frame_payload(frame)},
            lambda r: ToolHypothesis(
                label=member(r, "label", text), attributes=member(r, "attributes", texts, [])
            ),
        )

    def select_candidate(
        self, hypothesis: ToolHypothesis, candidates: list[Detection], frame: SceneFrame
    ) -> int:
        def parse(response: dict) -> int:
            index = member(response, "index", integer)
            if not (0 <= index < len(candidates)):
                raise ValueError(f"candidate index {index} out of range")
            return index

        return self._call(
            "/reason",
            {
                "op": "select_candidate",
                "label": hypothesis.label,
                "attributes": list(hypothesis.attributes),
                "candidates": [
                    {"label": d.label, "box": d.box.as_list(), "confidence": d.confidence}
                    for d in candidates
                ],
                "frame": _frame_payload(frame),
            },
            parse,
        )

    def segment_regions(self, tool: Detection, frame: SceneFrame) -> tuple[Region, Region]:
        return self._call(
            "/detect",
            {
                "op": "segment_regions",
                "box": tool.box.as_list(),
                "label": tool.label,
                "frame": _frame_payload(frame),
            },
            lambda r: tuple(Region(*member(r, key, integers)) for key in ("operational", "functional")),
        )

    def score_affordance(self, subject: str) -> AffordanceVector:
        return self._call(
            "/reason",
            {"op": "score_affordance", "subject": subject},
            lambda r: AffordanceVector(tuple(member(r, "scores", numbers).tolist())),
        )

    def infer_unseen_label(self, instruction: str, frame: SceneFrame) -> str:
        return self._call(
            "/reason",
            {"op": "infer_unseen_label", "instruction": instruction, "frame": _frame_payload(frame)},
            lambda r: member(r, "label", text),
        )
