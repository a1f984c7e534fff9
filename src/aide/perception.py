"""Perception capability contract consumed by retrieval, planning and exploration.

Implementations wrap either the deterministic simulator-backed mock or a
remote model service. Every response is an immutable value.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable

from .affordance import AffordanceVector
from .geometry import Region, clipped_into, vertical_halves

# Each side of a crop grows by this fraction of the box extent.
CROP_PAD_FRACTION = 0.05
# Vocabulary terms that ``detect`` answers with tool parts, not whole objects.
PART_VOCABULARY = ("handle", "body")


class PerceptionError(RuntimeError):
    """Backend could not produce a response; ``EpisodePerception`` says how each call degrades."""


class ReasonerError(PerceptionError):
    """The reasoning capability has no answer for this input."""


class UnknownReferenceError(PerceptionError):
    """An image or text reference could not be resolved."""


@dataclass(frozen=True, slots=True)
class Detection:
    """One labeled box. Rank 1 is the highest confidence within its response."""

    label: str
    box: Region
    confidence: float
    rank: int

    def __post_init__(self) -> None:
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")


@dataclass(frozen=True, slots=True)
class SimilarityScore:
    value: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.value < 1.0):
            raise ValueError(f"similarity {self.value} outside [0, 1)")


@dataclass(frozen=True, slots=True)
class SceneFrame:
    """One rendered observation.

    ``image`` is an opaque reference resolvable by the active backend. The
    robot position and scale ride along so the planner can reason about
    world distances without touching the simulator directly.
    """

    image: str
    width: int
    height: int
    timestamp: float
    robot_x: float = 0.0
    robot_y: float = 0.0
    pixels_per_unit: float = 1.0

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("frame dimensions must be positive")

    def world_anchor(self, region: Region) -> tuple[float, float]:
        """World point under the center of a pixel region in this frame."""
        cx, cy = region.center
        half = self.width / (2.0 * self.pixels_per_unit)
        return (
            self.robot_x + cx / self.pixels_per_unit - half,
            self.robot_y + cy / self.pixels_per_unit - half,
        )

    def world_distance_to(self, region: Region) -> float:
        ax, ay = self.world_anchor(region)
        return ((ax - self.robot_x) ** 2 + (ay - self.robot_y) ** 2) ** 0.5


@dataclass(frozen=True)
class ToolHypothesis:
    label: str
    attributes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("hypothesis label must be non-empty")


def crop_reference(frame: SceneFrame, box: Region) -> str:
    """Reference naming a padded crop of a frame; resolvable by the mock backend."""
    x0, y0, x1, y1 = box.padded_bounds(CROP_PAD_FRACTION, frame.width, frame.height)
    return f"{frame.image}#crop:{x0},{y0},{x1},{y1}"


def check_detection_ordering(detections: list[Detection]) -> None:
    """Assert the rank/confidence contract: ranks 1..K, confidence non-increasing."""
    for i, det in enumerate(detections):
        if det.rank != i + 1:
            raise ValueError(f"rank gap at position {i}: {det.rank}")
        if i and detections[i - 1].confidence < det.confidence - 1e-12:
            raise ValueError("confidence must be non-increasing in rank")


class PerceptionBackend(ABC):
    """Detector, embedder, reasoner and region proposer behind one interface."""

    @abstractmethod
    def detect(self, frame: SceneFrame, vocabulary: list[str], k: int) -> list[Detection]:
        """Up to ``k`` detections for the vocabulary within the frame, ranked by confidence."""

    @abstractmethod
    def similarity(self, a: str, b: str) -> SimilarityScore:
        """Multimodal similarity between two references, clamped below 1."""

    @abstractmethod
    def propose_tool(self, instruction: str, frame: SceneFrame) -> ToolHypothesis:
        """Predict the target tool label and key attributes for an instruction."""

    @abstractmethod
    def select_candidate(
        self, hypothesis: ToolHypothesis, candidates: list[Detection], frame: SceneFrame
    ) -> int:
        """Index of the candidate that best fits the hypothesis."""

    @abstractmethod
    def segment_regions(self, tool: Detection, frame: SceneFrame) -> tuple[Region, Region]:
        """(operational, functional) sub-regions of a detected tool."""

    @abstractmethod
    def score_affordance(self, subject: str) -> AffordanceVector:
        """Affordance vector for a text instruction or an image reference."""

    @abstractmethod
    def infer_unseen_label(self, instruction: str, frame: SceneFrame) -> str:
        """Container label where the required tool may hide."""


def crop_references(frame: SceneFrame, detections: Iterable[Detection]) -> list[str]:
    """Each detection's padded crop reference, in order."""
    return [crop_reference(frame, det.box) for det in detections]


class EpisodePerception:
    """What the planner asks of a backend in one episode: each question once,
    each failure degraded or checked by one rule.

    Successful similarity scores are kept by the ordered pair ``(a, ref)`` and
    affordance vectors by subject. A frame reference names its tick
    (``frame:<world>:<tick>``), so a kept answer is reused only for the same
    frame or for references to no frame (catalog images and text): it is the
    answer the backend would give again. No failure is kept, so a failed
    question is asked again the next time.
    """

    def __init__(self, backend: PerceptionBackend, dims: int) -> None:
        self.backend = backend
        self.dims = dims
        self._scores: dict[tuple[str, str], float] = {}
        self._vectors: dict[str, AffordanceVector] = {}

    def similarities(self, a: str, refs: Iterable[str]) -> list[float]:
        """Similarity of ``a`` to each reference, in order; a failed call
        scores 0.0, so an unreachable backend degrades matching to zero."""
        kept = self._scores
        similarity = self.backend.similarity
        scores = []
        for ref in refs:
            key = a, ref
            score = kept.get(key)
            if score is None:
                try:
                    score = kept[key] = similarity(a, ref).value
                except PerceptionError:
                    score = 0.0
            scores.append(score)
        return scores

    def crop_scores(self, crops: Iterable[str], refs: list[str]) -> list[float]:
        """Best similarity of each crop reference to ``refs``; 0.0 when nothing scores."""
        return [max(self.similarities(crop, refs), default=0.0) for crop in crops]

    def detect(self, frame: SceneFrame, vocabulary: list[str], k: int) -> list[Detection]:
        """``detect``; a failed call, or a reply holding a box outside the
        frame, gives no detections."""
        try:
            found = self.backend.detect(frame, vocabulary, k)
        except PerceptionError:
            return []
        frame_box = Region(0, 0, frame.width, frame.height)
        return found if all(frame_box.contains(det.box) for det in found) else []

    def tool_regions(self, tool: Detection, frame: SceneFrame) -> tuple[Region, Region]:
        """(operational, functional) regions, clipped into ``tool.box`` (the box
        itself when they do not meet); a failed call gives the box's halves."""
        try:
            operational, functional = self.backend.segment_regions(tool, frame)
        except PerceptionError:
            return vertical_halves(tool.box)
        return clipped_into(operational, tool.box), clipped_into(functional, tool.box)

    def affordance(self, subject: str) -> AffordanceVector:
        """``score_affordance``; a vector without ``dims`` scores is a failed call."""
        vector = self._vectors.get(subject)
        if vector is None:
            vector = self.backend.score_affordance(subject)
            if len(vector) != self.dims:
                raise PerceptionError(f"{len(vector)} affordance scores, expected {self.dims}")
            self._vectors[subject] = vector
        return vector

    def candidate(
        self, hypothesis: ToolHypothesis, candidates: list[Detection], frame: SceneFrame
    ) -> Detection:
        """The candidate ``select_candidate`` picks; an index outside
        ``candidates`` is a failed call."""
        index = self.backend.select_candidate(hypothesis, candidates, frame)
        if not 0 <= index < len(candidates):
            raise PerceptionError(
                f"candidate index {index} outside the {len(candidates)} candidates"
            )
        return candidates[index]

    def propose_tool(self, instruction: str, frame: SceneFrame) -> ToolHypothesis:
        return self.backend.propose_tool(instruction, frame)

    def infer_unseen_label(self, instruction: str, frame: SceneFrame) -> str:
        return self.backend.infer_unseen_label(instruction, frame)
