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


# The value types below that a tick builds have written-out ``__init__``s,
# each setting its slots through the slot's own setter, bound once after the
# class: the generated frozen ``__init__`` writes each field through
# ``object.__setattr__``, and with a ``__post_init__`` check it costs about
# twice as much.


@dataclass(frozen=True, slots=True, init=False)
class Detection:
    """One labeled box. Rank 1 is the highest confidence within its response."""

    label: str
    box: Region
    confidence: float
    rank: int

    def __init__(self, label: str, box: Region, confidence: float, rank: int) -> None:
        if not (0.0 <= confidence <= 1.0):
            raise ValueError(f"confidence {confidence} outside [0, 1]")
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        _set_label(self, label)
        _set_box(self, box)
        _set_confidence(self, confidence)
        _set_rank(self, rank)


_set_label = Detection.label.__set__
_set_box = Detection.box.__set__
_set_confidence = Detection.confidence.__set__
_set_rank = Detection.rank.__set__


@dataclass(frozen=True, slots=True, init=False)
class SimilarityScore:
    """One similarity in [0, 1): a backend builds one per answer, many times a
    tick."""

    value: float

    def __init__(self, value: float) -> None:
        if not (0.0 <= value < 1.0):
            raise ValueError(f"similarity {value} outside [0, 1)")
        _set_value(self, value)


_set_value = SimilarityScore.value.__set__


@dataclass(frozen=True, slots=True, init=False)
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

    def __init__(
        self,
        image: str,
        width: int,
        height: int,
        timestamp: float,
        robot_x: float = 0.0,
        robot_y: float = 0.0,
        pixels_per_unit: float = 1.0,
    ) -> None:
        if width <= 0 or height <= 0:
            raise ValueError("frame dimensions must be positive")
        _set_image(self, image)
        _set_width(self, width)
        _set_height(self, height)
        _set_timestamp(self, timestamp)
        _set_robot_x(self, robot_x)
        _set_robot_y(self, robot_y)
        _set_pixels_per_unit(self, pixels_per_unit)

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


_set_image = SceneFrame.image.__set__
_set_width = SceneFrame.width.__set__
_set_height = SceneFrame.height.__set__
_set_timestamp = SceneFrame.timestamp.__set__
_set_robot_x = SceneFrame.robot_x.__set__
_set_robot_y = SceneFrame.robot_y.__set__
_set_pixels_per_unit = SceneFrame.pixels_per_unit.__set__


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


def boxes_in_frame(detections: Iterable[Detection], frame: SceneFrame) -> bool:
    """Whether every detection's box lies inside the frame. A ``Region`` is
    never negative or inverted, so only its far edges can leave the frame."""
    width, height = frame.width, frame.height
    for det in detections:
        box = det.box
        if box.x_max > width or box.y_max > height:
            return False
    return True


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

    Successful similarity scores are kept per asking reference ``a``, by
    ``ref``, and affordance vectors by subject. A frame reference names its tick
    (``frame:<world>:<tick>``), so a kept answer is reused only for the same
    frame or for references to no frame (catalog images and text): it is the
    answer the backend would give again. No failure is kept, so a failed
    question is asked again the next time.
    """

    def __init__(self, backend: PerceptionBackend, dims: int) -> None:
        self.backend = backend
        self.dims = dims
        self._scores: dict[str, dict[str, float]] = {}
        self._vectors: dict[str, AffordanceVector] = {}

    def similarities(self, a: str, refs: Iterable[str]) -> list[float]:
        """Similarity of ``a`` to each reference, in order; a failed call
        scores 0.0, so an unreachable backend degrades matching to zero."""
        kept = self._scores.get(a)
        if kept is None:
            kept = self._scores[a] = {}
        similarity = self.backend.similarity
        scores = []
        for ref in refs:
            score = kept.get(ref)
            if score is None:
                try:
                    score = kept[ref] = similarity(a, ref).value
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
        return found if boxes_in_frame(found, frame) else []

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
