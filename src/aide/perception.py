"""Perception capability contract consumed by retrieval, planning and exploration.

Implementations wrap either the deterministic simulator-backed mock or a
remote model service. Every response is an immutable value; backends must
tolerate concurrent calls.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable

from .affordance import AffordanceVector
from .geometry import Region, vertical_halves

# Each side of a crop grows by this fraction of the box extent.
CROP_PAD_FRACTION = 0.05


class PerceptionError(RuntimeError):
    """Backend could not produce a response; the helpers below say how each call degrades."""


class ReasonerError(PerceptionError):
    """The reasoning capability has no answer for this input."""


class UnknownReferenceError(PerceptionError):
    """An image or text reference could not be resolved."""


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class SimilarityScore:
    value: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.value < 1.0):
            raise ValueError(f"similarity {self.value} outside [0, 1)")


@dataclass(frozen=True)
class SceneFrame:
    """One rendered observation.

    ``image`` is an opaque reference resolvable by the active backend. The
    robot pose and scale ride along so the planner can reason about world
    distances without touching the simulator directly.
    """

    image: str
    width: int
    height: int
    timestamp: float
    robot_x: float = 0.0
    robot_y: float = 0.0
    robot_heading: float = 0.0
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
    padded = box.pad(CROP_PAD_FRACTION, frame.width, frame.height)
    return f"{frame.image}#crop:{padded.x_min},{padded.y_min},{padded.x_max},{padded.y_max}"


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


def best_similarity(perception: PerceptionBackend, a: str, refs: Iterable[str]) -> float:
    """Highest similarity of ``a`` to any reference; 0.0 when nothing scores.

    A failed similarity call counts as no score, so an unreachable backend
    degrades matching to zero rather than raising.
    """
    best = 0.0
    for ref in refs:
        try:
            best = max(best, perception.similarity(a, ref).value)
        except PerceptionError:
            continue
    return best


def detect_or_empty(
    perception: PerceptionBackend, frame: SceneFrame, vocabulary: list[str], k: int
) -> list[Detection]:
    """``detect``, with a failed call, or a reply holding a box outside the
    frame, degrading to no detections."""
    try:
        found = perception.detect(frame, vocabulary, k)
    except PerceptionError:
        return []
    frame_box = Region(0, 0, frame.width, frame.height)
    return found if all(frame_box.contains(det.box) for det in found) else []


def tool_regions(
    perception: PerceptionBackend, tool: Detection, frame: SceneFrame
) -> tuple[Region, Region]:
    """(operational, functional) regions, clipped into ``tool.box`` (the box
    itself when they do not meet); a failed call gives the box's halves."""
    try:
        operational, functional = perception.segment_regions(tool, frame)
    except PerceptionError:
        return vertical_halves(tool.box)
    return (
        operational.intersection(tool.box) or tool.box,
        functional.intersection(tool.box) or tool.box,
    )


def checked_affordance(
    perception: PerceptionBackend, subject: str, dims: int
) -> AffordanceVector:
    """``score_affordance``; a vector without ``dims`` scores is a failed call."""
    vector = perception.score_affordance(subject)
    if len(vector) != dims:
        raise PerceptionError(f"{len(vector)} affordance scores, expected {dims}")
    return vector
