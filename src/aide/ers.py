"""Retrieval-then-match grounding.

Given an instruction's affordance vector, retrieve a candidate pool from the
relationship space (DFS within radius ``c``, subcluster expansion within
``d``), then try to ground the tool in the scene: detect with the pool's
vocabulary, compare candidate crops against the pool's tool images, and either
emit a complete grounding result (highest similarity strictly above ``m``) or
hand the routing scores to the exploration policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .affordance import AffordanceVector
from .config import ConfigParams
from .geometry import Region
from .perception import (
    CROP_PAD_FRACTION,
    Detection,
    PerceptionBackend,
    SceneFrame,
    best_similarity,
    crop_reference,
    detect_or_empty,
    tool_regions,
)
from .space import GroundingResult, InstructionRecord, RelationshipSpace

PART_VOCABULARY = ("handle", "body")


@dataclass(frozen=True)
class Novel:
    """Retrieval found nothing within radius c: the task is new to the space."""

    instruction: str


@dataclass
class CandidatePool:
    """A retrieved pool and the facts every tick reads off it.

    A pool never changes once retrieved, so its sorted tool labels, distinct
    tool images and distinct unseen hints (both in first-seen order) are
    derived once, in one pass over the candidates' results.
    """

    anchor: InstructionRecord
    candidates: list[InstructionRecord]
    unseen_hints: list[tuple[str, str]] = field(init=False)
    _labels: list[str] = field(init=False, repr=False)
    _images: list[str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        labels: dict[str, None] = {}
        images: dict[str, None] = {}
        hints: dict[tuple[str, str], None] = {}
        for record in self.candidates:
            for result in record.results:
                labels.setdefault(result.tool_label, None)
                images.setdefault(result.tool_image, None)
                if result.unseen_region_label is not None:
                    hints.setdefault(
                        (result.unseen_region_label, result.unseen_region_image), None
                    )
        self._labels = sorted(labels)
        self._images = list(images)
        self.unseen_hints = list(hints)

    def tool_labels(self) -> list[str]:
        return self._labels

    def distinct_images(self) -> list[str]:
        """Tool image references without duplicates, in first-seen order."""
        return self._images


@dataclass(frozen=True)
class Grounded:
    result: GroundingResult
    s_max: float
    detections: tuple[Detection, ...] = ()
    # Best pool-image similarity of each scored detection, by rank.
    similarities: tuple[float, ...] = ()


@dataclass(frozen=True)
class NeedsExploration:
    # None when the slow stream explores: it matched no retrieved pool.
    pool: CandidatePool | None
    s_max: float
    t_new: float
    detections: tuple[Detection, ...] = ()
    similarities: tuple[float, ...] = ()


MatchOutcome = Grounded | NeedsExploration


def retrieve_candidates(
    space: RelationshipSpace,
    instruction: str,
    instruction_vector: AffordanceVector,
    params: ConfigParams,
) -> CandidatePool | Novel:
    anchor, _ = space.dfs_retrieve(instruction_vector, params.c)
    if anchor is None:
        return Novel(instruction=instruction)
    return CandidatePool(anchor, space.candidate_set(anchor, params.d))


def match_tool(
    frame: SceneFrame,
    pool: CandidatePool,
    params: ConfigParams,
    perception: PerceptionBackend,
) -> MatchOutcome:
    """Detect pool-vocabulary candidates and similarity-match their crops.

    Each (crop, image) pair is scored once. ``s_max`` ranges over the top-N
    detections and ``t_new`` over the top-2N, which are scored only when the
    top-N do not ground the tool; the full ranked list (up to N') rides along
    for the exploration policy.
    """
    detections = tuple(
        detect_or_empty(perception, frame, pool.tool_labels(), params.detection_budget)
    )
    images = pool.distinct_images()
    similarities: list[float] = []

    def score_up_to(rank_cap: int) -> None:
        for det in detections[len(similarities) : rank_cap]:
            crop = crop_reference(frame, det.box)
            similarities.append(best_similarity(perception, crop, images))

    score_up_to(params.N)
    s_max = max(similarities, default=0.0)
    if s_max > params.m:
        best = detections[similarities.index(s_max)]
        operational, functional = ground_regions(frame, best, pool, params, perception)
        result = GroundingResult(
            tool_label=best.label,
            tool_image=crop_reference(frame, best.box),
            tool_region=best.box,
            operational_region=operational,
            functional_region=functional,
        )
        return Grounded(result, s_max, detections, tuple(similarities))

    score_up_to(2 * params.N)
    t_new = max(similarities, default=0.0)
    return NeedsExploration(pool, s_max, t_new, detections, tuple(similarities))


def ground_regions(
    frame: SceneFrame,
    tool: Detection,
    pool: CandidatePool,
    params: ConfigParams,
    perception: PerceptionBackend,
) -> tuple[Region, Region]:
    """Locate the operational and functional sub-regions of a grounded tool.

    Part detections are restricted to the (padded) tool box and matched against
    the pool's exemplar part crops; with no part detections the region proposer
    fallback splits the tool box.
    """
    search = tool.box.pad(CROP_PAD_FRACTION, frame.width, frame.height)
    part_detections = detect_or_empty(perception, frame, list(PART_VOCABULARY), params.N_prime)
    parts = [det for det in part_detections if search.contains(det.box)]
    if not parts:
        return tool_regions(perception, tool, frame)

    images = pool.distinct_images()
    op_exemplars = [f"{image}#op" for image in images]
    fn_exemplars = [f"{image}#fn" for image in images]

    def pick(exemplars: list[str]) -> Region:
        def score(det: Detection) -> float:
            return best_similarity(perception, crop_reference(frame, det.box), exemplars)

        return max(parts, key=score).box

    def clipped(box: Region) -> Region:
        inter = box.intersection(tool.box)
        return inter if inter is not None and inter.area > 0 else tool.box

    return clipped(pick(op_exemplars)), clipped(pick(fn_exemplars))
