"""Retrieval-then-match grounding.

Given an instruction's affordance vector, retrieve a candidate pool from the
relationship space (DFS within radius ``c``, subcluster expansion within
``d``), then try to ground the tool in the scene: detect with the pool's
vocabulary, compare candidate crops against the pool's tool images, and either
emit a complete grounding result (highest similarity strictly above ``m``) or
hand the routing scores to the exploration policy. Matching runs in two stages,
``match_top`` and ``match_tool``; the planner decides between them whether the
tick goes on to the second stage.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Sequence

from .affordance import AffordanceVector
from .config import ConfigParams
from .geometry import Region, clipped_into
from .perception import (
    CROP_PAD_FRACTION,
    PART_VOCABULARY,
    Detection,
    EpisodePerception,
    SceneFrame,
    crop_reference,
    crop_references,
)
from .space import GroundingResult, RelationshipSpace


@dataclass
class CandidatePool:
    """The facts every tick reads off a retrieved pool.

    Built from the pool's distinct grounding results, in first-seen order
    along the candidate order: its sorted tool labels, and its distinct tool
    images and unseen hints, both in first-seen order. A pool never changes
    once retrieved, so they are derived once.
    """

    results: InitVar[Sequence[GroundingResult]]
    unseen_hints: list[tuple[str, str]] = field(init=False)
    _labels: list[str] = field(init=False, repr=False)
    _images: list[str] = field(init=False, repr=False)

    def __post_init__(self, results: Sequence[GroundingResult]) -> None:
        labels: dict[str, None] = {}
        images: dict[str, None] = {}
        hints: dict[tuple[str, str], None] = {}
        for result in results:
            labels.setdefault(result.tool_label, None)
            images.setdefault(result.tool_image, None)
            if result.unseen_region_label is not None:
                hints.setdefault((result.unseen_region_label, result.unseen_region_image), None)
        self._labels = sorted(labels)
        self._images = list(images)
        self.unseen_hints = list(hints)

    def tool_labels(self) -> list[str]:
        return self._labels

    def distinct_images(self) -> list[str]:
        """Tool image references without duplicates, in first-seen order."""
        return self._images


@dataclass(frozen=True)
class TopMatch:
    """The first stage of a match: the ranked detections (up to N'), the best
    pool-image similarity of each of the top N, by rank, and their maximum."""

    detections: tuple[Detection, ...]
    similarities: tuple[float, ...]
    s_max: float


@dataclass(frozen=True)
class Grounded:
    result: GroundingResult


def validity_check(top: TopMatch, params: ConfigParams) -> tuple[bool, float]:
    """Best detection confidence plus its best pool-image similarity.

    Both are read off the top-N stage, which scored the top-ranked crop
    already. A score strictly below the validity threshold means no valid
    tool-related object is in view; exactly at the threshold still counts as
    valid.
    """
    if not top.detections:
        return False, 0.0
    score = top.detections[0].confidence + top.similarities[0]
    return score >= params.validity_threshold, score


def retrieve_candidates(
    space: RelationshipSpace,
    instruction_vector: AffordanceVector,
    params: ConfigParams,
) -> CandidatePool | None:
    """The pool around the first stored record within ``c`` of the vector;
    None when there is none, that is, when the task is novel to the space."""
    anchor, _ = space.dfs_retrieve(instruction_vector, params.c)
    if anchor is None:
        return None
    return CandidatePool(space.pool_results(anchor, params.d))


def match_top(
    frame: SceneFrame,
    pool: CandidatePool,
    params: ConfigParams,
    perception: EpisodePerception,
) -> TopMatch:
    """Detect pool-vocabulary candidates and score the top-N crops, each
    (crop, image) pair once."""
    detections = tuple(perception.detect(frame, pool.tool_labels(), params.detection_budget))
    crops = crop_references(frame, detections[: params.N])
    similarities = perception.crop_scores(crops, pool.distinct_images())
    return TopMatch(detections, tuple(similarities), max(similarities, default=0.0))


def match_tool(
    frame: SceneFrame,
    top: TopMatch,
    pool: CandidatePool,
    params: ConfigParams,
    perception: EpisodePerception,
) -> Grounded | float:
    """Ground the tool at the best top-N crop when ``s_max`` is above ``m``;
    otherwise score the N+1..2N band too and return ``t_new``, the best score
    over the top-2N, which routes the exploration.
    """
    if top.s_max > params.m:
        best = top.detections[top.similarities.index(top.s_max)]
        operational, functional = ground_regions(frame, best, pool, params, perception)
        return Grounded(
            GroundingResult(
                tool_label=best.label,
                tool_image=crop_reference(frame, best.box),
                tool_region=best.box,
                operational_region=operational,
                functional_region=functional,
            )
        )
    crops = crop_references(frame, top.detections[params.N : 2 * params.N])
    band = perception.crop_scores(crops, pool.distinct_images())
    return max(top.similarities + tuple(band), default=0.0)


def ground_regions(
    frame: SceneFrame,
    tool: Detection,
    pool: CandidatePool,
    params: ConfigParams,
    perception: EpisodePerception,
) -> tuple[Region, Region]:
    """Locate the operational and functional sub-regions of a grounded tool.

    Part detections are restricted to the (padded) tool box and matched against
    the pool's exemplar part crops; with no part detections the region proposer
    fallback splits the tool box.
    """
    # The padded tool box's coordinates: a part lies inside them or is dropped.
    x0, y0, x1, y1 = tool.box.padded_bounds(CROP_PAD_FRACTION, frame.width, frame.height)
    parts = [
        det
        for det in perception.detect(frame, list(PART_VOCABULARY), params.N_prime)
        if x0 <= det.box.x_min and y0 <= det.box.y_min and det.box.x_max <= x1 and det.box.y_max <= y1
    ]
    if not parts:
        return perception.tool_regions(tool, frame)

    images = pool.distinct_images()
    crops = crop_references(frame, parts)

    def pick(suffix: str) -> Region:
        scores = perception.crop_scores(crops, [f"{image}{suffix}" for image in images])
        return parts[scores.index(max(scores))].box

    return clipped_into(pick("#op"), tool.box), clipped_into(pick("#fn"), tool.box)
