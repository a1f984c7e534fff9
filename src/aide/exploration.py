"""Exploration policy: where to look when matching cannot ground the tool.

Exploration runs only when matching did not ground the tool (``match_tool``
grounds on a score strictly above ``m``). Routing is then threshold-driven:
visible exploration runs when the wider top-2N match score exceeds the
strategy threshold (the tool is probably in view but degraded) and invisible
exploration runs when it does not (the tool is probably hidden in a
container).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .config import ConfigParams
from .ers import CandidatePool
from .geometry import Region, bounding_region, pixel_bounds
from .perception import (
    Detection,
    EpisodePerception,
    SceneFrame,
    ToolHypothesis,
    crop_references,
)


class Strategy(str, Enum):
    VISIBLE = "visible"
    INVISIBLE = "invisible"


class ExplorationImpossible(RuntimeError):
    """No usable candidates for the requested exploration strategy."""


@dataclass(frozen=True)
class ExplorationOutcome:
    """Where exploration leads: a visible-exploration region, or, with the
    container's ``label``, an invisible-exploration target."""

    region: Region
    label: str | None = None


def choose_strategy(t_new: float, params: ConfigParams) -> Strategy:
    """Pure routing rule for a match that did not ground: visible when the
    top-2N score is strictly above the strategy threshold."""
    if t_new > params.strategy_threshold:
        return Strategy.VISIBLE
    return Strategy.INVISIBLE


def visible_explore(
    detections: Sequence[Detection], frame: SceneFrame, params: ConfigParams
) -> Region:
    """Weighted square accumulation over low-rank detections.

    Each detection ranked N+1..2N centers a square of half-side PX.
    Detections ranked N+1..N' that intersect the square contribute weight
    N' - rank. The winning square, together with every contributing box,
    defines the minimal bounding rectangle returned.
    Ties resolve to the candidate with the smaller rank, then smaller x_min.
    """
    lo, hi = params.N + 1, 2 * params.N
    candidates = [d for d in detections if lo <= d.rank <= hi]
    if not candidates:
        raise ExplorationImpossible(
            f"no detections ranked {lo}..{hi} to seed exploration squares"
        )
    members_pool = [d for d in detections if lo <= d.rank <= params.N_prime]

    best_key: tuple[int, int, int] | None = None
    best_square: Region | None = None
    best_boxes: list[Region] = []
    px, width, height = params.PX, frame.width, frame.height
    for cand in candidates:
        cx, cy = cand.box.center
        square = Region(*pixel_bounds(cx - px, cy - px, cx + px, cy + px, width, height))
        members = [d for d in members_pool if d.box.intersects(square)]
        weight = sum(params.N_prime - d.rank for d in members)
        key = (-weight, cand.rank, cand.box.x_min)
        if best_key is None or key < best_key:
            best_key, best_square = key, square
            best_boxes = [d.box for d in members]

    return bounding_region([best_square] + best_boxes).clip(frame.width, frame.height)


def invisible_explore(
    frame: SceneFrame,
    instruction: str,
    pool: CandidatePool | None,
    params: ConfigParams,
    perception: EpisodePerception,
) -> tuple[Region, str]:
    """Locate the container the required tool most plausibly hides in.

    The container label comes from the pool's unseen hints (instruction text
    matched against hint labels when there are several) when available,
    otherwise from the reasoner. The region is the best-matching container
    detection.
    """
    hints = pool.unseen_hints if pool is not None else []
    if len(hints) > 1:
        labels = [hint_label for hint_label, _ in hints]
        scores = perception.similarities(instruction, labels)
        label = labels[scores.index(max(scores))]
    elif hints:
        label = hints[0][0]
    else:
        label = perception.infer_unseen_label(instruction, frame)

    detections = perception.detect(frame, [label], params.N)
    if not detections:
        raise ExplorationImpossible(f"no {label!r} region detected in the scene")

    hint_images = [image for _, image in hints if image]
    if hint_images:
        scores = perception.crop_scores(crop_references(frame, detections), hint_images)
        return detections[scores.index(max(scores))].box, label

    chosen = perception.candidate(ToolHypothesis(label=label), detections, frame)
    return chosen.box, label
