from __future__ import annotations

import numpy as np
import pytest
from worldkit import PairCountingMock, fridge_world, make_world, obj

from aide.ers import CandidatePool, retrieve_candidates
from aide.exploration import (
    ExplorationImpossible,
    ExplorationOutcome,
    Strategy,
    choose_strategy,
    invisible_explore,
    visible_explore,
)
from aide.geometry import Region
from aide.mock import MockPerception
from aide.perception import Detection, EpisodePerception, PerceptionError, SceneFrame
from aide.simulator import observe
from aide.space import GroundingResult


def frame(size=800):
    return SceneFrame(image="frame:x:0", width=size, height=size, timestamp=0.0)


def det(rank, x0, y0, x1, y1, label="thing"):
    # Confidences only need to be non-increasing in rank.
    return Detection(label=label, box=Region(x0, y0, x1, y1), confidence=1.0 / rank, rank=rank)


# --- strategy choice ----------------------------------------------------------


def test_choose_strategy_spec_cases(params):
    assert choose_strategy(0.80, params) is Strategy.VISIBLE
    assert choose_strategy(0.75, params) is Strategy.INVISIBLE  # strict boundary
    assert choose_strategy(0.0, params) is Strategy.INVISIBLE


def test_choose_strategy_total_and_deterministic(params):
    for t in np.linspace(0.0, 0.999, 37):
        first = choose_strategy(float(t), params)
        assert first is choose_strategy(float(t), params)
        assert first in (Strategy.VISIBLE, Strategy.INVISIBLE)


def test_exploration_outcome_validation():
    with pytest.raises(TypeError):
        ExplorationOutcome()  # the region is required
    # Without a container label the outcome is a visible-exploration region.
    assert ExplorationOutcome(Region(0, 0, 1, 1)).label is None
    assert list(Strategy) == [Strategy.VISIBLE, Strategy.INVISIBLE]


# --- visible exploration -------------------------------------------------------


def oracle_visible(detections, width, height, params):
    """Independent enumeration of candidate squares and contributor sets."""
    lo, hi = params.N + 1, 2 * params.N
    candidates = [d for d in detections if lo <= d.rank <= hi]
    if not candidates:
        return None
    best = None
    for cand in candidates:
        cx = (cand.box.x_min + cand.box.x_max) / 2.0
        cy = (cand.box.y_min + cand.box.y_max) / 2.0
        sx0 = min(max(int(round(cx - params.PX)), 0), width)
        sy0 = min(max(int(round(cy - params.PX)), 0), height)
        sx1 = min(max(int(round(cx + params.PX)), 0), width)
        sy1 = min(max(int(round(cy + params.PX)), 0), height)
        members = []
        weight = 0
        for d in detections:
            if not (lo <= d.rank <= params.N_prime):
                continue
            b = d.box
            if b.x_min <= sx1 and sx0 <= b.x_max and b.y_min <= sy1 and sy0 <= b.y_max:
                members.append(d)
                weight += params.N_prime - d.rank
        key = (-weight, cand.rank, cand.box.x_min)
        if best is None or key < best[0]:
            best = (key, (sx0, sy0, sx1, sy1), members)
    (_, square, members) = best
    xs = [square[0], square[2]] + [v for d in members for v in (d.box.x_min, d.box.x_max)]
    ys = [square[1], square[3]] + [v for d in members for v in (d.box.y_min, d.box.y_max)]
    return Region(
        min(max(min(xs), 0), width),
        min(max(min(ys), 0), height),
        min(max(max(xs), 0), width),
        min(max(max(ys), 0), height),
    )


def test_visible_single_candidate_hand_computed(params):
    detections = [det(r, 700 + 10 * r, 700, 705 + 10 * r, 705) for r in range(1, 6)]
    detections.append(det(6, 190, 190, 210, 210))
    region = visible_explore(detections, frame(), params)
    # Square around (200, 200) with half-side 250, clipped; own box inside it.
    assert region == Region(0, 0, 450, 450)
    # The oracle agrees and reports the same winner weight structure.
    assert oracle_visible(detections, 800, 800, params) == region


def test_visible_weight_values(params):
    # One candidate at rank 6, one contributing object at rank 10 inside, one
    # non-contributing object ranked 41 inside (beyond N').
    detections = [det(r, 600, 600 + 12 * r, 610, 610 + 12 * r) for r in range(1, 6)]
    detections.append(det(6, 100, 100, 120, 120))
    detections.append(det(10, 140, 140, 160, 160))
    extra = [det(r, 600, 20 + 5 * r, 608, 26 + 5 * r) for r in range(11, 41)]
    detections += extra
    region = visible_explore(detections, frame(), params)
    assert region == oracle_visible(detections, 800, 800, params)


def test_visible_rank_nprime_contributes_zero_but_expands(params):
    detections = [det(r, 700, 700 + 10 * r, 706, 706 + 10 * r) for r in range(1, 6)]
    detections.append(det(6, 100, 100, 120, 120))  # candidate; square clips to (0,0,350,350)
    detections.append(det(40, 340, 100, 480, 140))  # weight 0, intersects, expands x
    region = visible_explore(detections, frame(), params)
    assert region.x_max == 480
    assert region == oracle_visible(detections, 800, 800, params)


def test_visible_no_candidates_raises(params):
    detections = [det(r, 10 * r, 10, 10 * r + 5, 15) for r in range(1, 6)]
    with pytest.raises(ExplorationImpossible):
        visible_explore(detections, frame(), params)
    with pytest.raises(ExplorationImpossible):
        visible_explore([], frame(), params)


def _random_instances(trials, seed, max_detections=50):
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(trials):
        n = int(rng.integers(0, max_detections + 1))
        detections = []
        for rank in range(1, n + 1):
            x0 = int(rng.integers(0, 780))
            y0 = int(rng.integers(0, 780))
            w = int(rng.integers(1, 120))
            h = int(rng.integers(1, 120))
            detections.append(
                det(rank, x0, y0, min(x0 + w, 800), min(y0 + h, 800))
            )
        yield detections


def test_visible_matches_oracle_on_random_instances(params):
    checked = 0
    for detections in _random_instances(1000, seed=31):
        expected = oracle_visible(detections, 800, 800, params)
        if expected is None:
            with pytest.raises(ExplorationImpossible):
                visible_explore(detections, frame(), params)
            continue
        got = visible_explore(detections, frame(), params)
        assert got == expected
        checked += 1
    assert checked > 500


def test_visible_output_contains_square_and_members(params):
    for detections in _random_instances(300, seed=77):
        try:
            region = visible_explore(detections, frame(), params)
        except ExplorationImpossible:
            continue
        lo, hi = params.N + 1, 2 * params.N
        candidates = [d for d in detections if lo <= d.rank <= hi]
        assert any(
            region.intersects(c.box) or region.contains(c.box) for c in candidates
        )
        frame_box = Region(0, 0, 800, 800)
        assert frame_box.contains(region)


def test_visible_weights_bounded(params):
    # Objects ranked <= N or > N' never contribute weight: remove them and the
    # winning rectangle is unchanged when they sit outside every square.
    detections = [det(r, 700, 700, 730, 730) for r in range(1, 6)]
    detections += [det(6, 50, 50, 70, 70), det(41, 52, 52, 68, 68)]
    region = visible_explore(detections, frame(), params)
    trimmed = [d for d in detections if params.N + 1 <= d.rank <= params.N_prime]
    assert region == visible_explore(trimmed, frame(), params)


# --- invisible exploration -------------------------------------------------------


def test_invisible_with_pool_hints_finds_container(space, params):
    world = fridge_world()
    mock = MockPerception(world, params, seed=0, sigma=0.0)
    frame_, projections = observe(world)
    vec = mock.score_affordance(world.instruction)
    pool = retrieve_candidates(space, vec, params)
    assert pool is not None
    assert ("fridge", "container:fridge") in pool.unseen_hints
    region, label = invisible_explore(
        frame_, world.instruction, pool, params, EpisodePerception(mock, params.X)
    )
    assert label == "fridge"
    fridge_box = next(p for p in projections if p.object_id == "f1").box
    assert region == fridge_box


def test_invisible_without_pool_uses_reasoner(space, params):
    world = fridge_world()
    mock = MockPerception(world, params, seed=0, sigma=0.0)
    frame_, projections = observe(world)
    region, label = invisible_explore(
        frame_, world.instruction, None, params, EpisodePerception(mock, params.X)
    )
    assert label == "fridge"
    assert region == next(p for p in projections if p.object_id == "f1").box


def test_invisible_empty_scene_impossible(space, params):
    world = make_world(
        [], container_table={"I want something cold to drink": "fridge"}
    )
    mock = MockPerception(world, params, seed=0, sigma=0.0)
    frame_, _ = observe(world)
    asked = EpisodePerception(mock, params.X)
    with pytest.raises(ExplorationImpossible):
        invisible_explore(frame_, "I want something cold to drink", None, params, asked)


def test_invisible_label_selection_prefers_table_match(space, params):
    # Two hints available; the instruction-to-container table match wins.
    world = fridge_world()
    mock = MockPerception(world, params, seed=0, sigma=0.0)
    frame_, _ = observe(world)
    vec = mock.score_affordance(world.instruction)
    pool = retrieve_candidates(space, vec, params)
    pool.unseen_hints = [("drawer", "container:drawer"), ("fridge", "container:fridge")]
    region, label = invisible_explore(
        frame_, world.instruction, pool, params, EpisodePerception(mock, params.X)
    )
    assert label == "fridge"


class HintFailingMock(MockPerception):
    """Noiseless mock whose similarity call fails for one hint label."""

    def __init__(self, world, params, failing):
        super().__init__(world, params, seed=0, sigma=0.0)
        self.failing = failing
        self.failures = 0

    def similarity(self, a, b):
        if b == self.failing:
            self.failures += 1
            raise PerceptionError(f"similarity to {b!r} unavailable")
        return super().similarity(a, b)


def test_invisible_hint_ranking_survives_a_failed_similarity(space, params):
    # The first hint's score fails and counts as zero; the later, table-matched
    # hint wins.
    world = fridge_world()
    mock = HintFailingMock(world, params, failing="drawer")
    frame_, projections = observe(world)
    vec = mock.score_affordance(world.instruction)
    pool = retrieve_candidates(space, vec, params)
    pool.unseen_hints = [("drawer", "container:drawer"), ("fridge", "container:fridge")]
    region, label = invisible_explore(
        frame_, world.instruction, pool, params, EpisodePerception(mock, params.X)
    )
    assert mock.failures == 1
    assert label == "fridge"
    assert region == next(p for p in projections if p.object_id == "f1").box


def test_invisible_single_hint_is_not_ranked(space, params):
    world = fridge_world()
    mock = PairCountingMock(world, params)
    frame_, projections = observe(world)
    box = Region(0, 0, 10, 10)
    result = GroundingResult(
        tool_label="coke",
        tool_image="tool:drink:coke",
        tool_region=box,
        operational_region=box,
        functional_region=box,
        unseen_region_label="fridge",
        unseen_region_image="container:fridge",
    )
    pool = CandidatePool([result])
    assert pool.unseen_hints == [("fridge", "container:fridge")]
    region, label = invisible_explore(
        frame_, world.instruction, pool, params, EpisodePerception(mock, params.X)
    )
    assert label == "fridge"
    assert region == next(p for p in projections if p.object_id == "f1").box
    assert (world.instruction, "fridge") not in mock.pairs
