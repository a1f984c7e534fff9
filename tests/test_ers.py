from __future__ import annotations

import numpy as np
from worldkit import PairCountingMock, make_world, obj

from aide.affordance import AffordanceVector, distance
from aide.config import ConfigParams
from aide.ers import (
    Grounded,
    NeedsExploration,
    Novel,
    ground_regions,
    match_tool,
    retrieve_candidates,
)
from aide.geometry import Region, iou
from aide.mock import MockPerception
from aide.planner import validity_check
from aide.simulator import observe


def noiseless(world, params, seed=0):
    return MockPerception(world, params, seed=seed, sigma=0.0)


# --- retrieve_candidates -------------------------------------------------------


def test_retrieve_pool_matches_bruteforce_subcluster_filter(space, params):
    anchor_like = next(space.iter_records())
    query = anchor_like.instruction_affordance
    pool = retrieve_candidates(space, anchor_like.text, query, params)
    assert not isinstance(pool, Novel)
    sub = space.clusters[pool.anchor.cluster_id].subclusters[pool.anchor.subcluster_id]
    expected = {
        r.id
        for r in sub.records
        if distance(pool.anchor.tool_affordance, r.tool_affordance) <= params.d
    }
    assert {r.id for r in pool.candidates} == expected
    assert pool.anchor.id in expected
    results = [result for r in pool.candidates for result in r.results]
    assert pool.tool_labels() == sorted({result.tool_label for result in results})
    images = [result.tool_image for result in results]
    assert pool.distinct_images() == sorted(set(images), key=images.index)
    hints = [
        (result.unseen_region_label, result.unseen_region_image)
        for result in results
        if result.unseen_region_label is not None
    ]
    assert pool.unseen_hints == sorted(set(hints), key=hints.index)


def test_retrieve_novel_when_nothing_in_radius(space, params):
    far = AffordanceVector((5.0,) * params.X)
    outcome = retrieve_candidates(space, "mystery", far, params)
    assert isinstance(outcome, Novel)
    assert outcome.instruction == "mystery"


def test_retrieve_zero_expansion_radius(space, params):
    record = next(space.iter_records())
    tight = params.with_overrides(d=0.0)
    pool = retrieve_candidates(space, record.text, record.instruction_affordance, tight)
    for candidate in pool.candidates:
        assert distance(pool.anchor.tool_affordance, candidate.tool_affordance) == 0.0


def test_pool_hints_deduplicated(space, params):
    record = next(space.iter_records())
    pool = retrieve_candidates(space, record.text, record.instruction_affordance, params)
    assert len(set(pool.unseen_hints)) == len(pool.unseen_hints)


# --- match_tool ---------------------------------------------------------------


def cup_world(cup_at=28.0, extra=()):
    return make_world(
        [obj("c1", "cup", "drink", 20.0, cup_at), *extra],
        tool_table={"I am thirsty": "cup"},
        gt={"I am thirsty": "c1"},
    )


def drink_pool(space, params, perception):
    vec = perception.score_affordance("I am thirsty")
    pool = retrieve_candidates(space, "I am thirsty", vec, params)
    assert not isinstance(pool, Novel)
    return pool


def test_match_grounds_visible_tool(space, params):
    world = cup_world()
    mock = noiseless(world, params)
    frame, _ = observe(world, params)
    pool = drink_pool(space, params, mock)
    outcome = match_tool(frame, pool, params, mock)
    assert isinstance(outcome, Grounded)
    assert outcome.s_max > params.m
    assert outcome.s_max >= 0.9
    assert outcome.result.tool_label == "cup"
    frame_box = Region(0, 0, frame.width, frame.height)
    assert frame_box.contains(outcome.result.tool_region)
    assert outcome.result.tool_region.contains(outcome.result.operational_region)
    assert outcome.result.tool_region.contains(outcome.result.functional_region)


def test_match_empty_scene_needs_exploration(space, params):
    world = make_world([], tool_table={"I am thirsty": "cup"})
    mock = noiseless(world, params)
    frame, _ = observe(world, params)
    pool = drink_pool(space, params, mock)
    outcome = match_tool(frame, pool, params, mock)
    assert isinstance(outcome, NeedsExploration)
    assert outcome.s_max == 0.0 and outcome.t_new == 0.0
    assert outcome.detections == ()


def test_match_blurred_low_rank_tool_routes_to_visible(space, params):
    # Five nearer off-vocabulary objects hold the top ranks; the real tool sits
    # farther out, inside the top-2N band.
    fillers = [obj(f"f{i}", "thing", "misc", 12.0 + i * 4.0, 29.0) for i in range(5)]
    world = cup_world(cup_at=13.0, extra=fillers)
    mock = noiseless(world, params)
    frame, _ = observe(world, params)
    pool = drink_pool(space, params, mock)
    outcome = match_tool(frame, pool, params, mock)
    assert isinstance(outcome, NeedsExploration)
    assert outcome.s_max <= params.m
    assert outcome.t_new > params.strategy_threshold
    assert outcome.t_new >= outcome.s_max
    ranks = {d.rank for d in outcome.detections}
    assert ranks == set(range(1, len(outcome.detections) + 1))


class Unwalkable(list):
    """A candidate list that fails if anything iterates it."""

    def __iter__(self):
        raise AssertionError("pool candidates walked after construction")


def test_match_reads_pool_facts_without_walking_candidates(space, params):
    # Grounded, so ground_regions reads the pool's images too.
    world = cup_world()
    mock = noiseless(world, params)
    frame, _ = observe(world, params)
    pool = drink_pool(space, params, mock)
    pool.candidates = Unwalkable(pool.candidates)
    outcome = match_tool(frame, pool, params, mock)
    assert isinstance(outcome, Grounded)
    assert outcome.result.tool_label == "cup"


def test_match_and_validity_score_each_pair_once(space, params):
    # Not grounded, so the top-2N band is scored; validity reuses rank 1.
    fillers = [obj(f"f{i}", "thing", "misc", 12.0 + i * 4.0, 29.0) for i in range(5)]
    world = cup_world(cup_at=13.0, extra=fillers)
    mock = PairCountingMock(world, params)
    frame, _ = observe(world, params)
    pool = drink_pool(space, params, mock)
    outcome = match_tool(frame, pool, params, mock)
    assert isinstance(outcome, NeedsExploration)
    assert len(outcome.detections) > params.N
    expected = len(outcome.detections[: 2 * params.N]) * len(pool.distinct_images())
    assert len(mock.pairs) == expected
    assert len(set(mock.pairs)) == expected
    _, score = validity_check(outcome, params)
    assert len(mock.pairs) == expected
    assert score == outcome.detections[0].confidence + outcome.similarities[0]


def test_match_absent_tool_with_container_routes_invisible(space, params):
    from aide.simulator import OCCLUDED

    world = make_world(
        [
            obj("f1", "fridge", "contain", 20.0, 22.0, w=4, h=4),
            obj("k1", "coke", "drink", 20.0, 22.0, w=1, h=1, visibility=OCCLUDED, container_id="f1"),
        ],
        instruction="I want something cold to drink",
        tool_table={"I want something cold to drink": "coke"},
        container_table={"I want something cold to drink": "fridge"},
    )
    mock = noiseless(world, params)
    frame, _ = observe(world, params)
    vec = mock.score_affordance(world.instruction)
    pool = retrieve_candidates(space, world.instruction, vec, params)
    outcome = match_tool(frame, pool, params, mock)
    assert isinstance(outcome, NeedsExploration)
    assert outcome.t_new <= params.strategy_threshold


def test_match_outcomes_threshold_consistent_under_noise(space, params):
    rng = np.random.Generator(np.random.PCG64(2))
    for trial in range(40):
        world = cup_world(cup_at=float(rng.uniform(20, 30)))
        mock = MockPerception(world, params, seed=trial, sigma=0.5)
        frame, _ = observe(world, params)
        pool = drink_pool(space, params, mock)
        outcome = match_tool(frame, pool, params, mock)
        if isinstance(outcome, Grounded):
            assert outcome.s_max > params.m
        else:
            assert outcome.s_max <= params.m
            assert outcome.t_new >= outcome.s_max
            assert 0.0 <= outcome.s_max < 1.0
            assert 0.0 <= outcome.t_new < 1.0


# --- ground_regions -------------------------------------------------------------


def test_ground_regions_recovers_part_boxes(space, params):
    world = cup_world()
    mock = noiseless(world, params)
    frame, projections = observe(world, params)
    pool = drink_pool(space, params, mock)
    outcome = match_tool(frame, pool, params, mock)
    assert isinstance(outcome, Grounded)
    proj = projections[0]
    assert iou(outcome.result.operational_region, proj.handle) >= 0.5
    assert iou(outcome.result.functional_region, proj.body) >= 0.5


def test_ground_regions_fallback_without_parts(space, params):
    world = make_world(
        [obj("c1", "cup", "drink", 20.0, 28.0, parts=False)],
        tool_table={"I am thirsty": "cup"},
    )
    mock = noiseless(world, params)
    frame, _ = observe(world, params)
    pool = drink_pool(space, params, mock)
    det = mock.detect(frame, ["cup"], 1)[0]
    operational, functional = ground_regions(frame, det, pool, params, mock)
    box = det.box
    mid = box.y_min + box.height // 2
    assert operational == Region(box.x_min, mid, box.x_max, box.y_max)
    assert functional == Region(box.x_min, box.y_min, box.x_max, mid)


# --- retrieve, then match ------------------------------------------------------


def test_pipeline_happy_path_produces_triple(space, params):
    world = cup_world()
    mock = noiseless(world, params)
    frame, _ = observe(world, params)
    outcome = match_tool(frame, drink_pool(space, params, mock), params, mock)
    assert isinstance(outcome, Grounded)
    result = outcome.result
    assert result.tool_label == "cup"
    assert result.tool_region.contains(result.operational_region)
    assert result.tool_region.contains(result.functional_region)
    assert result.unseen_region_label is None


def test_pipeline_novel_instruction(space, params):
    world = make_world([obj("c1", "cup", "drink", 20.0, 28.0)])
    mock = noiseless(world, params)
    instruction = "completely unmapped request"
    vector = mock.score_affordance(instruction)
    outcome = retrieve_candidates(space, instruction, vector, params)
    assert isinstance(outcome, Novel)


def test_pipeline_deterministic_with_noiseless_mocks(space, params):
    results = []
    for _ in range(2):
        world = cup_world()
        mock = noiseless(world, params)
        frame, _ = observe(world, params)
        outcome = match_tool(frame, drink_pool(space, params, mock), params, mock)
        assert isinstance(outcome, Grounded)
        results.append(
            (outcome.s_max, outcome.result.tool_region, outcome.result.operational_region)
        )
    assert results[0] == results[1]
