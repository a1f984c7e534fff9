"""Planner behavior when the perception backend fails mid-episode."""

from __future__ import annotations

from dataclasses import replace

from worldkit import make_world, obj

from aide.affordance import AffordanceVector
from aide.ers import NeedsExploration, match_tool, retrieve_candidates
from aide.geometry import Region
from aide.mock import MockPerception
from aide.perception import PerceptionError
from aide.planner import run_closed_loop
from aide.simulator import observe


class FlakyBackend:
    """Delegates to the mock but fails selected capabilities."""

    def __init__(self, inner, broken=()):
        self._inner = inner
        self.broken = set(broken)

    def __getattr__(self, name):
        if name in self.broken:
            def explode(*args, **kwargs):
                raise PerceptionError(f"{name} backend unreachable")

            return explode
        return getattr(self._inner, name)


def cup_world():
    return make_world(
        [obj("c1", "cup", "drink", 20.0, 28.0)],
        tool_table={"I am thirsty": "cup"},
        gt={"I am thirsty": "c1"},
    )


def test_detect_failure_is_treated_as_zero_detections(space, params):
    world = cup_world()
    mock = MockPerception(world, params, sigma=0.0)
    flaky = FlakyBackend(mock, broken={"detect"})
    frame, _ = observe(world, params)
    vec = mock.score_affordance("I am thirsty")
    pool = retrieve_candidates(space, "I am thirsty", vec, params)
    outcome = match_tool(frame, pool, params, flaky)
    assert isinstance(outcome, NeedsExploration)
    assert outcome.s_max == 0.0 and outcome.t_new == 0.0
    assert outcome.detections == ()


def test_episode_survives_similarity_outage(space, params):
    # Similarity failures degrade scores to zero: no grounding, no crash; the
    # episode ends in a controlled failure rather than an exception.
    world = cup_world()
    mock = MockPerception(world, params, sigma=0.0)
    flaky = FlakyBackend(mock, broken={"similarity"})
    trace = run_closed_loop(
        world.instruction, world, space.clone(), params, flaky, max_steps=20
    )
    assert trace.status == "failed"
    assert trace.steps >= 1


def test_episode_survives_total_perception_outage(space, params):
    world = cup_world()
    mock = MockPerception(world, params, sigma=0.0)
    flaky = FlakyBackend(
        mock, broken={"detect", "similarity", "score_affordance", "propose_tool"}
    )
    trace = run_closed_loop(
        world.instruction, world, space.clone(), params, flaky, max_steps=10
    )
    assert trace.status == "failed"
    assert trace.fail_reason in ("planning-error", "timeout", "exploration-impossible")


class ShortAffordance(MockPerception):
    """Scores every subject with a 5-dimension vector."""

    def score_affordance(self, subject):
        return AffordanceVector((5.0,) * 5)


class SegmentsOutsideTheBox(MockPerception):
    """Places the operational region past the tool box's right edge and the
    functional region away from it."""

    def segment_regions(self, tool, frame):
        box = tool.box
        return (
            Region(box.x_min, box.y_min, box.x_max + 10, box.y_max),
            Region(0, 0, 1, 1),
        )


class BoxesPastTheFrame(MockPerception):
    """Widens every detection box to ``frame.width + 5``."""

    def detect(self, frame, vocabulary, k):
        return [
            replace(det, box=Region(det.box.x_min, det.box.y_min, frame.width + 5, det.box.y_max))
            for det in super().detect(frame, vocabulary, k)
        ]


def test_detection_boxes_outside_the_frame_are_no_detections(space, params):
    # A reply breaking the detect contract is a failed call: nothing is
    # grounded on it and the episode ends without an exception.
    world = cup_world()
    wide = BoxesPastTheFrame(world, params, sigma=0.0)
    trace = run_closed_loop(
        world.instruction, world, space.clone(), params, wide, max_steps=20
    )
    assert trace.status == "failed"
    assert trace.fail_reason == "planning-error"
    assert all(row.grounded_tool_box is None for row in trace.rows)


def test_wrong_length_affordance_vector_fails_the_episode_without_insert(space, params):
    # Retrieval treats the vector as a failed call (a novel task); the slow
    # stream then refuses to store it, so the episode ends in planning-error.
    world = cup_world()
    episode_space = space.clone()
    before = sum(1 for _ in episode_space.iter_records())
    short = ShortAffordance(world, params, sigma=0.0)
    trace = run_closed_loop(
        world.instruction, world, episode_space, params, short, max_steps=20
    )
    assert trace.status == "failed"
    assert trace.fail_reason == "planning-error"
    assert sum(1 for _ in episode_space.iter_records()) == before


def test_segment_regions_outside_the_tool_box_are_clipped(space, params):
    # No part detections, so grounding asks segment_regions for the regions.
    world = make_world(
        [obj("c1", "cup", "drink", 20.0, 28.0, parts=False)],
        tool_table={"I am thirsty": "cup"},
        gt={"I am thirsty": "c1"},
    )
    outside = SegmentsOutsideTheBox(world, params, sigma=0.0)
    trace = run_closed_loop(
        world.instruction, world, space.clone(), params, outside, max_steps=40
    )
    assert trace.status == "completed"
    grounded = [row for row in trace.rows if row.grounded_tool_box is not None]
    assert grounded
    for row in grounded:
        assert row.grounded_tool_box.contains(row.operational_box)
        assert row.functional_box == row.grounded_tool_box
