from __future__ import annotations

import dataclasses
import math

import pytest
from worldkit import PairCountingMock, make_world, obj

from aide.affordance import label_class
from aide.config import ConfigParams
from aide.ers import CandidatePool, Grounded, TopMatch, retrieve_candidates
from aide.exploration import ExplorationOutcome
from aide.geometry import Region, vertical_halves
from aide.mock import MockPerception
from aide.perception import (
    PART_VOCABULARY,
    Detection,
    EpisodePerception,
    PerceptionBackend,
    PerceptionError,
    ReasonerError,
    SceneFrame,
    SimilarityScore,
    crop_reference,
)
from aide.planner import (
    COMPLETED,
    FAILED,
    REASON_EXPLORATION_IMPOSSIBLE,
    REASON_HUMAN_ABORT,
    REASON_REFORMULATION_LOOP,
    REASON_TIMEOUT,
    Approach,
    Manipulate,
    NoOp,
    PlannerState,
    PlanningFailure,
    Reformulate,
    RequestHuman,
    RUNNING,
    TickEvent,
    decide_motion,
    mm_cot,
    provide_human_answer,
    run_closed_loop,
    run_msi,
    step,
    validity_check,
)
from aide.simulator import ABSENT, OCCLUDED, VISIBLE, fresh_world, observe
from aide.space import GroundingResult, build_space


def fake_pool():
    result = GroundingResult(
        tool_label="cup",
        tool_image="tool:drink:cup",
        tool_region=Region(0, 0, 10, 10),
        operational_region=Region(0, 5, 10, 10),
        functional_region=Region(0, 0, 10, 5),
    )
    return CandidatePool([result])


def detection(conf, rank=1):
    return Detection(label="cup", box=Region(0, 0, 10, 10), confidence=conf, rank=rank)


def matched(conf, sim):
    """A top-N stage whose rank-1 detection has this confidence and similarity."""
    return TopMatch(detections=(detection(conf),), similarities=(sim,), s_max=sim)


# --- validity ----------------------------------------------------------------


def test_validity_high_confidence_and_similarity(params):
    valid, score = validity_check(matched(1.0, 1.0 - 1e-6), params)
    assert valid
    assert score == pytest.approx(2.0, abs=1e-5)


def test_validity_below_threshold_invalid(params):
    valid, score = validity_check(matched(0.2, 0.25), params)
    assert not valid
    assert score == pytest.approx(0.45)


def test_validity_exact_boundary_is_valid(params):
    valid, score = validity_check(matched(0.25, 0.25), params)
    assert valid
    assert score == pytest.approx(0.5)


def test_validity_zero_detections(params):
    valid, score = validity_check(TopMatch(detections=(), similarities=(), s_max=0.0), params)
    assert not valid and score == 0.0


# --- the hand-over rule -----------------------------------------------------------


@pytest.fixture
def validity_calls(monkeypatch):
    """Every ``validity_check`` the planner makes, as (valid, score)."""
    calls = []

    def counted(top, params):
        calls.append(validity_check(top, params))
        return calls[-1]

    monkeypatch.setattr("aide.planner.validity_check", counted)
    return calls


def test_a_novel_task_takes_the_slow_stream_without_a_match(space, params, validity_calls):
    # No corpus record has the class "misc", so retrieval finds no pool: the
    # tick hands over with no validity check, since there is nothing to match.
    instruction = "wind the gizmo"
    world = make_world(
        [obj("g1", "gizmo", "misc", 20.0, 28.0)],
        instruction=instruction,
        tool_table={instruction: "gizmo"},
        gt={instruction: "g1"},
    )
    mock = MockPerception(world, params, sigma=0.0)
    frame, _ = observe(world)
    asked = EpisodePerception(mock, params.X)
    state, _ = step(PlannerState(), instruction, frame, space.clone(), params, asked)
    assert state.tick.stream == "msi" and state.tick.events == ["msi"]
    assert validity_calls == [] and state.tick.s_max == 0.0 and state.tick.validity == 0.0
    assert instruction in state.msi_latch and state.status == RUNNING


# --- mm_cot ----------------------------------------------------------------------


def cup_world(**kwargs):
    defaults = dict(
        tool_table={"I am thirsty": "cup"},
        gt={"I am thirsty": "c1"},
    )
    defaults.update(kwargs)
    return make_world([obj("c1", "cup", "drink", 20.0, 28.0)], **defaults)


def test_mm_cot_happy_path(params):
    world = cup_world()
    mock = MockPerception(world, params, sigma=0.0)
    frame, projections = observe(world)
    result = mm_cot("I am thirsty", frame, params, EpisodePerception(mock, params.X))
    assert result.tool_label == "cup"
    assert result.tool_image == "tool:drink:cup"
    assert result.tool_region == projections[0].box
    assert result.unseen_region_label is None


def test_mm_cot_single_object_scene(params):
    world = cup_world()
    mock = MockPerception(world, params, sigma=0.0)
    frame, projections = observe(world)
    result = mm_cot("I am thirsty", frame, params, EpisodePerception(mock, params.X))
    assert result.tool_region == projections[0].box


def test_mm_cot_occluded_tool_embeds_exploration(params):
    world = make_world(
        [
            obj("f1", "fridge", "contain", 20.0, 24.0, w=4, h=4),
            obj("k1", "coke", "drink", 20.0, 24.0, w=1, h=1, visibility=OCCLUDED, container_id="f1"),
        ],
        instruction="I want something cold to drink",
        tool_table={"I want something cold to drink": "coke"},
        container_table={"I want something cold to drink": "fridge"},
    )
    mock = MockPerception(world, params, sigma=0.0)
    frame, projections = observe(world)
    result = mm_cot(world.instruction, frame, params, EpisodePerception(mock, params.X))
    assert result.unseen_region_label == "fridge"
    assert result.unseen_region_image == "container:fridge"
    fridge_box = next(p for p in projections if p.object_id == "f1").box
    assert result.tool_region == fridge_box


def test_mm_cot_rejected_candidate_scored_once(params):
    # Only off-vocabulary objects are in view, so the selected candidate fails
    # the similarity check and the wider band is scored for t_new.
    world = make_world(
        [
            obj("f1", "fridge", "contain", 20.0, 24.0, w=4, h=4),
            obj("k1", "coke", "drink", 20.0, 24.0, w=1, h=1, visibility=OCCLUDED, container_id="f1"),
            obj("t1", "thing", "misc", 14.0, 28.0),
            obj("t2", "thing", "misc", 26.0, 28.0),
        ],
        instruction="I want something cold to drink",
        tool_table={"I want something cold to drink": "coke"},
        container_table={"I want something cold to drink": "fridge"},
    )
    mock = PairCountingMock(world, params)
    frame, _ = observe(world)
    result = mm_cot(world.instruction, frame, params, EpisodePerception(mock, params.X))
    assert result.unseen_region_label == "fridge"
    assert len(mock.pairs) > 1
    assert len(set(mock.pairs)) == len(mock.pairs)


def test_mm_cot_override_region(params):
    world = cup_world()
    mock = MockPerception(world, params, sigma=0.0)
    frame, _ = observe(world)
    override = Region(10, 10, 50, 50)
    result = mm_cot(
        "I am thirsty", frame, params, EpisodePerception(mock, params.X), override_label="cup",
        override_region=override,
    )
    assert result.tool_region == override


@pytest.mark.parametrize("above", [False, True])
def test_mm_cot_grounds_the_selected_crop_only_above_the_strategy_threshold(params, above):
    # The selected rank-1 crop scores the threshold itself, or the next float
    # above it; rank N + 2 routes visible exploration when the crop is not grounded.
    frame = SceneFrame(image="frame:scripted:0", width=260, height=60, timestamp=0.0)
    score = math.nextafter(params.strategy_threshold, 1.0) if above else params.strategy_threshold
    scene = ScriptedScene(frame, params, {1: score, params.N + 2: 0.8})
    scene.select_candidate = lambda hypothesis, candidates, frame: 0
    result = mm_cot("I am thirsty", frame, params, EpisodePerception(scene, params.X), override_label="cup")
    assert (result.tool_region == scene.detections[0].box) is above


# --- run_msi -----------------------------------------------------------------------


def test_run_msi_inserts_retrievable_record(space, params):
    world = cup_world(tool_table={"brand new request": "cup", "I am thirsty": "cup"})
    mock = MockPerception(world, params, sigma=0.0)
    frame, _ = observe(world)
    clone = space.clone()
    state = PlannerState()
    record = run_msi(
        "brand new request", frame, state, clone, params, EpisodePerception(mock, params.X)
    )
    assert record.results[0].tool_label == "cup"
    assert clone.record_count == space.record_count + 1
    vec = mock.score_affordance("brand new request")
    assert record.instruction_affordance == vec
    hit, _ = clone.dfs_retrieve(vec, params.c)
    assert hit is not None


def test_run_msi_reasoner_miss_fails(space, params):
    world = make_world([obj("c1", "cup", "drink", 20.0, 28.0)])
    mock = MockPerception(world, params, sigma=0.0)
    frame, _ = observe(world)
    with pytest.raises(PlanningFailure):
        run_msi(
            "unmapped", frame, PlannerState(), space.clone(), params,
            EpisodePerception(mock, params.X),
        )


def occluded_coke_world():
    return make_world(
        [
            obj("f1", "fridge", "contain", 20.0, 24.0, w=4, h=4),
            obj("k1", "coke", "drink", 20.0, 24.0, w=1, h=1, visibility=OCCLUDED, container_id="f1"),
        ],
        instruction="I want something cold to drink",
        tool_table={"I want something cold to drink": "coke"},
        container_table={"I want something cold to drink": "fridge"},
    )


def test_run_msi_occluded_attaches_hint(space, params):
    world = occluded_coke_world()
    mock = MockPerception(world, params, sigma=0.0)
    frame, _ = observe(world)
    clone = space.clone()
    asked = EpisodePerception(mock, params.X)
    record = run_msi(world.instruction, frame, PlannerState(), clone, params, asked)
    assert record.results[0].unseen_region_label == "fridge"
    inserted = [r for _, r in clone.iter_records() if r.id.startswith("msi-")]
    assert inserted == [record]


class AffordanceCountingMock(MockPerception):
    """Noiseless mock that records every subject it scores."""

    def __init__(self, world, params):
        super().__init__(world, params, seed=0, sigma=0.0)
        self.subjects = []

    def score_affordance(self, subject):
        self.subjects.append(subject)
        return super().score_affordance(subject)


def test_msi_tick_scores_the_instruction_once(space, params):
    # With the pool already cached, the slow stream's own score is the tick's
    # only one: re-retrieval reads the vector off the record it stored.
    world = occluded_coke_world()
    mock = AffordanceCountingMock(world, params)
    frame, _ = observe(world)
    clone = space.clone()
    vector = mock.score_affordance(world.instruction)
    pool = retrieve_candidates(clone, vector, params)
    assert isinstance(pool, CandidatePool)
    state = PlannerState(pools={world.instruction: pool})
    mock.subjects.clear()
    asked = EpisodePerception(mock, params.X)
    state, _ = step(state, world.instruction, frame, clone, params, asked)
    assert state.tick.stream == "msi"
    assert state.status == RUNNING
    assert mock.subjects.count(world.instruction) == 1


def test_novel_task_msi_tick_scores_the_instruction_once(space, params):
    # Retrieval's score finds the task novel (no corpus record has the class
    # "misc"); the slow stream's own score of it is answered without a call.
    instruction = "wind the gizmo"
    world = make_world(
        [obj("g1", "gizmo", "misc", 20.0, 28.0)],
        instruction=instruction,
        tool_table={instruction: "gizmo"},
        gt={instruction: "g1"},
    )
    mock = AffordanceCountingMock(world, params)
    frame, _ = observe(world)
    clone = space.clone()
    asked = EpisodePerception(mock, params.X)
    state, _ = step(PlannerState(), instruction, frame, clone, params, asked)
    assert state.tick.stream == "msi"
    assert state.status == RUNNING
    assert mock.subjects.count(instruction) == 1
    stored = [r for _, r in clone.iter_records() if r.id.startswith("msi-")]
    assert [r.instruction_affordance for r in stored] == [mock.score_affordance(instruction)]


def test_a_task_the_slow_stream_stored_has_a_pool_from_then_on(space, params):
    # The slow stream latches a task only after storing its record, and the
    # re-retrieval finds that record at distance 0, even at c = 0. So a
    # latched task always has a pool, and the next tick takes the fast stream.
    instruction = "wind the gizmo"
    world = make_world(
        [obj("g1", "gizmo", "misc", 20.0, 28.0)],
        instruction=instruction,
        tool_table={instruction: "gizmo"},
        gt={instruction: "g1"},
    )
    exact = dataclasses.replace(params, c=0.0)
    mock = MockPerception(world, exact, sigma=0.0)
    frame, _ = observe(world)
    clone = space.clone()
    asked = EpisodePerception(mock, exact.X)
    state, _ = step(PlannerState(), instruction, frame, clone, exact, asked)
    assert state.tick.stream == "msi"
    assert instruction in state.msi_latch and instruction in state.pools
    state, command = step(state, instruction, frame, clone, exact, asked)
    assert state.tick.stream != "msi"
    assert state.status == RUNNING and not isinstance(command, RequestHuman)


# --- decide_motion ----------------------------------------------------------------


def grounded_outcome():
    result = GroundingResult(
        tool_label="cup",
        tool_image="tool:drink:cup",
        tool_region=Region(10, 10, 40, 40),
        operational_region=Region(10, 25, 40, 40),
        functional_region=Region(10, 10, 40, 25),
    )
    return Grounded(result=result)


# Every target below is centred on (25, 25): the robot stands at the centre of
# a frame, so a 50-pixel frame puts the target at distance 0 and a 200-pixel
# frame 75 units away, beyond r_near.
NEAR = SceneFrame(image="frame:test:0", width=50, height=50, timestamp=0.0)
FAR = SceneFrame(image="frame:test:0", width=200, height=200, timestamp=0.0)
CONTAINER = ExplorationOutcome(Region(0, 0, 50, 50), label="fridge")


def assert_grounded_record(tick, near):
    result = grounded_outcome().result
    assert tick.grounded_tool_box == result.tool_region
    assert tick.operational_box == result.operational_region
    assert tick.functional_box == result.functional_region
    assert tick.explored_box is None
    assert tick.near is near


def test_decide_grounded_near_manipulates_and_completes(params):
    state = PlannerState()
    command = decide_motion(grounded_outcome(), NEAR, state, params)
    assert isinstance(command, Manipulate)
    assert state.status == COMPLETED
    result = grounded_outcome().result
    assert result.tool_region.contains(command.operational)
    assert result.tool_region.contains(command.functional)
    assert_grounded_record(state.tick, near=True)
    assert state.last_container is None


def test_decide_grounded_far_approaches(params):
    state = PlannerState()
    command = decide_motion(grounded_outcome(), FAR, state, params)
    assert command == Approach(Region(10, 10, 40, 40))
    assert state.status == RUNNING
    assert_grounded_record(state.tick, near=False)


def test_decide_slow_stream_result_never_manipulates(params):
    state = PlannerState()
    command = decide_motion(grounded_outcome().result, NEAR, state, params)
    assert isinstance(command, Approach)
    assert state.status == RUNNING
    assert_grounded_record(state.tick, near=True)


def test_decide_visible_approaches(params):
    state = PlannerState()
    outcome = ExplorationOutcome(Region(0, 0, 50, 50))
    for frame, near in ((FAR, False), (NEAR, True)):
        assert decide_motion(outcome, frame, state, params) == Approach(Region(0, 0, 50, 50))
        assert state.tick.explored_box == Region(0, 0, 50, 50)
        assert state.tick.grounded_tool_box is None
        assert state.tick.near is near
    # Only an invisible target is kept for when exploring fails.
    assert state.last_container is None
    assert state.subgoal_stack == []


def test_decide_invisible_far_approaches_near_reformulates(params):
    state = PlannerState()
    assert decide_motion(CONTAINER, FAR, state, params) == Approach(Region(0, 0, 50, 50))
    assert state.tick.explored_box == Region(0, 0, 50, 50) and not state.tick.near
    assert state.last_container is CONTAINER
    assert state.subgoal_stack == []
    state.tick = TickEvent()
    command = decide_motion(CONTAINER, NEAR, state, params)
    assert command == Reformulate("open the fridge", Region(0, 0, 50, 50))
    assert state.tick.explored_box == Region(0, 0, 50, 50) and state.tick.near
    assert state.tick.events == ["subgoal-push:open the fridge"]
    assert state.last_container is CONTAINER
    assert state.subgoal_stack == ["open the fridge"]


def test_decide_subgoal_pops_on_grounded_near(params):
    state = PlannerState(subgoal_stack=["open the fridge"])
    command = decide_motion(grounded_outcome(), NEAR, state, params)
    assert isinstance(command, Approach)
    assert state.subgoal_stack == []
    assert state.status == RUNNING
    assert state.tick.events == ["subgoal-complete"]
    assert_grounded_record(state.tick, near=True)


def test_decide_reformulation_overflow_fails(params):
    state = PlannerState(subgoal_stack=["a", "b", "c", "d"])
    command = decide_motion(CONTAINER, NEAR, state, params)
    assert isinstance(command, NoOp)
    assert state.status == FAILED
    assert state.fail_reason == REASON_REFORMULATION_LOOP
    assert state.last_container is CONTAINER


# --- step and the closed loop ----------------------------------------------------


def run_episode(world, space, params, seed=0, sigma=0.0, max_steps=200, answer=None):
    mock = MockPerception(world, params, seed=seed, sigma=sigma)
    return run_closed_loop(
        world, space.clone(), params, mock, max_steps=max_steps, answer_human=answer
    )


def test_step_on_completed_state_is_noop(space, params):
    world = cup_world()
    mock = MockPerception(world, params, sigma=0.0)
    frame, _ = observe(world)
    state = PlannerState(status=COMPLETED)
    asked = EpisodePerception(mock, params.X)
    state2, command = step(state, "I am thirsty", frame, space.clone(), params, asked)
    assert isinstance(command, NoOp)
    assert state2.status == COMPLETED


def test_episode_completes_with_single_manipulate(space, params):
    world = cup_world(instruction="I am thirsty")
    trace = run_episode(world, space, params)
    assert trace.status == COMPLETED
    manipulations = [r for r in trace.rows if r.command_kind == "manipulate"]
    assert len(manipulations) == 1
    final = manipulations[0]
    assert final.grounded_tool_box.contains(final.operational_box)
    assert final.grounded_tool_box.contains(final.functional_box)
    # The manipulation tick is the last row, and every row before it is valid.
    assert trace.rows[-1] is final
    assert trace.valid_rows() == trace.rows[:-1]


def test_tool_removal_triggers_msi_within_one_tick(space, params):
    world = cup_world(instruction="I am thirsty")
    mock = MockPerception(world, params, seed=0, sigma=0.0)

    def remove(w):
        w.objects["c1"].visibility = ABSENT

    trace = run_closed_loop(
        world, space.clone(), params, mock, max_steps=12, interventions={6: remove}
    )
    by_step = {r.step: r for r in trace.rows}
    assert by_step[5].validity >= params.validity_threshold
    assert by_step[6].validity < params.validity_threshold
    assert by_step[6].stream == "msi"


def test_msi_never_runs_twice_without_recovery(space, params):
    # Tool absent with no container mapping: the slow stream fails once, then
    # stays latched instead of thrashing.
    world = make_world(
        [obj("b1", "book", "misc", 18.0, 28.0)],
        instruction="I am thirsty",
        tool_table={"I am thirsty": "cup"},
    )
    trace = run_episode(world, space, params, max_steps=10)
    msi_steps = [r.step for r in trace.rows if r.stream == "msi"]
    assert len(msi_steps) <= 1


def test_stream_alternation_and_balanced_stack(space, params, worlds):
    from aide.simulator import fresh_world

    for world_id in ("occ_coke_fridge", "abs_cup", "far_pillow", "clear_hammer"):
        world = fresh_world(worlds[world_id])
        trace = run_episode(world, space, params)
        assert trace.status == COMPLETED
        streams = [r.stream for r in trace.rows]
        for previous, current in zip(streams, streams[1:]):
            assert not (previous == "msi" and current == "msi")
        pushes = sum(1 for r in trace.rows for e in r.events if e.startswith("subgoal-push"))
        pops = sum(1 for r in trace.rows for e in r.events if e == "subgoal-complete")
        assert pushes == pops
        manipulations = [r for r in trace.rows if r.command_kind == "manipulate"]
        assert len(manipulations) == 1


def test_trace_determinism(space, params, worlds):
    from aide.simulator import fresh_world

    def signature(trace):
        return [
            (r.step, r.stream, r.command_kind, r.command_region, r.validity, r.s_max, r.t_new)
            for r in trace.rows
        ]

    for world_id in ("clear_cup", "occ_tape_drawer"):
        runs = []
        for _ in range(2):
            world = fresh_world(worlds[world_id])
            runs.append(signature(run_episode(world, space, params, seed=5, sigma=0.5)))
        assert runs[0] == runs[1]


class ContainerBlind(MockPerception):
    """Noiseless mock whose ``detect`` finds no container while ``blind``."""

    def __init__(self, world, params, blind):
        super().__init__(world, params, sigma=0.0)
        self.blind = blind

    def detect(self, frame, vocabulary, k):
        found = super().detect(frame, vocabulary, k)
        return [det for det in found if not (self.blind and label_class(det.label) == "contain")]


def coke_tick(state, mock, space, params):
    """One tick on the occluded-coke world, whose coke pool is cached and
    whose slow stream already ran, so the fast stream explores."""
    world = mock.world
    state.pools.setdefault(world.instruction, CandidatePool([coke_result()]))
    state.msi_latch.add(world.instruction)
    frame, _ = observe(world)
    asked = EpisodePerception(mock, params.X)
    return step(state, world.instruction, frame, space.clone(), params, asked)


def coke_result():
    return GroundingResult(
        tool_label="coke",
        tool_image="tool:drink:coke",
        tool_region=Region(0, 0, 10, 10),
        operational_region=Region(0, 5, 10, 10),
        functional_region=Region(0, 0, 10, 5),
    )


def test_step_fails_when_no_container_was_ever_found(space, params):
    mock = ContainerBlind(occluded_coke_world(), params, blind=True)
    state, command = coke_tick(PlannerState(), mock, space, params)
    assert isinstance(command, NoOp)
    assert (state.status, state.fail_reason) == (FAILED, REASON_EXPLORATION_IMPOSSIBLE)
    assert state.tick.events == []


def test_step_falls_back_to_the_last_container_found(space, params):
    mock = ContainerBlind(occluded_coke_world(), params, blind=False)
    state, first = coke_tick(PlannerState(), mock, space, params)
    found = state.last_container
    assert found is not None and found.label == "fridge"
    assert "explore-fallback:last-container" not in state.tick.events
    mock.blind = True
    state, command = coke_tick(state, mock, space, params)
    assert state.status == RUNNING
    assert state.tick.events == ["explore-fallback:last-container"]
    assert state.tick.explored_box == found.region
    assert command == first


def test_timeout_when_tool_unreachable(space, params):
    # The only matching tool sits far outside the visible window and there is
    # no container to open; the episode must end with a timeout.
    slow = dataclasses.replace(params, approach_speed=0.01)
    world = make_world(
        [obj("c1", "cup", "drink", 20.0, 25.0)],
        instruction="I am thirsty",
        tool_table={"I am thirsty": "cup"},
        gt={"I am thirsty": "c1"},
    )
    trace = run_episode(world, space, slow, max_steps=30)
    assert trace.status == FAILED
    assert trace.fail_reason == REASON_TIMEOUT


def test_human_recovery_resumes_and_completes(space, params):
    world = cup_world(tool_table={})  # reasoner knows nothing
    world.hint_table = {"I am thirsty": "cup"}
    answers = []

    def answer(prompt):
        answers.append(prompt)
        return "cup"

    trace = run_episode(world, space, params, answer=answer)
    assert answers, "expected a human prompt"
    assert trace.status == COMPLETED


def test_human_abort_on_empty_answer(space, params):
    world = cup_world(tool_table={})
    trace = run_episode(world, space, params, answer=lambda prompt: "")
    assert trace.status == FAILED
    assert trace.fail_reason == REASON_HUMAN_ABORT


def test_provide_human_answer_parses_region():
    state = PlannerState(status=FAILED, fail_reason="planning-error")
    assert provide_human_answer(state, "1,2,30,40")
    assert state.human_region == Region(1, 2, 30, 40)
    assert state.status == RUNNING

    state = PlannerState(status=FAILED, fail_reason="planning-error")
    assert provide_human_answer(state, "cup")
    assert state.human_override == "cup"

    state = PlannerState(status=FAILED, fail_reason="planning-error")
    assert not provide_human_answer(state, None)
    assert state.status == FAILED

    # Four integers that make no region (inverted, negative) keep the failure
    # and seed neither a region nor a label.
    for answer in ("30,40,1,2", "-1,2,30,40"):
        state = PlannerState(status=FAILED, fail_reason="planning-error")
        assert not provide_human_answer(state, answer)
        assert (state.status, state.fail_reason) == (FAILED, "planning-error")
        assert state.human_region is None and state.human_override is None


# --- one question, one call per episode ---------------------------------------


def test_an_msi_tick_scores_each_crop_image_pair_once(space, params, worlds):
    # The fast stream matches the frame's crops against the pool images first;
    # the slow stream's checks against the catalog image overlap them.
    world = fresh_world(worlds["abs_cup"])
    mock = PairCountingMock(world, params)
    trace = run_closed_loop(world, space.clone(), params, mock)
    assert [r.step for r in trace.rows if r.stream == "msi"] == [0]
    tick_pairs = [pair for pair in mock.pairs if pair[0].startswith("frame:abs_cup:0#")]
    assert ("tool:drink:cup" in {b for _, b in tick_pairs}) and len(tick_pairs) > 1
    assert len(set(tick_pairs)) == len(tick_pairs)


def test_a_second_msi_pass_scores_neither_instruction_nor_tool_image_again(space, params):
    world = make_world(
        [obj("c1", "cup", "drink", 20.0, 20.0), obj("f1", "fridge", "contain", 30.0, 20.0, w=4, h=4)],
        tool_table={"I am thirsty": "cup"},
        container_table={"I am thirsty": "fridge"},
        gt={"I am thirsty": "c1"},
    )

    def shown(visibility):
        def set_visibility(w):
            w.objects["c1"].visibility = visibility

        return set_visibility

    # The cup vanishes twice, and the valid tick between ends the first
    # failure event, so the slow stream runs twice for one instruction.
    hide, show = shown(ABSENT), shown(VISIBLE)
    mock = AffordanceCountingMock(world, params)
    trace = run_closed_loop(
        world, space.clone(), params, mock, interventions={2: hide, 3: show, 4: hide, 5: show}
    )
    assert [r.step for r in trace.rows if r.stream == "msi"] == [2, 4]
    assert mock.subjects == ["I am thirsty", "tool:drink:cup"]


class FlakyPairMock(PairCountingMock):
    """Noiseless mock whose first similarity call against ``image`` fails.

    ``pairs`` records every call; ``answered`` only those that returned."""

    def __init__(self, world, params, image):
        super().__init__(world, params)
        self.image = image
        self.failed = None
        self.answered = []

    def similarity(self, a, b):
        if self.failed is None and b == self.image:
            self.failed = (a, b)
            self.pairs.append((a, b))
            raise PerceptionError(f"no answer for {a!r}")
        score = super().similarity(a, b)
        self.answered.append((a, b))
        return score


def test_a_failed_similarity_is_asked_again_and_an_answer_is_not(space, params, worlds):
    # The fast stream's first pair against the catalog cup fails; the slow
    # stream asks it again on the same tick and gets an answer.
    world = fresh_world(worlds["abs_cup"])
    mock = FlakyPairMock(world, params, "tool:drink:cup")
    trace = run_closed_loop(world, space.clone(), params, mock)
    assert trace.status == COMPLETED
    assert mock.failed is not None
    assert mock.pairs.count(mock.failed) == 2 and mock.answered.count(mock.failed) == 1
    assert len(set(mock.answered)) == len(mock.answered)


def test_the_slow_stream_stores_an_id_the_corpus_does_not_hold(corpus, params, worlds):
    # A corpus may use the slow stream's own id pattern.
    taken = [f"msi-{i:04d}-00" for i in range(1, len(corpus) + 1)]
    renamed = build_space(dataclasses.replace(corpus, ids=taken), params, seed=7)
    world = fresh_world(worlds["abs_hammer"])
    clone = renamed.clone()
    trace = run_closed_loop(world, clone, params, MockPerception(world, params, sigma=0.0))
    assert any(r.stream == "msi" for r in trace.rows)
    inserted = [r.id for _, r in clone.iter_records() if r.id not in set(taken)]
    assert inserted and len(set(inserted)) == len(inserted)
    assert clone.record_count == len(corpus) + len(inserted)


# --- the hand-over tick ----------------------------------------------------------


class ScriptedScene(PerceptionBackend):
    """A fixed ranked scene: ``detect`` answers the part vocabulary with
    nothing and any other vocabulary with ``2N`` faint cups, so rank 1 fails
    validity. The crop of rank r scores ``scores.get(r, 0.1)`` against every
    image. The reasoner has no answer, so a slow-stream pass fails at once.
    ``vocabularies`` and ``ranks`` record what was detected and scored."""

    def __init__(self, frame, params, scores):
        self.detections = [
            Detection(label="cup", box=Region(20 * r, 10, 20 * r + 12, 30), confidence=0.2, rank=r)
            for r in range(1, 2 * params.N + 1)
        ]
        self.rank_of = {crop_reference(frame, d.box): d.rank for d in self.detections}
        self.scores = scores
        self.vocabularies = []
        self.ranks = set()

    def detect(self, frame, vocabulary, k):
        self.vocabularies.append(list(vocabulary))
        return [] if vocabulary == list(PART_VOCABULARY) else self.detections[:k]

    def similarity(self, a, b):
        rank = self.rank_of[a]
        self.ranks.add(rank)
        return SimilarityScore(self.scores.get(rank, 0.1))

    def segment_regions(self, tool, frame):
        return vertical_halves(tool.box)

    def propose_tool(self, instruction, frame):
        raise ReasonerError("no hypothesis")

    select_candidate = score_affordance = infer_unseen_label = propose_tool


# Rank 2 grounds the tool (above m); or the best of ranks 1..N stays at 0.1 and
# rank N + 2 routes visible exploration (above the strategy threshold, not m).
HAND_OVER_SCENES = {"grounds": {2: 0.95}, "band": {ConfigParams().N + 2: 0.8}}


def hand_over_tick(space, params, scores, latched):
    frame = SceneFrame(image="frame:scripted:0", width=260, height=60, timestamp=0.0)
    scene = ScriptedScene(frame, params, scores)
    state = PlannerState(pools={"I am thirsty": fake_pool()})
    if latched:
        state.msi_latch.add("I am thirsty")
    asked = EpisodePerception(scene, params.X)
    state, _ = step(state, "I am thirsty", frame, space.clone(), params, asked)
    return state.tick, scene


@pytest.mark.parametrize("scene", sorted(HAND_OVER_SCENES))
def test_an_invalid_unlatched_tick_stops_matching_at_its_top_n(space, params, scene):
    tick, asked = hand_over_tick(space, params, HAND_OVER_SCENES[scene], latched=False)
    assert tick.stream == "msi" and tick.validity < params.validity_threshold
    assert asked.vocabularies == [["cup"]]
    assert asked.ranks == set(range(1, params.N + 1))
    assert tick.s_max == max(HAND_OVER_SCENES[scene].get(r, 0.1) for r in range(1, params.N + 1))
    assert tick.t_new == 0.0 and tick.grounded_tool_box is None


def test_an_invalid_latched_tick_grounds_the_tool_regions(space, params):
    tick, asked = hand_over_tick(space, params, HAND_OVER_SCENES["grounds"], latched=True)
    assert tick.stream == "adm" and tick.validity < params.validity_threshold
    assert asked.vocabularies == [["cup"], list(PART_VOCABULARY)]
    assert tick.grounded_tool_box == Region(40, 10, 52, 30)
    assert tick.operational_box is not None and tick.t_new == 0.0


def test_an_invalid_latched_tick_scores_the_wider_band(space, params):
    tick, asked = hand_over_tick(space, params, HAND_OVER_SCENES["band"], latched=True)
    assert tick.stream == "adm" and tick.validity < params.validity_threshold
    assert asked.vocabularies == [["cup"]]
    assert asked.ranks == set(range(1, 2 * params.N + 1))
    assert tick.t_new == 0.8 and tick.explored_box is not None


@pytest.mark.parametrize("latched", [False, True])
@pytest.mark.parametrize("scene", sorted(HAND_OVER_SCENES) + ["valid"])
def test_a_tick_with_a_pool_checks_validity_once(space, params, validity_calls, scene, latched):
    # Rank 1 at 0.95 makes the view valid (0.2 + 0.95); the other scenes are
    # invalid, and unlatched they hand over to the slow stream.
    scores = HAND_OVER_SCENES.get(scene, {1: 0.95})
    tick, _ = hand_over_tick(space, params, scores, latched)
    valid = scene == "valid"
    assert validity_calls == [(valid, tick.validity)]
    assert tick.stream == ("adm" if valid or latched else "msi")
