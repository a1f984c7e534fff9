"""Dual-stream closed-loop planner.

The fast stream (adm) runs every tick: cached retrieval, detect-and-match
grounding, validity checking, exploration routing and a motion decision. The
slow stream (msi) is invoked once per failure event, when retrieval reports a
novel task or the scene holds no valid tool-related object; it runs the
multi-step reasoning pipeline, stores the result in the relationship space and
hands control back to the fast stream. ``step`` alone decides the hand-over:
it checks validity once per tick, on the top-N stage of the match, and only a
tick the fast stream keeps goes on to ground the tool or score the N+1..2N
band, since the slow stream reads neither.

Motion strategy: approach the grounded tool or visible-exploration region when
distant; when an invisible-exploration target is reached, push an
"open the <container>" subgoal and plan it with the same machinery before
resuming the original instruction; when the grounded tool is reached,
manipulate its operational and functional regions and complete the episode.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from .affordance import AffordanceVector, label_class
from .commands import (
    Approach,
    Manipulate,
    MotionCommand,
    NoOp,
    Reformulate,
    RequestHuman,
)
from .config import ConfigParams
from .ers import (
    CandidatePool,
    Grounded,
    match_tool,
    match_top,
    retrieve_candidates,
    validity_check,
)
from .exploration import (
    ExplorationImpossible,
    ExplorationOutcome,
    Strategy,
    choose_strategy,
    invisible_explore,
    visible_explore,
)
from .geometry import Region, vertical_halves
from .perception import (
    Detection,
    EpisodePerception,
    PerceptionBackend,
    PerceptionError,
    SceneFrame,
    ToolHypothesis,
    box_in_frame,
    crop_reference,
    crop_references,
)
from .simulator import ProjectedObject, World, apply, gt_projection, observe
from .space import GroundingResult, InstructionRecord, RelationshipSpace

RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"

STREAM_ADM = "adm"
STREAM_MSI = "msi"

REASON_TIMEOUT = "timeout"
REASON_PLANNING_ERROR = "planning-error"
REASON_REFORMULATION_LOOP = "reformulation-loop"
REASON_HUMAN_ABORT = "human-abort"
REASON_EXPLORATION_IMPOSSIBLE = "exploration-impossible"

# Reformulated subgoals stacked at most: a deeper stack fails the episode.
MAX_SUBGOAL_DEPTH = 4
# Ticks an episode may take before it fails with a timeout.
MAX_STEPS = 400


class PlanningFailure(RuntimeError):
    """The reasoning pipeline cannot produce a plan; human recovery is needed."""

    def __init__(self, message: str, prompt: str):
        super().__init__(message)
        self.prompt = prompt


@dataclass(slots=True)
class TickEvent:
    """The trace record of one tick.

    ``step`` creates it and fills in the planning facts; ``run_closed_loop``
    adds the step index, command, latency, ground truth and world events.
    """

    step: int = 0
    stream: str = STREAM_ADM
    command_kind: str = ""
    active_instruction: str = ""
    validity: float = 0.0
    s_max: float = 0.0
    t_new: float = 0.0
    latency_ms: float = 0.0
    near: bool = False
    command_region: Region | None = None
    grounded_tool_box: Region | None = None
    operational_box: Region | None = None
    functional_box: Region | None = None
    explored_box: Region | None = None
    # The gt object's projection and its container's box in this tick's frame.
    gt: ProjectedObject | None = None
    gt_container_box: Region | None = None
    correct: bool = False
    events: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        def box(r: Region | None):
            return r.as_list() if r is not None else None

        return {
            "step": self.step,
            "stream": self.stream,
            "command": self.command_kind,
            "instruction": self.active_instruction,
            "validity": round(self.validity, 6),
            "s_max": round(self.s_max, 6),
            "t_new": round(self.t_new, 6),
            "latency_ms": round(self.latency_ms, 3),
            "near": self.near,
            "command_region": box(self.command_region),
            "tool_box": box(self.grounded_tool_box),
            "operational_box": box(self.operational_box),
            "functional_box": box(self.functional_box),
            "explored_box": box(self.explored_box),
            "gt_box": box(self.gt.box) if self.gt is not None else None,
            "gt_container_box": box(self.gt_container_box),
            "correct": self.correct,
            "events": list(self.events),
        }


@dataclass
class PlannerState:
    pools: dict[str, CandidatePool] = field(default_factory=dict)
    subgoal_stack: list[str] = field(default_factory=list)
    episode_step: int = 0
    status: str = RUNNING
    fail_reason: str | None = None
    # Once the slow stream has run for a failure event it must not run again
    # until the event resolves; latched per active instruction.
    msi_latch: set[str] = field(default_factory=set)
    human_override: str | None = None
    human_region: Region | None = None
    # The latest invisible-exploration target, reused when exploring fails.
    last_container: ExplorationOutcome | None = None
    msi_count: int = 0
    # The current tick's record; ``step`` replaces it at the start of a tick.
    tick: TickEvent = field(default_factory=TickEvent)


# --- single checks -----------------------------------------------------------


def explore(
    t_new: float,
    detections: Sequence[Detection],
    pool: CandidatePool | None,
    frame: SceneFrame,
    instruction: str,
    params: ConfigParams,
    perception: EpisodePerception,
) -> ExplorationOutcome:
    """Both streams' exploration after a match that did not ground: visible
    where ``choose_strategy`` routes ``t_new`` and ``detections`` hold squares,
    else invisible, which raises ``ExplorationImpossible`` or
    ``PerceptionError`` when it finds no container. ``pool`` is None when the
    slow stream explores, since it matched no retrieved pool."""
    if choose_strategy(t_new, params) is Strategy.VISIBLE:
        try:
            return ExplorationOutcome(visible_explore(detections, frame, params))
        except ExplorationImpossible:
            pass
    return ExplorationOutcome(*invisible_explore(frame, instruction, pool, params, perception))


# --- slow stream ---------------------------------------------------------------


def _catalog_image(label: str) -> str:
    cls = label_class(label) or "misc"
    return f"tool:{cls}:{label}"


def mm_cot(
    instruction: str,
    frame: SceneFrame,
    params: ConfigParams,
    perception: EpisodePerception,
    override_label: str | None = None,
    override_region: Region | None = None,
) -> GroundingResult:
    """Multi-step grounding: propose, detect, select, segment.

    The selected candidate must also pass a similarity check against the
    hypothesis; otherwise the exploration policy runs inside the slow stream
    under the same entry conditions as the fast stream, and the result carries
    either the exploration rectangle or the unseen-container hint. Human
    recovery may pre-seed the label or the tool region; a region outside the
    frame is a failed call.
    """
    if override_region is not None and not box_in_frame(override_region, frame):
        raise PerceptionError(
            f"region {override_region.as_list()} is outside the {frame.width}x{frame.height} frame"
        )
    if override_label is not None:
        hypothesis = ToolHypothesis(label=override_label)
    else:
        hypothesis = perception.propose_tool(instruction, frame)
    image = _catalog_image(hypothesis.label)

    def plan(
        box: Region, regions: tuple[Region, Region], unseen: str | None = None
    ) -> GroundingResult:
        return GroundingResult(
            tool_label=hypothesis.label,
            tool_image=image,
            tool_region=box,
            operational_region=regions[0],
            functional_region=regions[1],
            unseen_region_label=unseen,
            unseen_region_image=None if unseen is None else f"container:{unseen}",
        )

    def grounded(box: Region) -> GroundingResult:
        synthetic = Detection(label=hypothesis.label, box=box, confidence=1.0, rank=1)
        return plan(box, perception.tool_regions(synthetic, frame))

    if override_region is not None:
        return grounded(override_region)

    detections = perception.detect(frame, [hypothesis.label], params.detection_budget)
    if detections:
        tool = perception.candidate(hypothesis, detections[: params.N], frame)
        crop = crop_reference(frame, tool.box)
        if perception.similarities(crop, [image])[0] > params.strategy_threshold:
            return grounded(tool.box)

    # Nothing plausibly matches: the wider top-2N score picks visible or
    # invisible exploration.
    crops = crop_references(frame, detections[: 2 * params.N])
    t_new = max(perception.crop_scores(crops, [image]), default=0.0)
    explored = explore(t_new, detections, None, frame, instruction, params, perception)
    return plan(explored.region, vertical_halves(explored.region), explored.label)


def run_msi(
    instruction: str,
    frame: SceneFrame,
    state: PlannerState,
    space: RelationshipSpace,
    params: ConfigParams,
    perception: EpisodePerception,
) -> InstructionRecord:
    """One slow-stream pass: ground, score, and store into the space; returns
    the stored record."""
    override_label = state.human_override
    override_region = state.human_region
    state.human_override = None
    state.human_region = None
    try:
        result = mm_cot(instruction, frame, params, perception, override_label, override_region)
        instruction_vector = perception.affordance(instruction)
        tool_vector = perception.affordance(result.tool_image)
    except (PerceptionError, ExplorationImpossible) as exc:
        raise PlanningFailure(
            str(exc),
            prompt=(
                f"planning failed for {instruction!r} ({exc}); "
                "provide a tool label or region x0,y0,x1,y1"
            ),
        ) from exc
    # The first free ``msi-<step>-<count>``: a corpus may hold such ids.
    while space.holds(record_id := f"msi-{state.episode_step:04d}-{state.msi_count:02d}"):
        state.msi_count += 1
    record = InstructionRecord(
        id=record_id,
        text=instruction,
        instruction_affordance=instruction_vector,
        tool_affordance=tool_vector,
        results=(result,),
    )
    space.insert(record)
    state.msi_count += 1
    return record


# --- motion decision -----------------------------------------------------------


def decide_motion(
    outcome: Grounded | GroundingResult | ExplorationOutcome,
    frame: SceneFrame,
    state: PlannerState,
    params: ConfigParams,
) -> MotionCommand:
    """Turn one planning outcome into a motion command, updating episode state.

    The one dispatch on a tick's outcome: it records the target's boxes and
    whether the robot is near it on ``state.tick``, and keeps an invisible
    target as ``state.last_container``. Grounded and near completes the
    episode via manipulation, unless a subgoal is active, in which case the
    subgoal is considered achieved and popped so the original instruction
    resumes. An invisible target that has been reached becomes an
    "open the <container>" subgoal.
    """
    tick = state.tick
    if isinstance(outcome, ExplorationOutcome):
        tick.explored_box = outcome.region
        tick.near = frame.world_distance_to(outcome.region) <= params.r_near
        if outcome.label is None:
            return Approach(outcome.region)
        state.last_container = outcome
        if not tick.near:
            return Approach(outcome.region)
        if len(state.subgoal_stack) >= MAX_SUBGOAL_DEPTH:
            state.status = FAILED
            state.fail_reason = REASON_REFORMULATION_LOOP
            return NoOp()
        subgoal = f"open the {outcome.label}"
        state.subgoal_stack.append(subgoal)
        tick.events.append(f"subgoal-push:{subgoal}")
        return Reformulate(subgoal, outcome.region)

    # A bare GroundingResult comes from the slow stream; the fast stream
    # confirms it through match_tool on the next tick before any
    # manipulation, so slow-stream ticks only ever approach.
    confirmed = isinstance(outcome, Grounded)
    result = outcome.result if confirmed else outcome
    tick.grounded_tool_box = result.tool_region
    tick.operational_box = result.operational_region
    tick.functional_box = result.functional_region
    tick.near = frame.world_distance_to(result.tool_region) <= params.r_near
    if not tick.near or not confirmed:
        return Approach(result.tool_region)
    if state.subgoal_stack:
        state.subgoal_stack.pop()
        tick.events.append("subgoal-complete")
        return Approach(result.tool_region)
    state.status = COMPLETED
    return Manipulate(result.operational_region, result.functional_region)


# --- one tick -------------------------------------------------------------------


def _retrieve(
    state: PlannerState,
    active: str,
    vector: AffordanceVector,
    space: RelationshipSpace,
    params: ConfigParams,
) -> CandidatePool | None:
    """Retrieve and cache the pool for ``active``; None, with the cache left as
    it was, when the task is novel."""
    pool = retrieve_candidates(space, vector, params)
    if pool is not None:
        state.pools[active] = pool
    return pool


def step(
    state: PlannerState,
    instruction: str,
    frame: SceneFrame,
    space: RelationshipSpace,
    params: ConfigParams,
    perception: EpisodePerception,
) -> tuple[PlannerState, MotionCommand]:
    """One full planner tick over ``frame``; its record is ``state.tick``."""
    active = state.subgoal_stack[-1] if state.subgoal_stack else instruction
    state.tick = tick = TickEvent(active_instruction=active)
    if state.status != RUNNING:
        return state, NoOp()
    state.episode_step += 1

    # Retrieval, cached per active instruction after the first hit.
    pool = state.pools.get(active)
    if pool is None:
        try:
            vector = perception.affordance(active)
        except PerceptionError:
            pass
        else:
            pool = _retrieve(state, active, vector, space, params)

    valid = False
    if pool is not None:
        top = match_top(frame, pool, params, perception)
        tick.s_max = top.s_max
        valid, tick.validity = validity_check(top, params)
        if valid:
            state.msi_latch.discard(active)

    # A novel task (no pool) or an invalid view hands the tick over to the slow
    # stream, once per failure event. A task without a pool is never latched:
    # only a slow-stream pass latches it, and its re-retrieval of the record it
    # stored (distance 0) caches a pool. So a tick the fast stream keeps has
    # a top-N stage to go on from.
    outcome: Grounded | GroundingResult | ExplorationOutcome
    if not valid and active not in state.msi_latch:
        tick.stream = STREAM_MSI
        state.msi_latch.add(active)
        tick.events.append("msi")
        try:
            record = run_msi(active, frame, state, space, params, perception)
        except PlanningFailure as exc:
            state.status = FAILED
            state.fail_reason = REASON_PLANNING_ERROR
            return state, RequestHuman(exc.prompt)
        # Re-retrieve: the space now holds the stored record.
        _retrieve(state, active, record.instruction_affordance, space, params)
        outcome = result = record.results[0]
        if result.unseen_region_label is not None:
            outcome = ExplorationOutcome(result.tool_region, result.unseen_region_label)
    elif isinstance(match := match_tool(frame, top, pool, params, perception), Grounded):
        outcome = match
    else:
        tick.t_new = match
        try:
            outcome = explore(match, top.detections, pool, frame, active, params, perception)
        except (ExplorationImpossible, PerceptionError):
            if state.last_container is None:
                state.status = FAILED
                state.fail_reason = REASON_EXPLORATION_IMPOSSIBLE
                return state, NoOp()
            outcome = state.last_container
            tick.events.append("explore-fallback:last-container")

    return state, decide_motion(outcome, frame, state, params)


def provide_human_answer(state: PlannerState, answer: str | None) -> bool:
    """Feed a human recovery answer back into the planner.

    Returns True when the episode resumes. ``None`` keeps the failure, an
    empty string aborts, and anything else seeds the tool label, except four
    comma-separated integers: they seed the tool region ``x0,y0,x1,y1``, or
    keep the failure when they make no region.
    """
    if answer is None:
        return False
    answer = answer.strip()
    if not answer:
        state.status = FAILED
        state.fail_reason = REASON_HUMAN_ABORT
        return False
    try:
        coords = [int(part) for part in answer.split(",")]
    except ValueError:
        coords = []
    if len(coords) != 4:
        state.human_override = answer
    else:
        try:
            state.human_region = Region(*coords)
        except ValueError:
            return False
    state.status = RUNNING
    state.fail_reason = None
    # A human answer starts a fresh failure event for the slow stream.
    state.msi_latch.clear()
    return True


# --- episode loop ---------------------------------------------------------------


@dataclass
class EpisodeTrace:
    world_id: str
    rows: list[TickEvent] = field(default_factory=list)
    status: str = RUNNING
    fail_reason: str | None = None
    wall_seconds: float = 0.0

    @property
    def steps(self) -> int:
        return len(self.rows)

    def valid_rows(self) -> list[TickEvent]:
        """Ticks from start up to (excluding) the manipulation tick, which is
        the last tick of a completed episode."""
        return self.rows[:-1] if self.status == COMPLETED else list(self.rows)


def _command_region(command: MotionCommand) -> Region | None:
    if isinstance(command, Approach):
        return command.region
    if isinstance(command, Reformulate):
        return command.key_region
    if isinstance(command, Manipulate):
        return command.operational.union_bounds(command.functional)
    return None


def run_closed_loop(
    world: World,
    space: RelationshipSpace,
    params: ConfigParams,
    perception: PerceptionBackend,
    max_steps: int = MAX_STEPS,
    answer_human: Callable[[str], str | None] | None = None,
    interventions: dict[int, Callable[[World], None]] | None = None,
) -> EpisodeTrace:
    """Alternate planner ticks with world updates until the episode settles.

    Each tick plans ``world.instruction``, the instruction that ground truth
    is scored against. ``answer_human`` resolves RequestHuman prompts (batch
    runs answer from the world's hint table via the harness; None leaves the
    failure in place).
    ``interventions`` maps tick indices to world mutations, used for error
    injection. Exhausting ``max_steps`` fails the episode with a timeout.
    The episode asks ``perception`` through one ``EpisodePerception``, so no
    similarity pair or affordance subject is answered twice.
    """
    trace = EpisodeTrace(world_id=world.world_id)
    state = PlannerState()
    asked = EpisodePerception(perception, params.X)
    answered_prompts: set[str] = set()
    t_start = time.perf_counter()

    for index in range(max_steps):
        if interventions and world.tick in interventions:
            interventions[world.tick](world)
        frame, projections = observe(world)
        t0 = time.perf_counter()
        state, command = step(state, world.instruction, frame, space, params, asked)
        latency_ms = (time.perf_counter() - t0) * 1000.0

        if isinstance(command, RequestHuman) and answer_human is not None:
            if command.prompt not in answered_prompts:
                answered_prompts.add(command.prompt)
                provide_human_answer(state, answer_human(command.prompt))

        row = state.tick
        row.events += apply(world, frame, command, params)
        row.step = index
        row.command_kind = type(command).__name__.lower()
        row.latency_ms = latency_ms
        row.command_region = target = _command_region(command)
        row.gt, row.gt_container_box = gt_projection(world, projections)
        reference = row.gt.box if row.gt is not None else row.gt_container_box
        row.correct = bool(target and reference and target.intersects(reference))
        trace.rows.append(row)
        if state.status != RUNNING:
            break

    trace.wall_seconds = time.perf_counter() - t_start
    if state.status == RUNNING:
        state.status = FAILED
        state.fail_reason = REASON_TIMEOUT
    trace.status = state.status
    trace.fail_reason = state.fail_reason
    return trace


def write_trace(trace: EpisodeTrace, path: str | Path, episode_id: str) -> None:
    """Append one event per line; each line carries the episode identity."""
    with Path(path).open("a", encoding="utf-8") as fh:
        for row in trace.rows:
            doc = {"episode": episode_id, "world": trace.world_id, **row.to_dict()}
            fh.write(json.dumps(doc) + "\n")
        fh.write(
            json.dumps(
                {
                    "episode": episode_id,
                    "world": trace.world_id,
                    "final": True,
                    "status": trace.status,
                    "fail_reason": trace.fail_reason,
                    "steps": trace.steps,
                    "wall_seconds": round(trace.wall_seconds, 6),
                }
            )
            + "\n"
        )
