from __future__ import annotations

import copy
import dataclasses
import json
import math
import re

import pytest
from geometry_oracle import region_clip, region_from_floats, region_intersection
from hypothesis import example, given, settings
from hypothesis import strategies as st
from worldkit import make_world, obj

from aide.geometry import Region
from aide.mock import MockPerception
from aide.planner import Approach, EpisodeTrace, Manipulate, NoOp, Reformulate, TickEvent, run_closed_loop
from aide.simulator import (
    ABSENT,
    BLURRED,
    CATEGORY_ABSENT,
    CATEGORY_AMBIGUOUS,
    CATEGORY_CLEAR,
    CATEGORY_UNRECOGNIZABLE,
    OCCLUDED,
    REAL_WORLD_SUITE,
    ProjectedObject,
    World,
    WorldError,
    WorldObject,
    WorldSchemaError,
    apply,
    check_success,
    fresh_world,
    load_scenario_dir,
    load_world,
    observe,
    save_world,
    scripted_scenarios,
)


def test_observe_projects_visible_objects():
    world = make_world([obj("c1", "cup", "drink", 14.0, 25.0)])
    frame, projections = observe(world)
    assert frame.width == frame.height == 800
    assert len(projections) == 1
    proj = projections[0]
    # ppu = 20: world (13..15, 24..26) relative to robot (20, 32) + half view 20.
    assert proj.box == Region(260, 240, 300, 280)
    assert proj.distance == pytest.approx(math.hypot(6.0, 7.0))


def test_observe_deterministic():
    w1 = make_world([obj("c1", "cup", "drink", 14.0, 25.0)])
    w2 = make_world([obj("c1", "cup", "drink", 14.0, 25.0)])
    f1, p1 = observe(w1)
    f2, p2 = observe(w2)
    assert f1 == f2 and p1 == p2


def test_observe_skips_absent_and_out_of_window():
    world = make_world(
        [
            obj("gone", "cup", "drink", 14.0, 25.0, visibility=ABSENT),
            obj("far", "cup", "drink", 200.0, 25.0),
            obj("here", "cup", "drink", 20.0, 25.0),
        ]
    )
    _, projections = observe(world)
    assert [p.object_id for p in projections] == ["here"]


def project_rect(world, rect):
    """A world rect's float pixel bounds in the current frame."""
    rx, ry, _ = world.robot
    half = world.view_range / 2.0
    ppu = world.pixels_per_unit
    x0, y0, x1, y1 = rect
    return (
        (x0 - rx + half) * ppu,
        (y0 - ry + half) * ppu,
        (x1 - rx + half) * ppu,
        (y1 - ry + half) * ppu,
    )


def projected_boxes(world):
    """(id, box, handle, body) of each object ``observe`` renders, as first
    written: a Region for every rounded, clipped and intersected box."""
    size = world.frame_size
    out = []
    for o in world.objects.values():
        if world.effective_visibility(o, world.robot_distance_to(o.center)) is None:
            continue
        raw = project_rect(world, o.box)
        if raw[2] <= 0 or raw[0] >= size or raw[3] <= 0 or raw[1] >= size:
            continue
        box = region_clip(region_from_floats(*raw), size, size)
        if box.area == 0:
            continue

        def part(rect):
            if rect is None:
                return None
            clipped = region_clip(region_from_floats(*project_rect(world, rect)), size, size)
            inter = region_intersection(clipped, box)
            return inter if inter is not None and inter.area > 0 else None

        out.append((o.id, box, part(o.handle), part(o.body)))
    return out


@st.composite
def part_worlds(draw):
    """Objects, some with a handle and a body, placed across the frame border.

    Coordinates are drawn in 1/40 units, which at 20 px per unit is half a
    pixel, so rounding ties are common. The frame spans x 0..40, y 12..52.
    """
    objects = []
    for i in range(draw(st.integers(1, 4))):
        x0, y0 = draw(st.integers(-80, 1680)), draw(st.integers(400, 2160))
        x1, y1 = x0 + draw(st.integers(0, 240)), y0 + draw(st.integers(0, 240))
        split = y0 + (y1 - y0) * draw(st.integers(0, 8)) // 8
        inset = (x1 - x0) * draw(st.integers(0, 8)) // 16
        handle = (x0 + inset, split, x1 - inset, y1) if draw(st.booleans()) else None
        body = (x0, y0, x1, split) if draw(st.booleans()) else None
        objects.append(
            WorldObject(
                id=f"o{i}",
                label="cup",
                box=tuple(v / 40 for v in (x0, y0, x1, y1)),
                affordance_class="drink",
                handle=handle and tuple(v / 40 for v in handle),
                body=body and tuple(v / 40 for v in body),
            )
        )
    return make_world(objects)


@settings(max_examples=200, deadline=None)
@given(part_worlds())
@example(make_world([obj("edge", "cup", "drink", 0.0, 12.0, w=1.0, h=1.0)]))  # frame corner
@example(make_world([obj("flat", "cup", "drink", 20.0, 30.0, w=2.0, h=0.025)]))  # one-pixel rows
def test_observe_matches_the_region_oracle(world):
    expected = projected_boxes(world)
    _, projections = observe(world)
    assert [(p.object_id, p.box, p.handle, p.body) for p in projections] == expected


def test_occluded_hidden_until_container_opens():
    world = make_world(
        [
            obj("f1", "fridge", "contain", 20.0, 24.0, w=4, h=4),
            obj("k1", "coke", "drink", 20.0, 24.0, w=1, h=1, visibility=OCCLUDED, container_id="f1"),
        ]
    )
    _, projections = observe(world)
    assert [p.object_id for p in projections] == ["f1"]
    world.objects["f1"].opened = True
    _, projections = observe(world)
    assert {p.object_id for p in projections} == {"f1", "k1"}


def test_blur_by_distance_and_script():
    world = make_world(
        [
            obj("near", "cup", "drink", 20.0, 30.0),
            obj("far", "mug", "drink", 20.0, 12.0),
            obj("marked", "glass", "drink", 20.0, 29.0, visibility=BLURRED),
        ]
    )
    _, projections = observe(world)
    by_id = {p.object_id: p.visibility for p in projections}
    assert by_id == {"near": "visible", "far": BLURRED, "marked": BLURRED}


def test_apply_approach_moves_half_unit(params):
    world = make_world([obj("c1", "cup", "drink", 20.0, 27.0)])
    frame, projections = observe(world)
    before = world.robot
    events = apply(world, frame, Approach(projections[0].box), params)
    assert events == ["approach:5.00"]
    assert world.robot[1] == pytest.approx(before[1] - 0.5)
    assert world.robot[0] == pytest.approx(before[0])


def test_apply_reformulate_only_when_near(params):
    world = make_world(
        [obj("f1", "fridge", "contain", 20.0, 24.0, w=4, h=4)],
    )
    frame, projections = observe(world)
    box = projections[0].box
    events = apply(world, frame, Reformulate("open the fridge", box), params)
    assert events == ["reformulate-far"]
    assert not world.objects["f1"].opened
    world.robot = (20.0, 24.5, 0.0)
    frame, _ = observe(world)
    events = apply(world, frame, Reformulate("open the fridge", box), params)
    # The key region came from the previous frame; reproject for exactness.
    assert any(e.startswith("opened:") or e == "reformulate-far" for e in events)
    frame, projections = observe(world)
    events = apply(world, frame, Reformulate("open the fridge", projections[0].box), params)
    assert world.objects["f1"].opened


def test_apply_reformulate_on_an_open_container_keeps_it_open(params):
    world = make_world([obj("f1", "fridge", "contain", 20.0, 24.0, w=4, h=4)], robot=(20.0, 24.5, 0.0))
    world.objects["f1"].opened = True
    frame, projections = observe(world)
    events = apply(world, frame, Reformulate("open the fridge", projections[0].box), params)
    assert events == ["already-open:f1"]
    assert world.objects["f1"].opened


def test_no_container_is_never_open():
    world = make_world([obj("f1", "fridge", "contain", 20.0, 24.0, w=4, h=4)])
    world.objects["f1"].opened = True
    assert world.container_open("f1")
    assert not world.container_open(None)
    assert not world.container_open("missing")


def test_apply_manipulate_and_noop(params):
    world = make_world([obj("c1", "cup", "drink", 20.0, 27.0)])
    frame, _ = observe(world)
    assert apply(world, frame, Manipulate(Region(0, 0, 1, 1), Region(1, 1, 2, 2)), params) == ["manipulate"]
    assert world.manipulated
    assert apply(world, frame, NoOp(), params) == ["noop"]
    assert apply(world, frame, object(), params) == ["warning:malformed-command:object"]


def test_world_object_invariants():
    with pytest.raises(WorldError):
        WorldObject(id="x", label="cup", box=(0, 0, 1, 1), affordance_class="drink", visibility=OCCLUDED)
    with pytest.raises(WorldError):
        WorldObject(id="x", label="cup", box=(1, 1, 0, 0), affordance_class="drink")
    with pytest.raises(WorldError):
        WorldObject(
            id="x",
            label="cup",
            box=(0, 0, 1, 1),
            affordance_class="drink",
            handle=(0, 0, 2, 2),
        )
    with pytest.raises(WorldError):
        make_world([], gt={"do": "missing-object"})
    with pytest.raises(WorldError, match="non-empty instruction"):
        make_world([], instruction="")


def test_world_load_rejects_an_empty_instruction(tmp_path):
    path = tmp_path / "w.json"
    path.write_text('{"schema": "aide-world/1", "id": "w", "instruction": "", "objects": []}')
    with pytest.raises(WorldError, match="non-empty instruction"):
        load_world(path)


def test_world_load_rejects_an_id_with_a_hash(tmp_path, worlds):
    # A frame reference ends its image name at the first "#", so no frame of
    # such a world would resolve; ":" is part of the name and stays allowed.
    with pytest.raises(WorldError, match="world id 'clear#cup' must not contain '#'"):
        make_world([], world_id="clear#cup")
    path = tmp_path / "w.json"
    save_world(worlds["clear_cup"], path)
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, "id": "clear#cup"}))
    with pytest.raises(WorldError, match="world id 'clear#cup' must not contain '#'"):
        load_world(path)
    path.write_text(json.dumps({**doc, "id": "clear:cup"}))
    assert load_world(path).world_id == "clear:cup"


def test_scripted_scenarios_shape(worlds):
    assert len(worlds) >= 24
    by_category = {}
    for world in worlds.values():
        by_category.setdefault(world.category, []).append(world)
    for category in (
        CATEGORY_CLEAR,
        CATEGORY_AMBIGUOUS,
        CATEGORY_UNRECOGNIZABLE,
        CATEGORY_ABSENT,
    ):
        assert len(by_category[category]) >= 6
    for world_id in REAL_WORLD_SUITE:
        assert world_id in worlds
    instructions = {w.instruction for w in worlds.values()}
    for expected in (
        "I am thirsty",
        "I want to clean the dust",
        "I want to crack walnuts",
        "I want something cold to drink",
        "I want to close up delivery boxes tightly",
        "I want to support my waist while sitting",
    ):
        assert expected in instructions


def test_scripted_scenarios_pass_world_invariants(worlds):
    for world in worlds.values():
        assert world.gt[world.instruction] in world.objects
        for o in world.objects.values():
            if o.visibility == OCCLUDED:
                assert o.container_id in world.objects
        assert world.instruction in world.tool_table
        # Fresh copies every call: mutating one library copy must not leak.
    worlds["clear_cup"].objects["target"].visibility = ABSENT
    again = scripted_scenarios()
    assert again["clear_cup"].objects["target"].visibility == "visible"


def test_check_success_flags_wrong_tool(space, params):
    # Two same-class objects; ground truth binds the farther one, but the
    # planner deterministically grabs the nearer. Tool success must be False.
    world = make_world(
        [
            obj("near_cup", "cup", "drink", 20.0, 28.0),
            obj("far_cup", "cup", "drink", 20.0, 20.0),
        ],
        instruction="I am thirsty",
        tool_table={"I am thirsty": "cup"},
        gt={"I am thirsty": "far_cup"},
    )
    mock = MockPerception(world, params, seed=0, sigma=0.0)
    trace = run_closed_loop(world, space.clone(), params, mock, max_steps=100)
    flags = check_success(trace, world)
    assert trace.status == "completed"
    assert not flags.tool
    assert not flags.whole


def test_check_success_asr_for_absent_nominal(space, params, worlds):
    world = fresh_world(worlds["abs_cup"])
    mock = MockPerception(world, params, seed=0, sigma=0.0)
    trace = run_closed_loop(world, space.clone(), params, mock, max_steps=200)
    flags = check_success(trace, world)
    assert flags.asr_applicable
    assert flags.exploration
    assert flags.whole


@pytest.mark.parametrize("missing", ["handle", "body", "both"])
def test_check_success_scores_a_partless_object_against_its_box_halves(missing):
    # A ground-truth projection without a handle or a body is scored against
    # the vertical halves of its box: the lower half operational, the upper
    # functional. Either half overlaps the whole box at IoU 0.5, so swapped
    # halves fail only when the halves are what is scored.
    box = Region(100, 100, 200, 300)
    lower, upper = Region(100, 200, 200, 300), Region(100, 100, 200, 200)
    part = Region(120, 120, 180, 180)
    gt = ProjectedObject(
        object_id="target",
        label="cup",
        affordance_class="drink",
        box=box,
        handle=None if missing in ("handle", "both") else part,
        body=None if missing in ("body", "both") else part,
        distance=1.0,
        visibility="visible",
    )
    world = make_world([obj("target", "cup", "drink", 20.0, 20.0)], gt={"I am thirsty": "target"})

    def flags(operational, functional):
        row = TickEvent(grounded_tool_box=box, operational_box=operational, functional_box=functional, gt=gt)
        return check_success(EpisodeTrace("testworld", rows=[row]), world)

    halves = flags(lower, upper)
    assert (halves.tool, halves.operational, halves.functional, halves.whole) == (True, True, True, True)
    swapped = flags(upper, lower)
    assert (swapped.tool, swapped.operational, swapped.functional, swapped.whole) == (True, False, False, False)


def test_world_round_trip(tmp_path, worlds):
    world = worlds["occ_coke_fridge"]
    path = tmp_path / "w.json"
    save_world(world, path)
    loaded = load_world(path)
    assert loaded.world_id == world.world_id
    assert loaded.instruction == world.instruction
    assert list(loaded.objects) == list(world.objects)
    assert loaded.objects["target"].container_id == "box-1"
    assert loaded.tool_table == world.tool_table
    assert loaded.gt == world.gt


def test_every_scripted_world_loads_as_it_was_saved(tmp_path, worlds):
    # Traces of a loaded world are those of the world it was saved from.
    for world_id, world in worlds.items():
        path = tmp_path / f"{world_id}.json"
        save_world(world, path)
        assert load_world(path) == world, world_id


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("frame_size", True, "True is not an integer"),  # loaded as 1
        ("frame_size", 800.9, "800.9 is not an integer"),  # loaded as 800
        ("frame_size", "800", "'800' is not an integer"),  # loaded as 800
        ("frame_size", 0, "0 is not finite and positive"),
        ("view_range", -5, "-5.0 is not finite and positive"),  # loaded
        ("view_range", math.nan, "nan is not finite and positive"),  # failed only at run time
        ("view_range", True, "True is not a number"),
        ("robot", "abc", "'abc' is not three numbers"),  # a traceback
        ("robot", [20.0, 32.0], "is not three numbers"),
        ("robot", [20.0, False, 0.0], "False is not a number"),
        ("robot", [20.0, math.inf, 0.0], "is not three finite numbers"),
        ("tables", [], "[] is not a mapping of mappings"),  # a traceback
        ("tables", {"tool": ["cup"]}, "is not a mapping of mappings"),
    ],
)
def test_world_load_reads_each_setting_at_its_json_type(tmp_path, worlds, key, value, message):
    path = tmp_path / "w.json"
    save_world(worlds["clear_cup"], path)
    path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
    with pytest.raises(WorldSchemaError, match=f"{key}: .*{re.escape(message)}"):
        load_world(path)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("box", [True, 21.0, 21.0, 23.0], "True is not a number"),  # loaded as (True, ...)
        ("box", [19.0, 21.0, 21.0], "is not four numbers"),
        ("box", None, "None is not four numbers"),
        ("box", "19,21,21,23", "is not four numbers"),
        ("handle", [19.0, "22", 21.0, 23.0], "'22' is not a number"),
        ("body", [19.0, 21.0, math.nan, 22.0], "is not four finite numbers"),
    ],
)
def test_world_load_reads_each_object_box_as_four_finite_numbers(tmp_path, worlds, key, value, message):
    path = tmp_path / "w.json"
    save_world(worlds["clear_cup"], path)
    doc = json.loads(path.read_text())
    doc["objects"][0][key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(WorldSchemaError, match=f"{key}: .*{re.escape(message)}"):
        load_world(path)


def test_world_load_reads_integer_boxes_as_floats(tmp_path, worlds):
    path = tmp_path / "w.json"
    save_world(worlds["clear_cup"], path)
    doc = json.loads(path.read_text())
    doc["objects"][0]["box"] = [19, 21, 21, 23]
    path.write_text(json.dumps(doc))
    box = next(iter(load_world(path).objects.values())).box
    assert box == (19.0, 21.0, 21.0, 23.0) and all(type(v) is float for v in box)


def test_world_load_rejects_bad_schema(tmp_path):
    path = tmp_path / "w.json"
    path.write_text('{"schema": "aide-world/9", "id": "x"}')
    from aide.simulator import WorldSchemaError

    with pytest.raises(WorldSchemaError):
        load_world(path)


def test_load_scenario_dir(tmp_path, worlds):
    for world_id in ("clear_cup", "abs_cup"):
        save_world(worlds[world_id], tmp_path / f"{world_id}.json")
    loaded = load_scenario_dir(tmp_path)
    assert set(loaded) == {"clear_cup", "abs_cup"}
    with pytest.raises(WorldError):
        load_scenario_dir(tmp_path / "empty-subdir")


def test_fresh_world_copies_share_no_mutable_state(worlds):
    template = worlds["occ_coke_fridge"]
    observe(template)  # a template with a frame, so ``observed`` is copied too
    expected = copy.deepcopy(template)
    first, second = fresh_world(template), fresh_world(template)
    for world in (first, second):
        for f in dataclasses.fields(World):
            assert getattr(world, f.name) == getattr(expected, f.name), f.name
    # Every container field is a copy, so a field added later is copied too
    # or this fails.
    for f in dataclasses.fields(World):
        value = getattr(first, f.name)
        if isinstance(value, (dict, list)) or f.name == "observed":
            assert value is not getattr(template, f.name), f.name
    assert all(first.objects[oid] is not o for oid, o in template.objects.items())

    first.robot = (1.0, 2.0, 0.5)
    first.tick += 7
    first.observed[1].clear()
    observe(first)
    first.objects["box-1"].opened = True
    first.objects["target"].visibility = ABSENT
    assert first.tool_table.pop(first.instruction) == "coke"
    first.hint_table.clear()
    first.gt.clear()

    for world in (template, second):
        for f in dataclasses.fields(World):
            assert getattr(world, f.name) == getattr(expected, f.name), f.name
    assert second.objects["box-1"].opened is False
    assert second.tool_table[second.instruction] == "coke"

