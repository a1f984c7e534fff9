"""Deterministic 2D world: objects, containers, robot pose and observation.

The world is top-down with a fixed-scale projection: one frame covers a
``view_range`` window centered on the robot, so pixel geometry is invertible
and distance-driven degradation lives entirely in the mock confidence model.
Occluded objects emit nothing until their container is opened.
"""

from __future__ import annotations

import copy
import json
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from .affordance import CONTAINER_LABELS
from .commands import Approach, Manipulate, MotionCommand, NoOp, Reformulate, RequestHuman
from .config import ConfigParams
from .geometry import Region, iou, pixel_bounds, vertical_halves
from .jsonvalues import integer, number
from .perception import SceneFrame

WORLD_SCHEMA = "aide-world/1"

VISIBLE = "visible"
BLURRED = "blurred"
OCCLUDED = "occluded"
ABSENT = "absent"
VISIBILITIES = frozenset({VISIBLE, BLURRED, OCCLUDED, ABSENT})

CATEGORY_CLEAR = "clear"
CATEGORY_AMBIGUOUS = "ambiguous"
CATEGORY_UNRECOGNIZABLE = "unrecognizable"
CATEGORY_ABSENT = "absent"

# Milliseconds between frames: the 10 Hz tick.
FRAME_PERIOD_MS = 100.0
# World distance beyond which a visible object renders blurred.
BLUR_RANGE = 8.0


class WorldError(RuntimeError):
    pass


class WorldSchemaError(WorldError):
    pass


WorldRect = tuple[float, float, float, float]


@dataclass
class WorldObject:
    id: str
    label: str
    box: WorldRect
    affordance_class: str
    visibility: str = VISIBLE
    container_id: str | None = None
    handle: WorldRect | None = None
    body: WorldRect | None = None
    opened: bool = False

    def __post_init__(self) -> None:
        if self.visibility not in VISIBILITIES:
            raise WorldError(f"unknown visibility {self.visibility!r}")
        if self.visibility == OCCLUDED and not self.container_id:
            raise WorldError(f"occluded object {self.id!r} needs a container")
        x0, y0, x1, y1 = self.box
        if x0 > x1 or y0 > y1:
            raise WorldError(f"inverted world box on {self.id!r}")
        for part in (self.handle, self.body):
            if part is not None:
                px0, py0, px1, py1 = part
                if not (x0 <= px0 <= px1 <= x1 and y0 <= py0 <= py1 <= y1):
                    raise WorldError(f"part box outside object box on {self.id!r}")

    @property
    def center(self) -> tuple[float, float]:
        x0, y0, x1, y1 = self.box
        return ((x0 + x1) / 2.0, (y0 + y1) / 2.0)


@dataclass(frozen=True, slots=True)
class ProjectedObject:
    """One object rendered into the current frame, with scoring ground truth."""

    object_id: str
    label: str
    affordance_class: str
    box: Region
    handle: Region | None
    body: Region | None
    distance: float
    visibility: str  # effective: visible or blurred


@dataclass
class World:
    world_id: str
    instruction: str
    objects: "OrderedDict[str, WorldObject]"
    robot: tuple[float, float, float] = (20.0, 32.0, 0.0)
    category: str = CATEGORY_CLEAR
    frame_size: int = 800
    view_range: float = 40.0
    tool_table: dict[str, str] = field(default_factory=dict)
    container_table: dict[str, str] = field(default_factory=dict)
    attribute_table: dict[str, tuple[str, ...]] = field(default_factory=dict)
    hint_table: dict[str, str] = field(default_factory=dict)
    gt: dict[str, str] = field(default_factory=dict)
    tick: int = 0
    manipulated: bool = False
    # The latest observed frame's image name and projections; ``observe`` sets
    # it, and perception resolves only that frame.
    observed: tuple[str, list[ProjectedObject]] | None = None

    def __post_init__(self) -> None:
        # A frame reference ends its image name at the first "#" (crops follow it).
        if "#" in self.world_id:
            raise WorldError(f"world id {self.world_id!r} must not contain '#'")
        if not self.instruction:
            raise WorldError(f"world {self.world_id!r} needs a non-empty instruction")
        for instr, oid in self.gt.items():
            if oid not in self.objects:
                raise WorldError(f"gt binding {instr!r} -> missing object {oid!r}")
        # Reformulated subgoals are grounded with the same machinery, so every
        # container answers "open the <label>" as a tool proposal.
        for obj in self.objects.values():
            if obj.label in CONTAINER_LABELS:
                self.tool_table.setdefault(f"open the {obj.label}", obj.label)

    # -- geometry ---------------------------------------------------------

    @property
    def pixels_per_unit(self) -> float:
        return self.frame_size / self.view_range

    def robot_distance_to(self, point: tuple[float, float]) -> float:
        rx, ry, _ = self.robot
        return math.hypot(point[0] - rx, point[1] - ry)

    def container_open(self, container_id: str | None) -> bool:
        container = self.objects.get(container_id)
        return bool(container and container.opened)

    def effective_visibility(self, obj: WorldObject, distance: float) -> str | None:
        """Projected visibility of ``obj`` at ``distance`` from the robot, or
        None when the object emits nothing."""
        if obj.visibility == ABSENT:
            return None
        if obj.visibility == OCCLUDED and not self.container_open(obj.container_id):
            return None
        if obj.visibility == BLURRED or distance > BLUR_RANGE:
            return BLURRED
        return VISIBLE


def _part_region(
    rect: WorldRect | None,
    rx: float,
    ry: float,
    half: float,
    ppu: float,
    size: int,
    x0: int,
    y0: int,
    x1: int,
    y1: int,
) -> Region | None:
    """A part's pixels within its object's box ``x0, y0, x1, y1``; None when
    the part is missing or covers no area there. Each coordinate ``x``
    projects to ``(x - robot_x + view_range / 2) * pixels_per_unit``, each
    ``y`` likewise."""
    if rect is None:
        return None
    px0, py0, px1, py1 = pixel_bounds(
        (rect[0] - rx + half) * ppu,
        (rect[1] - ry + half) * ppu,
        (rect[2] - rx + half) * ppu,
        (rect[3] - ry + half) * ppu,
        size,
        size,
    )
    # Clip into the object's box: max of the lower bounds, min of the upper.
    px0 = x0 if x0 > px0 else px0
    py0 = y0 if y0 > py0 else py0
    px1 = x1 if x1 < px1 else px1
    py1 = y1 if y1 < py1 else py1
    return Region(px0, py0, px1, py1) if px0 < px1 and py0 < py1 else None


def observe(world: World) -> tuple[SceneFrame, list[ProjectedObject]]:
    """Render the current world into a frame plus the detection ground feed.

    Each rect coordinate ``x`` projects to
    ``(x - robot_x + view_range / 2) * pixels_per_unit`` (``y`` likewise),
    from the robot pose, half view range and scale read once per frame.
    """
    rx, ry, _ = world.robot
    size = world.frame_size
    half = world.view_range / 2.0
    ppu = world.pixels_per_unit
    frame = SceneFrame(
        image=f"frame:{world.world_id}:{world.tick}",
        width=size,
        height=size,
        timestamp=world.tick * FRAME_PERIOD_MS,
        robot_x=rx,
        robot_y=ry,
        pixels_per_unit=ppu,
    )
    projections: list[ProjectedObject] = []
    for obj in world.objects.values():
        ox0, oy0, ox1, oy1 = obj.box
        # ``robot_distance_to(obj.center)``
        distance = math.hypot((ox0 + ox1) / 2.0 - rx, (oy0 + oy1) / 2.0 - ry)
        visibility = world.effective_visibility(obj, distance)
        if visibility is None:
            continue
        left, right = (ox0 - rx + half) * ppu, (ox1 - rx + half) * ppu
        top, bottom = (oy0 - ry + half) * ppu, (oy1 - ry + half) * ppu
        if right <= 0 or left >= size or bottom <= 0 or top >= size:
            continue
        x0, y0, x1, y1 = pixel_bounds(left, top, right, bottom, size, size)
        if x0 == x1 or y0 == y1:
            continue
        # Positional: keyword arguments cost a frozen dataclass more.
        projections.append(
            ProjectedObject(
                obj.id,
                obj.label,
                obj.affordance_class,
                Region(x0, y0, x1, y1),
                _part_region(obj.handle, rx, ry, half, ppu, size, x0, y0, x1, y1),
                _part_region(obj.body, rx, ry, half, ppu, size, x0, y0, x1, y1),
                distance,
                visibility,
            )
        )
    world.observed = (frame.image, projections)
    world.tick += 1
    return frame, projections


def apply(
    world: World, frame: SceneFrame, command: MotionCommand, params: ConfigParams
) -> list[str]:
    """Advance the world by one command planned on ``frame``, whose pixel
    regions it maps back to world coordinates; returns event strings."""
    events: list[str] = []
    if isinstance(command, Approach):
        ax, ay = frame.world_anchor(command.region)
        rx, ry, _ = world.robot
        dist = math.hypot(ax - rx, ay - ry)
        step = min(params.approach_speed, dist)
        if dist > 1e-9:
            nx = rx + (ax - rx) / dist * step
            ny = ry + (ay - ry) / dist * step
            world.robot = (nx, ny, math.atan2(ay - ry, ax - rx))
        events.append(f"approach:{dist:.2f}")
    elif isinstance(command, Reformulate):
        ax, ay = frame.world_anchor(command.key_region)
        if world.robot_distance_to((ax, ay)) <= params.r_near:
            label = command.subgoal.removeprefix("open the ").strip()
            candidates = [
                o
                for o in world.objects.values()
                if o.label == label and o.visibility != ABSENT
            ]
            if candidates:
                target = min(
                    candidates,
                    key=lambda o: math.hypot(o.center[0] - ax, o.center[1] - ay),
                )
                if not target.opened:
                    target.opened = True
                    events.append(f"opened:{target.id}")
                else:
                    events.append(f"already-open:{target.id}")
            else:
                events.append(f"warning:no-container:{label}")
        else:
            events.append("reformulate-far")
    elif isinstance(command, Manipulate):
        world.manipulated = True
        events.append("manipulate")
    elif isinstance(command, RequestHuman):
        events.append("request-human")
    elif isinstance(command, NoOp):
        events.append("noop")
    else:
        events.append(f"warning:malformed-command:{type(command).__name__}")
    return events


# --- success scoring ---------------------------------------------------------


@dataclass(frozen=True)
class SuccessFlags:
    tool: bool
    operational: bool
    functional: bool
    whole: bool
    asr_applicable: bool
    exploration: bool


def check_success(trace, world: World) -> SuccessFlags:
    """Score one finished episode against the world's ground truth.

    Tool, operational and functional checks compare the final grounded boxes
    against the ground-truth object projection at the same tick (IoU >= 0.5).
    The exploration check applies only when the required object started
    occluded or absent and asks whether some explored region contained the
    ground-truth container's box.
    """
    gt_id = world.gt.get(world.instruction)
    gt_obj = world.objects.get(gt_id) if gt_id else None
    asr_applicable = bool(gt_obj and gt_obj.visibility in (OCCLUDED, ABSENT))

    tool_ok = op_ok = fn_ok = False
    final = None
    for row in reversed(trace.rows):
        if row.grounded_tool_box is not None:
            final = row
            break
    if final is not None and final.gt is not None:
        gt = final.gt
        tool_ok = iou(final.grounded_tool_box, gt.box) >= 0.5
        gt_handle, gt_body = gt.handle, gt.body
        if gt_handle is None or gt_body is None:
            gt_handle, gt_body = vertical_halves(gt.box)
        if final.operational_box is not None:
            op_ok = iou(final.operational_box, gt_handle) >= 0.5
        if final.functional_box is not None:
            fn_ok = iou(final.functional_box, gt_body) >= 0.5

    exploration_ok = False
    if asr_applicable:
        for row in trace.rows:
            if row.explored_box is not None and row.gt_container_box is not None:
                if row.explored_box.contains(row.gt_container_box):
                    exploration_ok = True
                    break

    return SuccessFlags(
        tool=tool_ok,
        operational=op_ok,
        functional=fn_ok,
        whole=tool_ok and op_ok and fn_ok,
        asr_applicable=asr_applicable,
        exploration=exploration_ok,
    )


# --- persistence ---------------------------------------------------------


def save_world(world: World, path: str | Path) -> None:
    doc = {
        "schema": WORLD_SCHEMA,
        "id": world.world_id,
        "instruction": world.instruction,
        "category": world.category,
        "frame_size": world.frame_size,
        "view_range": world.view_range,
        "robot": list(world.robot),
        "objects": [
            {
                "id": o.id,
                "label": o.label,
                "box": list(o.box),
                "affordance_class": o.affordance_class,
                "visibility": o.visibility,
                "container_id": o.container_id,
                "handle": list(o.handle) if o.handle else None,
                "body": list(o.body) if o.body else None,
            }
            for o in world.objects.values()
        ],
        "tables": {
            "tool": world.tool_table,
            "container": world.container_table,
            "attributes": {k: list(v) for k, v in world.attribute_table.items()},
            "hints": world.hint_table,
        },
        "gt": world.gt,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _positive(value: float) -> float:
    if not 0 < value < math.inf:  # also false for NaN
        raise ValueError(f"{value!r} is not finite and positive")
    return value


def _pose(value: object) -> tuple[float, float, float]:
    if type(value) is not list or len(value) != 3:
        raise ValueError(f"{value!r} is not three numbers")
    x, y, heading = map(number, value)
    if not all(map(math.isfinite, (x, y, heading))):
        raise ValueError(f"{value!r} is not three finite numbers")
    return x, y, heading


def _box(value: object) -> WorldRect:
    if type(value) is not list or len(value) != 4:
        raise ValueError(f"{value!r} is not four numbers")
    rect = tuple(map(number, value))
    if not all(map(math.isfinite, rect)):
        raise ValueError(f"{value!r} is not four finite numbers")
    return rect


def _part_box(value: object) -> WorldRect | None:
    return None if value is None else _box(value)


def _tables(value: object) -> dict[str, dict]:
    if type(value) is not dict or not all(type(table) is dict for table in value.values()):
        raise ValueError(f"{value!r} is not a mapping of mappings")
    return value


def _member(doc: dict, key: str, default: object, read):
    """``doc[key]``, or ``default`` when it is absent, through ``read``; a
    value that ``read`` rejects is a ``WorldSchemaError`` naming the key."""
    try:
        return read(doc.get(key, default))
    except ValueError as exc:
        raise WorldSchemaError(f"{key}: {exc}") from None


def load_world(path: str | Path) -> World:
    """Read an ``aide-world/1`` document. The frame size, view range, robot
    pose, each object's box, handle and body (four finite numbers, or null for
    a part) and the tables are read at their JSON types (``aide.jsonvalues``)
    and range-checked here, not when an episode first uses them."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise WorldSchemaError(f"unreadable world document: {exc}") from exc
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != WORLD_SCHEMA:
        raise WorldSchemaError(f"expected schema {WORLD_SCHEMA!r}, got {schema!r}")
    try:
        objects: OrderedDict[str, WorldObject] = OrderedDict()
        for odoc in doc["objects"]:
            obj = WorldObject(
                id=odoc["id"],
                label=odoc["label"],
                box=_member(odoc, "box", None, _box),
                affordance_class=odoc["affordance_class"],
                visibility=odoc.get("visibility", VISIBLE),
                container_id=odoc.get("container_id"),
                handle=_member(odoc, "handle", None, _part_box),
                body=_member(odoc, "body", None, _part_box),
            )
            if obj.id in objects:
                raise WorldError(f"duplicate object id {obj.id!r}")
            objects[obj.id] = obj
        tables = _member(doc, "tables", {}, _tables)
        return World(
            world_id=doc["id"],
            instruction=doc["instruction"],
            objects=objects,
            robot=_member(doc, "robot", [20.0, 32.0, 0.0], _pose),
            category=doc.get("category", CATEGORY_CLEAR),
            frame_size=_member(doc, "frame_size", 800, lambda value: _positive(integer(value))),
            view_range=_member(doc, "view_range", 40.0, lambda value: _positive(number(value))),
            tool_table=dict(tables.get("tool", {})),
            container_table=dict(tables.get("container", {})),
            attribute_table={k: tuple(v) for k, v in tables.get("attributes", {}).items()},
            hint_table=dict(tables.get("hints", {})),
            gt=dict(doc.get("gt", {})),
        )
    except WorldError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise WorldSchemaError(f"malformed world document: {exc}") from exc


def load_scenario_dir(path: str | Path) -> dict[str, World]:
    worlds: dict[str, World] = {}
    for file in sorted(Path(path).glob("*.json")):
        world = load_world(file)
        worlds[world.world_id] = world
    if not worlds:
        raise WorldError(f"no scenario files found under {path}")
    return worlds


# --- scripted scenario library --------------------------------------------


def _rect(cx: float, cy: float, w: float, h: float) -> WorldRect:
    return (cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)


def _parts(box: WorldRect) -> tuple[WorldRect, WorldRect]:
    """Handle occupies the lower 40 percent of the box, body the upper 60."""
    x0, y0, x1, y1 = box
    split = y0 + (y1 - y0) * 0.6
    return (x0, split, x1, y1), (x0, y0, x1, split)


def _tool(
    oid: str,
    label: str,
    cls: str,
    cx: float,
    cy: float,
    w: float = 2.0,
    h: float = 2.0,
    visibility: str = VISIBLE,
    container_id: str | None = None,
) -> WorldObject:
    box = _rect(cx, cy, w, h)
    handle, body = _parts(box)
    return WorldObject(
        id=oid,
        label=label,
        box=box,
        affordance_class=cls,
        visibility=visibility,
        container_id=container_id,
        handle=handle,
        body=body,
    )


def _filler(oid: str, cx: float, cy: float, label: str = "book") -> WorldObject:
    return WorldObject(
        id=oid, label=label, box=_rect(cx, cy, 1.6, 1.6), affordance_class="misc"
    )


def _container(oid: str, label: str, cx: float, cy: float) -> WorldObject:
    return _tool(oid, label, "contain", cx, cy, w=4.0, h=4.0)


def _world(
    world_id: str,
    category: str,
    instruction: str,
    objects: list[WorldObject],
    gt_object: str,
    tool_label: str,
    container_label: str | None = None,
) -> World:
    table = {instruction: tool_label}
    containers = {instruction: container_label} if container_label else {}
    return World(
        world_id=world_id,
        instruction=instruction,
        category=category,
        objects=OrderedDict((o.id, o) for o in objects),
        tool_table=table,
        container_table=containers,
        hint_table={instruction: tool_label},
        gt={instruction: gt_object},
    )


def _clear(world_id: str, instruction: str, label: str, cls: str) -> World:
    objects = [
        _tool("target", label, cls, 20.0, 22.0),
        _filler("fill-a", 13.0, 26.0),
        _filler("fill-b", 27.0, 26.0, label="plant"),
    ]
    return _world(world_id, CATEGORY_CLEAR, instruction, objects, "target", label)


def _ambiguous(
    world_id: str,
    instruction: str,
    label: str,
    cls: str,
    rival_label: str,
) -> World:
    objects = [
        _tool("target", label, cls, 19.0, 24.0),
        _tool("rival", rival_label, cls, 26.0, 19.0),
        _filler("fill-a", 13.0, 26.0),
    ]
    return _world(world_id, CATEGORY_AMBIGUOUS, instruction, objects, "target", label)


def _occluded(
    world_id: str,
    instruction: str,
    label: str,
    cls: str,
    container_label: str,
    category: str = CATEGORY_UNRECOGNIZABLE,
    absent_label: str | None = None,
) -> World:
    objects = [
        _container("box-1", container_label, 20.0, 22.0),
        _tool("target", label, cls, 20.0, 22.0, w=1.2, h=1.2, visibility=OCCLUDED, container_id="box-1"),
        _filler("fill-a", 14.0, 27.0),
        _filler("fill-b", 26.0, 27.0, label="plant"),
    ]
    if absent_label:
        objects.append(
            WorldObject(
                id="missing",
                label=absent_label,
                box=_rect(5.0, 14.0, 2.0, 2.0),
                affordance_class=cls,
                visibility=ABSENT,
            )
        )
    tool_label = absent_label or label
    return _world(
        world_id, category, instruction, objects, "target", tool_label, container_label
    )


def _distant(world_id: str, instruction: str, label: str, cls: str) -> World:
    """Target far enough to blur, with near fillers holding the top ranks and a
    small cluster of far fillers around the target feeding the weight field."""
    objects = [
        _tool("target", label, cls, 20.0, 12.0),
        _filler("near-1", 13.5, 29.0),
        _filler("near-2", 17.0, 28.5, label="plant"),
        _filler("near-3", 23.0, 28.5, label="bowl"),
        _filler("near-4", 26.5, 29.0, label="lamp"),
        _filler("near-5", 20.0, 27.5, label="shoe"),
        _filler("far-1", 16.5, 11.0, label="crate"),
        _filler("far-2", 23.5, 11.0, label="jarred"),
        _filler("far-3", 18.0, 14.5, label="tin"),
        _filler("far-4", 22.0, 14.5, label="sack"),
    ]
    return _world(world_id, CATEGORY_UNRECOGNIZABLE, instruction, objects, "target", label)


def scripted_scenarios() -> dict[str, World]:
    """The built-in world library: six per category, four categories.

    The six everyday instructions (thirst, dusting, walnut cracking, cold
    drink, box sealing, waist support) are bound to worlds here and tagged as
    the real-world-analog suite.
    """
    worlds = [
        # Clearly identifiable targets.
        _clear("clear_cup", "I am thirsty", "cup", "drink"),
        _clear("clear_brush", "I want to clean the dust", "brush", "clean"),
        _clear("clear_hammer", "I want to crack walnuts", "hammer", "strike"),
        _clear("clear_kettle", "I want to warm some water", "kettle", "heat"),
        _clear("clear_knife", "I want to slice an apple", "knife", "cut"),
        _clear("clear_tape", "I want to seal this envelope", "tape", "fasten"),
        # Plausible same-class rivals.
        _ambiguous("amb_cup_bottle", "I could use a drink", "cup", "drink", "bottle"),
        _ambiguous("amb_mug_flask", "I fancy a quick sip", "mug", "drink", "flask"),
        _ambiguous("amb_brush_duster", "the shelf is dusty", "brush", "clean", "duster"),
        _ambiguous("amb_hammer_mallet", "these walnuts will not open", "hammer", "strike", "mallet"),
        _ambiguous("amb_pillow_bolster", "my back needs a rest", "pillow", "support", "bolster"),
        _ambiguous("amb_knife_cleaver", "this fruit needs cutting", "knife", "cut", "cleaver"),
        # Unrecognizable: hidden in containers or too far to resolve.
        _occluded("occ_coke_fridge", "I want something cold to drink", "coke", "drink", "fridge"),
        _occluded("occ_tape_drawer", "I want to close up delivery boxes tightly", "tape", "fasten", "drawer"),
        _occluded("occ_scissors_drawer", "I want to snip this ribbon", "scissors", "cut", "drawer"),
        _distant("far_pillow", "I want to support my waist while sitting", "pillow", "support"),
        _distant("far_mug", "I fancy a hot drink", "mug", "drink"),
        _distant("far_brush", "there are crumbs everywhere", "brush", "clean"),
        # Nominal tool absent; a same-class alternative hides in a container.
        _occluded("abs_hammer", "I need to crack these nuts", "mallet", "strike", "drawer",
                  category=CATEGORY_ABSENT, absent_label="hammer"),
        _occluded("abs_cup", "I am parched", "bottle", "drink", "fridge",
                  category=CATEGORY_ABSENT, absent_label="cup"),
        _occluded("abs_brush", "this desk needs dusting", "sponge", "clean", "cabinet",
                  category=CATEGORY_ABSENT, absent_label="brush"),
        _occluded("abs_tape", "these parcels keep popping open", "glue", "fasten", "drawer",
                  category=CATEGORY_ABSENT, absent_label="tape"),
        _occluded("abs_knife", "I need to open this package", "scissors", "cut", "drawer",
                  category=CATEGORY_ABSENT, absent_label="knife"),
        _occluded("abs_kettle", "I want my soup warmed", "pan", "heat", "cabinet",
                  category=CATEGORY_ABSENT, absent_label="kettle"),
    ]
    return {w.world_id: w for w in worlds}


REAL_WORLD_SUITE = (
    "clear_cup",
    "clear_brush",
    "clear_hammer",
    "occ_coke_fridge",
    "occ_tape_drawer",
    "far_pillow",
)


def fresh_world(world: World) -> World:
    """A copy of ``world`` that shares no mutable state with it, so episodes
    never do: each object and each table is copied too."""
    copied = copy.copy(world)
    copied.objects = OrderedDict((oid, copy.copy(obj)) for oid, obj in world.objects.items())
    copied.tool_table = dict(world.tool_table)
    copied.container_table = dict(world.container_table)
    copied.attribute_table = dict(world.attribute_table)
    copied.hint_table = dict(world.hint_table)
    copied.gt = dict(world.gt)
    if world.observed is not None:
        copied.observed = (world.observed[0], list(world.observed[1]))
    return copied


def gt_projection(
    world: World, projections: list[ProjectedObject]
) -> tuple[ProjectedObject | None, Region | None]:
    """The gt object's projection and its container's box in the current
    frame; None for each one not in view."""
    gt_id = world.gt.get(world.instruction)
    if gt_id is None:
        return None, None
    by_id = {p.object_id: p for p in projections}
    container_box = None
    gt_obj = world.objects.get(gt_id)
    if gt_obj is not None and gt_obj.container_id:
        container = by_id.get(gt_obj.container_id)
        if container is not None:
            container_box = container.box
    return by_id.get(gt_id), container_box
