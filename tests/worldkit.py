"""Small world builders for tests."""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from aide.ers import match_tool, match_top
from aide.mock import MockPerception
from aide.space import MAX_RESULTS_PER_RECORD, Drafts
from aide.simulator import OCCLUDED, VISIBLE, World, WorldObject


def obj(
    oid,
    label,
    cls,
    cx,
    cy,
    w=2.0,
    h=2.0,
    visibility=VISIBLE,
    container_id=None,
    parts=True,
):
    box = (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
    handle = body = None
    if parts:
        split = box[1] + h * 0.6
        handle = (box[0], split, box[2], box[3])
        body = (box[0], box[1], box[2], split)
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


def make_world(
    objects,
    instruction="I am thirsty",
    tool_table=None,
    container_table=None,
    hint_table=None,
    gt=None,
    robot=(20.0, 32.0, 0.0),
    world_id="testworld",
    category="clear",
):
    return World(
        world_id=world_id,
        instruction=instruction,
        objects=OrderedDict((o.id, o) for o in objects),
        robot=robot,
        category=category,
        tool_table=dict(tool_table or {}),
        container_table=dict(container_table or {}),
        hint_table=dict(hint_table or {}),
        gt=dict(gt or {}),
    )


def fridge_world():
    return make_world(
        [
            obj("f1", "fridge", "contain", 20.0, 24.0, w=4, h=4),
            obj("c1", "coke", "drink", 20.0, 24.0, w=1, h=1, visibility=OCCLUDED, container_id="f1"),
        ],
        instruction="I want something cold to drink",
        tool_table={"I want something cold to drink": "coke"},
        container_table={"I want something cold to drink": "fridge"},
    )


def match(frame, pool, params, perception):
    """Both matching stages, as a tick the fast stream keeps runs them: the
    top-N stage and what ``match_tool`` makes of it."""
    top = match_top(frame, pool, params, perception)
    return top, match_tool(frame, top, pool, params, perception)


class PairCountingMock(MockPerception):
    """Noiseless mock that records every (a, b) pair it scores."""

    def __init__(self, world, params):
        super().__init__(world, params, seed=0, sigma=0.0)
        self.pairs = []

    def similarity(self, a, b):
        self.pairs.append((a, b))
        return super().similarity(a, b)


def drafts_of(records, dims):
    """``records`` as ``Drafts`` of ``dims``-dimensional vectors; equal
    results share one table row."""
    table = {}
    rows = [[table.setdefault(r, len(table)) for r in record.results] for record in records]
    return Drafts(
        ids=[record.id for record in records],
        texts=[record.text for record in records],
        instruction=np.array([r.instruction_affordance.scores for r in records], dtype=float).reshape(-1, dims),
        tool=np.array([r.tool_affordance.scores for r in records], dtype=float).reshape(-1, dims),
        results=list(table),
        result_rows=np.array(
            [row + [-1] * (MAX_RESULTS_PER_RECORD - len(row)) for row in rows], dtype=np.int32
        ).reshape(-1, MAX_RESULTS_PER_RECORD),
    )
