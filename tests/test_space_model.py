"""A stateful model test of the relationship space.

Hypothesis drives clones, inserts, retrievals, pools, id lookups and save/load
round trips over a small built space and checks each against a brute-force
model: per subcluster, the plain list of the records stored there. Vectors lie
on a 0.25 grid, so every squared distance is exact and a vector offset by 3-4-5
steps lies at exactly the retrieval radius ``c`` or the pool radius ``d``.
"""

from __future__ import annotations

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, initialize, invariant, rule
from worldkit import drafts_of

from aide.affordance import AffordanceVector, euclidean
from aide.config import ConfigParams
from aide.geometry import Region
from aide.space import (
    DuplicateRecordError,
    GroundingResult,
    InstructionRecord,
    build_space,
    load_space,
    save_space,
)

PARAMS = replace(ConfigParams(), a=2, b=2, D=100.0, c=2.5, d=5.0)
X = PARAMS.X
# Offsets of two dimensions that move a grid vector by exactly c and d.
OFFSETS = {"c": (1.5, 2.0), "d": (3.0, 4.0)}
RESULTS = tuple(
    GroundingResult(
        tool_label=label,
        tool_image=f"tool:model:{label}",
        tool_region=Region(0, 0, 10, 10),
        operational_region=Region(0, 5, 10, 10),
        functional_region=Region(0, 0, 10, 5),
    )
    for label in ("cup", "mug", "glass", "ladle", "whisk")
)
TEXTS = ("pour the tea", "stir the soup", "pour the tea")
# Id prefixes that sort before and after the built ids, one of them not ASCII.
PREFIXES = ("a", "base", "z", "é")

jitter = st.lists(st.integers(min_value=-4, max_value=4), min_size=X, max_size=X)
picks = st.integers(min_value=0, max_value=10**6)
result_sets = st.lists(st.sampled_from(RESULTS), min_size=1, max_size=3, unique=True).map(tuple)


def _grid_vector(scores) -> AffordanceVector:
    return AffordanceVector(tuple(float(min(10.0, max(0.0, s))) for s in scores))


def _base_records() -> list[InstructionRecord]:
    """Two clumps of grid vectors, 12 records each."""
    rng = np.random.Generator(np.random.PCG64(3))
    records = []
    for i in range(24):
        center = 2.5 if i % 2 else 7.5
        instruction = center + rng.integers(-4, 5, size=X) * 0.25
        tool = center + rng.integers(-4, 5, size=X) * 0.25
        records.append(
            InstructionRecord(
                id=f"base-{i:02d}",
                text=TEXTS[i % len(TEXTS)],
                instruction_affordance=_grid_vector(instruction.tolist()),
                tool_affordance=_grid_vector(tool.tolist()),
                results=tuple(RESULTS[(i + j) % len(RESULTS)] for j in range(1 + i % 3)),
            )
        )
    return records


BASE = build_space(drafts_of(_base_records(), X), PARAMS, seed=0)


def _dist(u, v) -> float:
    return float(euclidean(u, np.asarray(v, dtype=float)[None])[0])


class Model:
    """The records of one space, as a plain list per subcluster."""

    def __init__(self, space):
        self.cells = {
            (ci, sj): [space.record(ci, sj, k) for k in range(len(sub.ids))]
            for ci, cluster in enumerate(space.clusters)
            for sj, sub in enumerate(cluster.subclusters)
        }
        self.centroids = [
            (cluster.centroid.scores, [sub.centroid.scores for sub in cluster.subclusters])
            for cluster in space.clusters
        ]

    def copy(self) -> "Model":
        other = object.__new__(Model)
        other.cells = {cell: list(records) for cell, records in self.cells.items()}
        other.centroids = self.centroids
        return other

    def records(self) -> list[InstructionRecord]:
        return [record for records in self.cells.values() for record in records]

    def ids(self) -> set[str]:
        return {record.id for record in self.records()}

    def nearest_first(self, point, centroids) -> list[int]:
        return sorted(range(len(centroids)), key=lambda j: (_dist(point, centroids[j]), j))

    def insert(self, record: InstructionRecord) -> tuple[int, int, int]:
        point = record.instruction_affordance.scores
        ci = self.nearest_first(point, [centroid for centroid, _ in self.centroids])[0]
        sj = self.nearest_first(point, self.centroids[ci][1])[0]
        self.cells[ci, sj].append(record)
        return ci, sj, len(self.cells[ci, sj]) - 1

    def dfs(self, query, c: float):
        visited = 0
        for ci in self.nearest_first(query, [centroid for centroid, _ in self.centroids]):
            for sj in self.nearest_first(query, self.centroids[ci][1]):
                for k, record in enumerate(self.cells[ci, sj]):
                    visited += 1
                    if _dist(query, record.instruction_affordance.scores) <= c:
                        return (ci, sj, k), visited
        return None, visited

    def pool(self, anchor, d: float) -> list[GroundingResult]:
        ci, sj, k = anchor
        records = self.cells[ci, sj]
        center = records[k].tool_affordance.scores
        near = [(_dist(center, r.tool_affordance.scores), r.id, r) for r in records]
        seen: dict[GroundingResult, None] = {}
        for dist, _, record in sorted((n for n in near if n[0] <= d), key=lambda n: n[:2]):
            for result in record.results:
                seen.setdefault(result)
        return list(seen)


class SpaceMachine(RuleBasedStateMachine):
    handles = Bundle("handles")

    def __init__(self):
        super().__init__()
        self.count = 0
        self.spaces = []  # (space, model) per handle
        self.tmp = Path(tempfile.mkdtemp(prefix="space-model-"))

    def teardown(self):
        for path in self.tmp.iterdir():
            path.unlink()
        self.tmp.rmdir()

    @initialize(target=handles)
    def base(self):
        self.spaces.append((BASE, Model(BASE)))
        return 0

    # -- helpers ---------------------------------------------------------

    def _stored(self, handle: int, pick: int) -> tuple[tuple[int, int, int], InstructionRecord]:
        _, model = self.spaces[handle]
        at = [(cell + (k,), r) for cell, records in model.cells.items() for k, r in enumerate(records)]
        return at[pick % len(at)]

    def _fresh_id(self, pick: int) -> str:
        self.count += 1
        return f"{PREFIXES[pick % len(PREFIXES)]}-{self.count:03d}"

    def _insert(self, handle: int, record: InstructionRecord) -> None:
        if handle == 0:
            return  # the built space is shared by every clone and stays read-only
        space, model = self.spaces[handle]
        at = space.insert(record)
        assert at == model.insert(record)
        assert space.record(*at) == record

    def _offset(self, scores, kind: str, pick: int) -> AffordanceVector:
        """``scores`` moved by exactly c or d, along two dimensions."""
        out = list(scores)
        first = pick % X
        for dim, step in zip((first, (first + 1 + pick // X % (X - 1)) % X), OFFSETS[kind]):
            out[dim] += step if out[dim] + step <= 10.0 else -step
        return AffordanceVector(tuple(out))

    # -- rules -----------------------------------------------------------

    @rule(target=handles, handle=handles)
    def clone(self, handle):
        space, model = self.spaces[handle]
        self.spaces.append((space.clone(), model.copy()))
        return len(self.spaces) - 1

    @rule(handle=handles, pick=picks, text=st.sampled_from(TEXTS), results=result_sets)
    def insert_copy(self, handle, pick, text, results):
        _, stored = self._stored(handle, pick)
        self._insert(
            handle,
            replace(stored, id=self._fresh_id(pick), text=text, results=results),
        )

    @rule(handle=handles, pick=picks, moves=jitter, results=result_sets)
    def insert_jittered(self, handle, pick, moves, results):
        _, stored = self._stored(handle, pick)
        vec = _grid_vector(s + m * 0.25 for s, m in zip(stored.instruction_affordance.scores, moves))
        tool = _grid_vector(s - m * 0.25 for s, m in zip(stored.tool_affordance.scores, moves))
        self._insert(
            handle,
            InstructionRecord(self._fresh_id(pick), TEXTS[pick % 2], vec, tool, results),
        )

    @rule(handle=handles, pick=picks, kind=st.sampled_from(sorted(OFFSETS)), results=result_sets)
    def insert_at_radius(self, handle, pick, kind, results):
        space, model = self.spaces[handle]
        anchor, stored = self._stored(handle, pick)
        if kind == "c":  # the instruction vector at exactly c from the stored one's
            vec = self._offset(stored.instruction_affordance.scores, "c", pick)
            assert _dist(vec.scores, stored.instruction_affordance.scores) == PARAMS.c
            tool = stored.tool_affordance
        else:  # the tool vector at exactly d from the stored one's
            vec = stored.instruction_affordance
            tool = self._offset(stored.tool_affordance.scores, "d", pick)
            assert _dist(tool.scores, stored.tool_affordance.scores) == PARAMS.d
            space.pool_results(anchor, PARAMS.d)  # remembered, so the insert carries it forward
        self._insert(handle, InstructionRecord(self._fresh_id(pick), TEXTS[0], vec, tool, results))
        if kind == "c":  # the stored record, exactly at the radius, may be the first hit
            assert space.dfs_retrieve(vec, PARAMS.c) == model.dfs(vec.scores, PARAMS.c)
        else:
            assert space.pool_results(anchor, PARAMS.d) == model.pool(anchor, PARAMS.d)

    @rule(handle=handles, pick=picks)
    def insert_duplicate_id(self, handle, pick):
        space, model = self.spaces[handle]
        _, stored = self._stored(handle, pick)
        before = space.record_count
        with pytest.raises(DuplicateRecordError):
            space.insert(replace(stored, text="again"))
        assert space.record_count == before == len(model.records())

    @rule(handle=handles, pick=picks, moves=jitter, radius=st.sampled_from((0.0, PARAMS.c)))
    def dfs_retrieve(self, handle, pick, moves, radius):
        space, model = self.spaces[handle]
        _, stored = self._stored(handle, pick)
        query = _grid_vector(s + m * 0.25 for s, m in zip(stored.instruction_affordance.scores, moves))
        assert space.dfs_retrieve(query, radius) == model.dfs(query.scores, radius)

    @rule(handle=handles, pick=picks, radius=st.sampled_from((0.0, PARAMS.c, PARAMS.d)))
    def pool_results(self, handle, pick, radius):
        space, model = self.spaces[handle]
        anchor, _ = self._stored(handle, pick)
        assert space.pool_results(anchor, radius) == model.pool(anchor, radius)

    @rule(handle=handles, pick=picks, stored=st.booleans())
    def holds(self, handle, pick, stored):
        space, model = self.spaces[handle]
        rid = self._stored(handle, pick)[1].id if stored else f"{PREFIXES[pick % len(PREFIXES)]}-absent"
        assert space.holds(rid) == (rid in model.ids())

    @rule(target=handles, handle=handles)
    def save_then_load(self, handle):
        space, model = self.spaces[handle]
        path = self.tmp / f"{len(self.spaces)}.aide"
        save_space(space, path)
        loaded = load_space(path)
        assert [record for _, record in loaded.iter_records()] == model.records()
        assert loaded.results == space.results
        self.spaces.append((loaded, model.copy()))
        return len(self.spaces) - 1

    # -- invariants ------------------------------------------------------

    @invariant()
    def columns_match_the_model(self):
        for space, model in self.spaces:
            assert space.record_count == len(model.records())
            for (ci, sj), records in model.cells.items():
                sub = space.clusters[ci].subclusters[sj]
                assert sub.ids == [record.id for record in records]
                assert sub.result_rows.dtype == np.int32
                assert len(sub.texts) == len(sub.vector_rows) == len(sub.result_rows) == len(records)


SpaceMachine.TestCase.settings = settings(max_examples=60, stateful_step_count=30, deadline=None)
TestSpaceModel = SpaceMachine.TestCase
