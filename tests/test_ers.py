from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest
from worldkit import PairCountingMock, drafts_of, make_world, match, obj

from aide.affordance import AffordanceVector, distance
from aide.config import ConfigParams
from aide.ers import (
    CandidatePool,
    Grounded,
    TopMatch,
    ground_regions,
    match_top,
    retrieve_candidates,
)
from aide.geometry import Region, iou
from aide.harness import gen_corpus
from aide.mock import MockPerception
from aide.perception import Detection, EpisodePerception, SceneFrame, SimilarityScore
from aide.planner import validity_check
from aide.simulator import observe
from aide.space import GroundingResult, InstructionRecord, RelationshipSpace, build_space, save_space


def noiseless(world, params, seed=0):
    return MockPerception(world, params, seed=seed, sigma=0.0)


# --- retrieve_candidates -------------------------------------------------------


def oracle_facts(space, anchor, d):
    """Pool facts by brute force: walk the anchor position's subcluster, keep
    the records within ``d`` of the anchor's, sort them by (distance, id) and
    read their results in order."""
    ci, sj, k = anchor
    sub = space.clusters[ci].subclusters[sj]
    members = [space.record(ci, sj, row) for row in range(len(sub.ids))]
    tool = members[k].tool_affordance
    near = sorted(
        (distance(tool, r.tool_affordance), r.id, r)
        for r in members
        if distance(tool, r.tool_affordance) <= d
    )
    results = [result for _, _, r in near for result in r.results]
    images = [result.tool_image for result in results]
    hints = [
        (result.unseen_region_label, result.unseen_region_image)
        for result in results
        if result.unseen_region_label is not None
    ]
    return (
        sorted({result.tool_label for result in results}),
        list(dict.fromkeys(images)),
        list(dict.fromkeys(hints)),
    )


def pool_facts(pool):
    return pool.tool_labels(), pool.distinct_images(), pool.unseen_hints


def test_retrieve_pool_matches_bruteforce_subcluster_filter(space, params):
    _, anchor_like = next(space.iter_records())
    query = anchor_like.instruction_affordance
    pool = retrieve_candidates(space, query, params)
    assert pool is not None
    anchor, _ = space.dfs_retrieve(query, params.c)
    assert pool_facts(pool) == oracle_facts(space, anchor, params.d)


def test_retrieve_novel_when_nothing_in_radius(space, params):
    far = AffordanceVector((5.0,) * params.X)
    outcome = retrieve_candidates(space, far, params)
    assert outcome is None


def test_retrieve_zero_expansion_radius(space, params):
    _, record = next(space.iter_records())
    tight = dataclasses.replace(params, d=0.0)
    pool = retrieve_candidates(space, record.instruction_affordance, tight)
    anchor, _ = space.dfs_retrieve(record.instruction_affordance, tight.c)
    assert pool_facts(pool) == oracle_facts(space, anchor, 0.0)


def test_pool_hints_deduplicated(space, params):
    _, record = next(space.iter_records())
    pool = retrieve_candidates(space, record.instruction_affordance, params)
    assert len(set(pool.unseen_hints)) == len(pool.unseen_hints)


def random_space(seed, params):
    """A small space whose records share eight results. Tool vectors lie on a
    coarse grid, so equal distances are common; each odd record is a twin of
    the even one before it (same vectors, other results), and ids are not in
    stored order."""
    rng = np.random.Generator(np.random.PCG64(seed))
    box = Region(0, 0, 10, 10)
    catalog = [
        GroundingResult(
            f"tool{k % 3}", f"image{k}", box, box, box,
            *((f"bin{k % 2}", f"container:bin{k % 2}") if k % 3 else (None, None)),
        )
        for k in range(8)
    ]
    n = 60
    ids = rng.permutation(10 * n)[:n]
    instructions = rng.uniform(0.0, 10.0, size=(n, params.X))
    tools = rng.integers(0, 3, size=(n, params.X)).astype(float)
    instructions[1::2] = instructions[::2]
    tools[1::2] = tools[::2]
    drafts = [
        InstructionRecord(
            id=f"r{ids[i]:04d}",
            text="t",
            instruction_affordance=AffordanceVector(tuple(instructions[i])),
            tool_affordance=AffordanceVector(tuple(tools[i])),
            results=tuple(catalog[k] for k in rng.choice(8, size=rng.integers(1, 4), replace=False)),
        )
        for i in range(n)
    ]
    return build_space(drafts_of(drafts, params.X), params, seed)


def retrieved_and_oracle(space, query, params, d):
    exact = dataclasses.replace(params, c=0.0, d=d)
    pool = retrieve_candidates(space, query, exact)
    anchor, _ = space.dfs_retrieve(query, 0.0)
    return pool_facts(pool), oracle_facts(space, anchor, d)


def test_pool_facts_match_the_bruteforce_walk_on_random_spaces(params):
    small = dataclasses.replace(params, a=2, b=2, D=100.0)
    rng = np.random.Generator(np.random.PCG64(3))
    for seed in range(5):
        space = random_space(seed, small)
        for (ci, sj, _), anchor in space.iter_records():
            sub = space.clusters[ci].subclusters[sj]
            other = space.record(ci, sj, int(rng.integers(len(sub.ids))))
            boundary = distance(anchor.tool_affordance, other.tool_affordance)
            for d in (0.0, boundary, 3.0, 100.0):
                got, expected = retrieved_and_oracle(space, anchor.instruction_affordance, small, d)
                assert got == expected


def test_pool_facts_after_an_insert_into_a_clone(params):
    small = dataclasses.replace(params, a=2, b=2, D=100.0)
    space = random_space(9, small)
    _, base = next(space.iter_records())
    query = base.instruction_affordance
    before = retrieved_and_oracle(space, query, small, 0.0)
    box = Region(0, 0, 10, 10)
    clone = space.clone()
    # Two new records with the base record's vectors and new results; the later
    # one sorts first by id, so the pool's image order pins the id tie-break.
    for rid, image in (("zz-new", "image-z"), ("aa-new", "image-a")):
        fresh = GroundingResult("tool-new", image, box, box, box)
        clone.insert(InstructionRecord(rid, "t", query, base.tool_affordance, (fresh,)))
    got, expected = retrieved_and_oracle(clone, query, small, 0.0)
    assert got == expected
    images = got[1]
    assert images.index("image-a") < images.index("image-z")
    assert retrieved_and_oracle(space, query, small, 0.0) == before
    assert retrieved_and_oracle(space.clone(), query, small, 0.0) == before


@pytest.fixture()
def built_records(monkeypatch):
    """The (cluster, subcluster, row) of every record built from its row by
    ``RelationshipSpace.record`` while the test runs."""
    built = []
    record = RelationshipSpace.record

    def counted(self, ci, sj, k):
        built.append((ci, sj, k))
        return record(self, ci, sj, k)

    monkeypatch.setattr(RelationshipSpace, "record", counted)
    return built


@pytest.fixture(scope="module")
def large_space(params):
    return build_space(gen_corpus(5000, params.X, params.a, params.b, seed=11), params, seed=11)


def test_the_5000_draft_space_keeps_its_pinned_snapshot_bytes(large_space, tmp_path):
    # Pinned before drafts became columns and k-means assigned one center at
    # a time: the same clusters, rows and result table, byte for byte. Its
    # params lost seven retired keys since, and the file became aide-space/3,
    # which loads to the space the aide-space/2 document did; nothing else
    # changed.
    path = tmp_path / "space.aide"
    save_space(large_space, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "96d2ef8f6097476fb6b69ce1d84fd66d83350884e89e48bd0dc9c549422784ca"


def test_retrieval_at_scale_builds_no_record(large_space, params, built_records):
    queries = [record for _, record in large_space.iter_records()][::250]
    for record in queries:
        built_records.clear()
        pool = retrieve_candidates(large_space, record.instruction_affordance, params)
        assert built_records == []  # retrieval and expansion read rows by position
        anchor, _ = large_space.dfs_retrieve(record.instruction_affordance, params.c)
        assert pool_facts(pool) == oracle_facts(large_space, anchor, params.d)


# --- match_tool ---------------------------------------------------------------


def cup_world(cup_at=28.0, extra=()):
    return make_world(
        [obj("c1", "cup", "drink", 20.0, cup_at), *extra],
        tool_table={"I am thirsty": "cup"},
        gt={"I am thirsty": "c1"},
    )


def drink_pool(space, params, perception):
    vec = perception.score_affordance("I am thirsty")
    pool = retrieve_candidates(space, vec, params)
    assert pool is not None
    return pool


def test_match_grounds_visible_tool(space, params):
    world = cup_world()
    mock = noiseless(world, params)
    frame, _ = observe(world)
    pool = drink_pool(space, params, mock)
    top, outcome = match(frame, pool, params, EpisodePerception(mock, params.X))
    assert isinstance(outcome, Grounded)
    assert top.s_max > params.m
    assert top.s_max >= 0.9
    assert outcome.result.tool_label == "cup"
    frame_box = Region(0, 0, frame.width, frame.height)
    assert frame_box.contains(outcome.result.tool_region)
    assert outcome.result.tool_region.contains(outcome.result.operational_region)
    assert outcome.result.tool_region.contains(outcome.result.functional_region)


def test_match_empty_scene_needs_exploration(space, params):
    world = make_world([], tool_table={"I am thirsty": "cup"})
    mock = noiseless(world, params)
    frame, _ = observe(world)
    pool = drink_pool(space, params, mock)
    top, outcome = match(frame, pool, params, EpisodePerception(mock, params.X))
    assert isinstance(outcome, float)
    assert top.s_max == 0.0 and outcome == 0.0
    assert top.detections == ()


def test_match_blurred_low_rank_tool_routes_to_visible(space, params):
    # Five nearer off-vocabulary objects hold the top ranks; the real tool sits
    # farther out, inside the top-2N band.
    fillers = [obj(f"f{i}", "thing", "misc", 12.0 + i * 4.0, 29.0) for i in range(5)]
    world = cup_world(cup_at=13.0, extra=fillers)
    mock = noiseless(world, params)
    frame, _ = observe(world)
    pool = drink_pool(space, params, mock)
    top, outcome = match(frame, pool, params, EpisodePerception(mock, params.X))
    assert isinstance(outcome, float)
    assert top.s_max <= params.m
    assert outcome > params.strategy_threshold
    assert outcome >= top.s_max
    ranks = {d.rank for d in top.detections}
    assert ranks == set(range(1, len(top.detections) + 1))


def test_match_reads_pool_facts_without_walking_candidates(space, params, built_records):
    # Grounded, so ground_regions reads the pool's images too.
    world = cup_world()
    mock = noiseless(world, params)
    frame, _ = observe(world)
    pool = drink_pool(space, params, mock)
    top, outcome = match(frame, pool, params, EpisodePerception(mock, params.X))
    assert built_records == []  # neither retrieval nor matching builds a record
    assert isinstance(outcome, Grounded)
    assert outcome.result.tool_label == "cup"


def test_match_and_validity_score_each_pair_once(space, params):
    # Not grounded, so the top-2N band is scored; validity reuses rank 1.
    fillers = [obj(f"f{i}", "thing", "misc", 12.0 + i * 4.0, 29.0) for i in range(5)]
    world = cup_world(cup_at=13.0, extra=fillers)
    mock = PairCountingMock(world, params)
    frame, _ = observe(world)
    pool = drink_pool(space, params, mock)
    top, outcome = match(frame, pool, params, EpisodePerception(mock, params.X))
    assert isinstance(outcome, float)
    assert len(top.detections) > params.N
    expected = len(top.detections[: 2 * params.N]) * len(pool.distinct_images())
    assert len(mock.pairs) == expected
    assert len(set(mock.pairs)) == expected
    _, score = validity_check(top, params)
    assert len(mock.pairs) == expected
    assert score == top.detections[0].confidence + top.similarities[0]


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
    frame, _ = observe(world)
    vec = mock.score_affordance(world.instruction)
    pool = retrieve_candidates(space, vec, params)
    top, outcome = match(frame, pool, params, EpisodePerception(mock, params.X))
    assert isinstance(outcome, float)
    assert outcome <= params.strategy_threshold


def test_match_outcomes_threshold_consistent_under_noise(space, params):
    rng = np.random.Generator(np.random.PCG64(2))
    for trial in range(40):
        world = cup_world(cup_at=float(rng.uniform(20, 30)))
        mock = MockPerception(world, params, seed=trial, sigma=0.5)
        frame, _ = observe(world)
        pool = drink_pool(space, params, mock)
        top, outcome = match(frame, pool, params, EpisodePerception(mock, params.X))
        if isinstance(outcome, Grounded):
            assert top.s_max > params.m
        else:
            assert top.s_max <= params.m
            assert outcome >= top.s_max
            assert 0.0 <= top.s_max < 1.0
            assert 0.0 <= outcome < 1.0


def test_the_top_n_stage_scores_only_the_top_n_crops(space, params):
    # The blurred scene has more than N detections; the first stage scores the
    # top N against every pool image and asks for no part detection.
    fillers = [obj(f"f{i}", "thing", "misc", 12.0 + i * 4.0, 29.0) for i in range(5)]
    world = cup_world(cup_at=13.0, extra=fillers)
    mock = PairCountingMock(world, params)
    frame, _ = observe(world)
    pool = drink_pool(space, params, mock)
    top = match_top(frame, pool, params, EpisodePerception(mock, params.X))
    assert isinstance(top, TopMatch) and len(top.detections) > params.N
    assert len(top.similarities) == params.N and top.s_max == max(top.similarities)
    assert len(mock.pairs) == params.N * len(pool.distinct_images())


# --- ground_regions -------------------------------------------------------------


def test_ground_regions_recovers_part_boxes(space, params):
    world = cup_world()
    mock = noiseless(world, params)
    frame, projections = observe(world)
    pool = drink_pool(space, params, mock)
    top, outcome = match(frame, pool, params, EpisodePerception(mock, params.X))
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
    frame, _ = observe(world)
    pool = drink_pool(space, params, mock)
    det = mock.detect(frame, ["cup"], 1)[0]
    operational, functional = ground_regions(
        frame, det, pool, params, EpisodePerception(mock, params.X)
    )
    box = det.box
    mid = box.y_min + box.height // 2
    assert operational == Region(box.x_min, mid, box.x_max, box.y_max)
    assert functional == Region(box.x_min, box.y_min, box.x_max, mid)


class EdgePart:
    """Detects one handle, at ``box``; every crop scores alike."""

    def __init__(self, box):
        self.box = box

    def detect(self, frame, vocabulary, k):
        return [Detection(label="handle", box=self.box, confidence=0.9, rank=1)]

    def similarity(self, a, b):
        return SimilarityScore(0.5)


def test_a_part_touching_the_tool_box_edge_clips_to_the_box(params):
    # The part meets the (10, 10, 40, 60) box only along x = 40, a zero-area
    # intersection, which tool_regions also replaces with the box.
    frame = SceneFrame(image="frame:test:0", width=100, height=100, timestamp=0.0)
    tool = Detection(label="cup", box=Region(10, 10, 40, 60), confidence=0.9, rank=1)
    result = GroundingResult(
        tool_label="cup",
        tool_image="tool:drink:cup",
        tool_region=Region(0, 0, 10, 10),
        operational_region=Region(0, 5, 10, 10),
        functional_region=Region(0, 0, 10, 5),
    )
    pool = CandidatePool([result])
    edge = EpisodePerception(EdgePart(Region(40, 20, 41, 50)), params.X)
    assert ground_regions(frame, tool, pool, params, edge) == (tool.box, tool.box)
    inside = EpisodePerception(EdgePart(Region(30, 20, 41, 50)), params.X)
    assert ground_regions(frame, tool, pool, params, inside) == (
        Region(30, 20, 40, 50),
        Region(30, 20, 40, 50),
    )


# --- retrieve, then match ------------------------------------------------------


def test_pipeline_happy_path_produces_triple(space, params):
    world = cup_world()
    mock = noiseless(world, params)
    frame, _ = observe(world)
    pool = drink_pool(space, params, mock)
    top, outcome = match(frame, pool, params, EpisodePerception(mock, params.X))
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
    outcome = retrieve_candidates(space, vector, params)
    assert outcome is None


def test_pipeline_deterministic_with_noiseless_mocks(space, params):
    results = []
    for _ in range(2):
        world = cup_world()
        mock = noiseless(world, params)
        frame, _ = observe(world)
        pool = drink_pool(space, params, mock)
        top, outcome = match(frame, pool, params, EpisodePerception(mock, params.X))
        assert isinstance(outcome, Grounded)
        results.append(
            (top.s_max, outcome.result.tool_region, outcome.result.operational_region)
        )
    assert results[0] == results[1]
