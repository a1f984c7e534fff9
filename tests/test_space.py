from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aide.affordance import AffordanceVector, class_centroid, class_names, distance, vector
from aide.config import ConfigParams
from aide.geometry import Region
from aide.space import (
    DuplicateRecordError,
    GroundingResult,
    InstructionRecord,
    SpaceBuildError,
    SpaceFormatError,
    SpaceSchemaError,
    brute_force_assignments,
    build_space,
    load_space,
    read_corpus,
    save_space,
    write_corpus,
)


def _result(label="cup", cls="drink"):
    return GroundingResult(
        tool_label=label,
        tool_image=f"tool:{cls}:{label}",
        tool_region=Region(0, 0, 100, 100),
        operational_region=Region(0, 50, 100, 100),
        functional_region=Region(0, 0, 100, 50),
    )


def _record(rid, instr_vec, tool_vec=None, text="do the thing"):
    return InstructionRecord(
        id=rid,
        text=text,
        instruction_affordance=instr_vec,
        tool_affordance=tool_vec if tool_vec is not None else instr_vec,
        results=(_result(),),
    )


def brute_force_nearest(space, query):
    best, best_dist = None, float("inf")
    for record in space.iter_records():
        d = distance(query, record.instruction_affordance)
        if d < best_dist:
            best, best_dist = record, d
    return best, best_dist


# --- build -----------------------------------------------------------------


def test_build_cluster_purity_against_blob_oracle(corpus, space, params):
    names = class_names(params.a)
    centroids = {n: class_centroid(n, params.X, known=names) for n in names}

    def blob_of(record):
        return min(names, key=lambda n: distance(record.instruction_affordance, centroids[n]))

    # Majority-map each k-means cluster to a generating blob, then count matches.
    from collections import Counter

    majority = {}
    per_cluster = {}
    for record in space.iter_records():
        per_cluster.setdefault(record.cluster_id, []).append(blob_of(record))
    for cid, blobs in per_cluster.items():
        majority[cid] = Counter(blobs).most_common(1)[0][0]
    total = matches = 0
    for record in space.iter_records():
        total += 1
        matches += majority[record.cluster_id] == blob_of(record)
    assert total == 432
    assert matches / total >= 0.95


def test_build_singletons_when_far_apart():
    params = ConfigParams(a=4, b=2, D=5.0, A=4)
    names = class_names()[:4]
    drafts = [
        _record(f"r{i}", class_centroid(n, params.X)) for i, n in enumerate(names)
    ]
    space = build_space(drafts, params, seed=0)
    assert space.record_count == 4
    sizes = sorted(
        sum(len(s.records) for s in c.subclusters) for c in space.clusters
    )
    assert sizes == [1, 1, 1, 1]


def test_build_duplicated_record_collapses():
    params = ConfigParams(a=2, b=3, D=25.0)
    point = vector([4.0] * params.X)
    drafts = [_record(f"dup{i}", point) for i in range(params.a * params.b)]
    space = build_space(drafts, params, seed=1)
    populated = [
        s for c in space.clusters for s in c.subclusters if s.records
    ]
    assert len(populated) == 1
    assert len(populated[0].records) == params.a * params.b
    assert populated[0].centroid == point


def test_build_filters_on_both_vectors():
    params = ConfigParams(X=3, a=2, b=1, D=2.0)
    lo, hi = vector([1.0, 1.0, 1.0]), vector([9.0, 9.0, 9.0])
    drafts = [_record(f"a{i}", lo) for i in range(4)]
    drafts += [_record(f"b{i}", hi) for i in range(4)]
    drafts.append(_record("tool-outlier", lo, tool_vec=hi))
    drafts.append(_record("instr-outlier", vector([5.0, 5.0, 5.0])))
    space = build_space(drafts, params, seed=2)
    ids = {r.id for r in space.iter_records()}
    assert "tool-outlier" not in ids
    assert "instr-outlier" not in ids
    assert len(ids) == 8


def test_build_errors():
    params = ConfigParams(X=3, a=4, b=1)
    with pytest.raises(SpaceBuildError):
        build_space([], params, seed=0)
    with pytest.raises(SpaceBuildError):
        build_space([_record("only", vector([1, 2, 3]))], params, seed=0)
    with pytest.raises(DuplicateRecordError):
        build_space(
            [_record("same", vector([1, 2, 3])), _record("same", vector([2, 2, 2]))],
            ConfigParams(X=3, a=1, b=1),
            seed=0,
        )


def test_build_deterministic(corpus, params):
    s1 = build_space(corpus, params, seed=42)
    s2 = build_space(corpus, params, seed=42)
    a1 = {r.id: (r.cluster_id, r.subcluster_id) for r in s1.iter_records()}
    a2 = {r.id: (r.cluster_id, r.subcluster_id) for r in s2.iter_records()}
    assert a1 == a2


def test_build_is_centroid_fixed_point(space):
    assert brute_force_assignments(space)


def test_build_respects_distance_filter(space, params):
    for record in space.iter_records():
        centroid = space.clusters[record.cluster_id].centroid
        assert distance(record.instruction_affordance, centroid) <= params.D
        assert distance(record.tool_affordance, centroid) <= params.D


# --- dfs_retrieve ------------------------------------------------------------


def test_dfs_exact_vector_hits(space, corpus, params):
    target = corpus[10]
    hit, visited = space.dfs_retrieve(target.instruction_affordance, 10.0)
    assert hit is not None
    assert distance(target.instruction_affordance, hit.instruction_affordance) <= 10.0
    assert visited <= space.record_count


def test_dfs_not_found_iff_bruteforce_beyond_radius(space, params):
    rng = np.random.Generator(np.random.PCG64(123))
    for _ in range(200):
        query = AffordanceVector(tuple(rng.uniform(0, 10, size=params.X)))
        hit, visited = space.dfs_retrieve(query, params.c)
        _, best = brute_force_nearest(space, query)
        if hit is None:
            assert best > params.c
            assert visited == space.record_count
        else:
            assert distance(query, hit.instruction_affordance) <= params.c


def test_dfs_visited_count_monotone_in_radius(space, params):
    rng = np.random.Generator(np.random.PCG64(5))
    radii = [0.0, 2.0, 5.0, 10.0, 20.0, 40.0]
    for _ in range(50):
        query = AffordanceVector(tuple(rng.uniform(0, 10, size=params.X)))
        visits = [space.dfs_retrieve(query, c)[1] for c in radii]
        assert visits == sorted(visits, reverse=True)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_dfs_hit_always_within_radius(space, params, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    query = AffordanceVector(tuple(rng.uniform(0, 10, size=params.X)))
    hit, _ = space.dfs_retrieve(query, params.c)
    if hit is not None:
        assert distance(query, hit.instruction_affordance) <= params.c


def test_radius_equal_to_the_numpy_oracle_distance_is_inside(space, params):
    # The radius is criterion 1's brute-force minimum (or the largest tool
    # distance in a subcluster), so the record at that distance must count.
    matrix = np.array([r.instruction_affordance.scores for r in space.iter_records()])
    rng = np.random.Generator(np.random.PCG64(2024))
    for _ in range(200):
        query = AffordanceVector(tuple(rng.uniform(0, 10, size=params.X)))
        radius = float(np.sqrt(((matrix - np.array(query.scores)) ** 2).sum(axis=1)).min())
        hit, _ = space.dfs_retrieve(query, radius)
        assert hit is not None
    for anchor in space.iter_records():
        sub = space.clusters[anchor.cluster_id].subclusters[anchor.subcluster_id]
        tools = np.array([r.tool_affordance.scores for r in sub.records])
        radius = float(np.sqrt(((tools - np.array(anchor.tool_affordance.scores)) ** 2).sum(axis=1)).max())
        assert len(space.candidate_set(anchor, radius)) == len(sub.records)


def test_dfs_dimension_mismatch(space):
    from aide.affordance import DimensionMismatchError

    with pytest.raises(DimensionMismatchError):
        space.dfs_retrieve(vector([1.0, 2.0]), 10.0)


# --- candidate_set -----------------------------------------------------------


def test_candidate_set_matches_bruteforce_filter(space, params):
    anchor = next(space.iter_records())
    sub = space.clusters[anchor.cluster_id].subclusters[anchor.subcluster_id]
    assert len(sub.records) <= 100
    for d in (0.0, 3.0, params.d, 100.0):
        got = space.candidate_set(anchor, d)
        expected = [
            r for r in sub.records if distance(anchor.tool_affordance, r.tool_affordance) <= d
        ]
        assert {r.id for r in got} == {r.id for r in expected}
        assert anchor.id in {r.id for r in got}
        dists = [distance(anchor.tool_affordance, r.tool_affordance) for r in got]
        assert dists == sorted(dists)


def test_candidate_set_zero_radius(space):
    anchor = next(space.iter_records())
    got = space.candidate_set(anchor, 0.0)
    for r in got:
        assert distance(anchor.tool_affordance, r.tool_affordance) == 0.0


def test_candidate_set_whole_subcluster_with_big_radius(space):
    anchor = next(space.iter_records())
    sub = space.clusters[anchor.cluster_id].subclusters[anchor.subcluster_id]
    got = space.candidate_set(anchor, 1000.0)
    assert len(got) == len(sub.records)


def test_candidate_set_requires_membership(space, params):
    foreign = _record("not-in-space", vector([5.0] * params.X))
    from aide.space import SpaceError

    with pytest.raises(SpaceError):
        space.candidate_set(foreign, params.d)


# --- insert -----------------------------------------------------------------


def test_insert_round_trip(space, params):
    clone = space.clone()
    vec = AffordanceVector(tuple(min(9.9, v + 0.3) for v in class_centroid("drink").scores))
    record = _record("fresh-insert", vec)
    clone.insert(record)
    hit, _ = clone.dfs_retrieve(vec, 1.0)
    assert hit is not None and hit.id in {"fresh-insert"} | {
        r.id for r in clone.iter_records()
    }
    # The inserted record must be reachable with a tiny radius query.
    found = any(r.id == "fresh-insert" for r in clone.iter_records())
    assert found
    assert clone.record_count == space.record_count + 1
    assert space.record_count == sum(1 for _ in space.iter_records())


def test_insert_assigns_nearest_centroids(space, params):
    clone = space.clone()
    rng = np.random.Generator(np.random.PCG64(77))
    for i in range(100):
        vec = AffordanceVector(tuple(rng.uniform(0, 10, size=params.X)))
        record = _record(f"bulk-{i}", vec)
        clone.insert(record)
        expected_cluster = min(
            range(len(clone.clusters)),
            key=lambda j: (distance(vec, clone.clusters[j].centroid), j),
        )
        assert record.cluster_id == expected_cluster
        subs = clone.clusters[expected_cluster].subclusters
        expected_sub = min(
            range(len(subs)), key=lambda j: (distance(vec, subs[j].centroid), j)
        )
        assert record.subcluster_id == expected_sub


def test_insert_on_subcluster_centroid(space):
    clone = space.clone()
    target = clone.clusters[0].subclusters[0]
    record = _record("on-centroid", target.centroid)
    clone.insert(record)
    assert record.cluster_id == 0 and record.subcluster_id == 0


def test_insert_duplicate_id_rejected(space):
    clone = space.clone()
    existing = next(clone.iter_records())
    with pytest.raises(DuplicateRecordError):
        clone.insert(_record(existing.id, existing.instruction_affordance))


def test_clone_isolates_insertions(space, params):
    before = space.record_count
    clone = space.clone()
    vec = vector([5.0] * params.X)
    clone.insert(_record("clone-only", vec))
    assert space.record_count == before
    assert all(r.id != "clone-only" for r in space.iter_records())
    # The clone shares the base's row arrays until the insert replaces them.
    assert clone.dfs_retrieve(vec, 0.0)[0].id == "clone-only"
    assert space.dfs_retrieve(vec, 0.0)[0] is None


# --- persistence ----------------------------------------------------------------


def test_save_load_round_trip(space, tmp_path):
    path = tmp_path / "space.json"
    save_space(space, path)
    loaded = load_space(path)
    assert loaded.record_count == space.record_count
    assert len(loaded.clusters) == len(space.clusters)
    original = {r.id: r for r in space.iter_records()}
    for record in loaded.iter_records():
        source = original[record.id]
        assert record.instruction_affordance == source.instruction_affordance
        assert record.tool_affordance == source.tool_affordance
        assert (record.cluster_id, record.subcluster_id) == (
            source.cluster_id,
            source.subcluster_id,
        )
        assert record.results == source.results
    for cluster, loaded_cluster in zip(space.clusters, loaded.clusters):
        assert cluster.centroid == loaded_cluster.centroid


def test_load_rejects_wrong_schema(space, tmp_path):
    path = tmp_path / "space.json"
    save_space(space, path)
    doc = json.loads(path.read_text())
    doc["schema"] = "aide-space/99"
    path.write_text(json.dumps(doc))
    with pytest.raises(SpaceSchemaError):
        load_space(path)


def test_load_rejects_truncated_document(space, tmp_path):
    path = tmp_path / "space.json"
    save_space(space, path)
    content = path.read_text()
    path.write_text(content[: len(content) // 2])
    with pytest.raises(SpaceFormatError):
        load_space(path)


def test_corpus_round_trip(corpus, tmp_path):
    path = tmp_path / "drafts.jsonl"
    n = write_corpus(corpus[:25], path)
    assert n == 25
    loaded = read_corpus(path)
    assert [r.id for r in loaded] == [r.id for r in corpus[:25]]
    assert loaded[0].instruction_affordance == corpus[0].instruction_affordance
    assert loaded[0].results == corpus[0].results


def test_corpus_rejects_garbage(tmp_path):
    path = tmp_path / "drafts.jsonl"
    path.write_text('{"id": "x"\n')
    with pytest.raises(SpaceFormatError):
        read_corpus(path)


def test_grounding_result_invariants():
    with pytest.raises(ValueError):
        GroundingResult(
            tool_label="cup",
            tool_image="tool:drink:cup",
            tool_region=Region(0, 0, 10, 10),
            operational_region=Region(0, 0, 20, 20),
            functional_region=Region(0, 0, 5, 5),
        )
    with pytest.raises(ValueError):
        GroundingResult(
            tool_label="cup",
            tool_image="tool:drink:cup",
            tool_region=Region(0, 0, 10, 10),
            operational_region=Region(0, 0, 5, 5),
            functional_region=Region(0, 0, 5, 5),
            unseen_region_label="fridge",
        )


def test_record_requires_results(corpus):
    with pytest.raises(ValueError):
        InstructionRecord(
            id="x",
            text="y",
            instruction_affordance=vector([1.0]),
            tool_affordance=vector([1.0]),
            results=(),
        )
