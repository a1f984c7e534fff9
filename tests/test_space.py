from __future__ import annotations

import base64
import gc
import hashlib
import io
import json
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from cluster_oracle import brute_force_assignments
from worldkit import drafts_of

from aide import space as space_module
from aide.affordance import (
    AffordanceVector,
    DimensionMismatchError,
    class_centroid,
    class_names,
    distance,
    euclidean,
    vector,
)
from aide.config import ConfigParams
from aide.geometry import Region
from aide.harness import gen_corpus
from aide.space import (
    DFS_BLOCK,
    SPACE_SCHEMA,
    DuplicateRecordError,
    GroundingResult,
    InstructionRecord,
    SpaceBuildError,
    SpaceError,
    SpaceFormatError,
    SpaceSchemaError,
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


def _record(rid, instr_vec, tool_vec=None, text="do the thing", results=None):
    return InstructionRecord(
        id=rid,
        text=text,
        instruction_affordance=instr_vec,
        tool_affordance=tool_vec if tool_vec is not None else instr_vec,
        results=results or (_result(),),
    )


def subcluster_records(space, ci, sj):
    """The records stored in subcluster ``sj`` of cluster ``ci``, built row by row."""
    sub = space.clusters[ci].subclusters[sj]
    return [space.record(ci, sj, k) for k in range(len(sub.ids))]


def brute_force_nearest(space, query):
    best, best_dist = None, float("inf")
    for _, record in space.iter_records():
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
    for (ci, _, _), record in space.iter_records():
        per_cluster.setdefault(ci, []).append(blob_of(record))
    for cid, blobs in per_cluster.items():
        majority[cid] = Counter(blobs).most_common(1)[0][0]
    total = matches = 0
    for (ci, _, _), record in space.iter_records():
        total += 1
        matches += majority[ci] == blob_of(record)
    assert total == 432
    assert matches / total >= 0.95


def test_build_singletons_when_far_apart():
    params = ConfigParams(a=4, b=2, D=5.0)
    names = class_names()[:4]
    drafts = [
        _record(f"r{i}", class_centroid(n, params.X)) for i, n in enumerate(names)
    ]
    space = build_space(drafts_of(drafts, params.X), params, seed=0)
    assert space.record_count == 4
    sizes = sorted(
        sum(len(s.ids) for s in c.subclusters) for c in space.clusters
    )
    assert sizes == [1, 1, 1, 1]


def test_build_duplicated_record_collapses():
    params = ConfigParams(a=2, b=3, D=25.0)
    point = vector([4.0] * params.X)
    drafts = [_record(f"dup{i}", point) for i in range(params.a * params.b)]
    space = build_space(drafts_of(drafts, params.X), params, seed=1)
    populated = [
        s for c in space.clusters for s in c.subclusters if len(s.ids)
    ]
    assert len(populated) == 1
    assert len(populated[0].ids) == params.a * params.b
    assert populated[0].centroid == point


def test_build_filters_on_both_vectors():
    params = ConfigParams(X=3, a=2, b=1, D=2.0)
    lo, hi = vector([1.0, 1.0, 1.0]), vector([9.0, 9.0, 9.0])
    drafts = [_record(f"a{i}", lo) for i in range(4)]
    drafts += [_record(f"b{i}", hi) for i in range(4)]
    drafts.append(_record("tool-outlier", lo, tool_vec=hi))
    drafts.append(_record("instr-outlier", vector([5.0, 5.0, 5.0])))
    space = build_space(drafts_of(drafts, params.X), params, seed=2)
    ids = {r.id for _, r in space.iter_records()}
    assert "tool-outlier" not in ids
    assert "instr-outlier" not in ids
    assert len(ids) == 8


def test_build_errors():
    params = ConfigParams(X=3, a=4, b=1)
    with pytest.raises(SpaceBuildError):
        build_space(drafts_of([], 3), params, seed=0)
    with pytest.raises(SpaceBuildError):
        build_space(drafts_of([_record("only", vector([1, 2, 3]))], 3), params, seed=0)
    with pytest.raises(DuplicateRecordError):
        build_space(
            drafts_of(
                [_record("same", vector([1, 2, 3])), _record("same", vector([2, 2, 2]))], 3
            ),
            ConfigParams(X=3, a=1, b=1),
            seed=0,
        )
    with pytest.raises(DimensionMismatchError):
        build_space(drafts_of([_record("x", vector([1, 2]))], 2), params, seed=0)


def _copy(drafts):
    """``drafts`` with vector columns of their own: a build marks its drafts' read-only."""
    return replace(drafts, instruction=drafts.instruction.copy(), tool=drafts.tool.copy())


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["instruction", "tool"])
@pytest.mark.parametrize("dropped", [False, True], ids=["kept", "dropped"])
def test_build_rejects_a_score_that_is_not_finite(corpus, params, value, column, dropped):
    drafts = _copy(corpus)
    if dropped:
        # A tool vector mirrored across the score range lies farther than D
        # from its cluster's centroid.
        drafts.tool[5] = np.where(drafts.tool[5] < 5.0, 10.0, 0.0)
        assert not build_space(_copy(drafts), params, seed=7).holds(drafts.ids[5])
    getattr(drafts, column)[5, 3] = value
    with pytest.raises(SpaceFormatError, match="not finite"):
        build_space(drafts, params, seed=7)


def test_build_rejects_drafts_with_fewer_texts_than_ids(corpus, params):
    # A file's texts come one per id, so only hand-made drafts can fall short.
    drafts = replace(corpus, texts=corpus.texts[:-1])
    with pytest.raises(SpaceFormatError, match=f"^{len(corpus) - 1} texts for {len(corpus)} ids$"):
        build_space(drafts, params, seed=7)


def test_build_deterministic(corpus, params):
    s1 = build_space(corpus, params, seed=42)
    s2 = build_space(corpus, params, seed=42)
    a1 = {r.id: at for at, r in s1.iter_records()}
    a2 = {r.id: at for at, r in s2.iter_records()}
    assert a1 == a2


@pytest.fixture(scope="module")
def space_5000(params):
    # About 208 rows a subcluster: more than one DFS block.
    return build_space(gen_corpus(5000, params.X, params.a, params.b, seed=7), params, 7)


def test_a_5000_draft_build_at_the_corpus_seed_keeps_its_bytes(space_5000, tmp_path):
    # Pinned at the plain Lloyd loop, before k-means skipped the points whose
    # label cannot change: the same clusters and rows, byte for byte. Re-pinned
    # when spaces were first saved as aide-space/3, whose file loads to the
    # very space the aide-space/2 document did.
    path = tmp_path / "space.aide"
    save_space(space_5000, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "896ef9cf3a1ccc0038dc6ecd9225626818cb20308fbad96d8533bef2152554e1"


def test_a_saved_space_is_a_json_header_line_then_raw_columns(space, tmp_path):
    path = tmp_path / "space.aide"
    save_space(space, path)
    doc, columns = _read_file(path)
    assert list(doc) == ["schema", "params", "record_count", "results", "clusters", "ids", "texts"]
    assert doc["schema"] == "aide-space/3"
    records = [record for _, record in space.iter_records()]
    assert doc["ids"] == [record.id for record in records]
    assert len(doc["texts"]) == len(set(doc["texts"])) < len(records)
    assert [doc["texts"][row] for row in columns["text_rows"][:, 0]] == [record.text for record in records]
    for name, attribute in (("instruction", "instruction_affordance"), ("tool", "tool_affordance")):
        assert columns[name].tolist() == [list(getattr(record, attribute).scores) for record in records]
    subs = [sub for cluster in space.clusters for sub in cluster.subclusters]
    assert (columns["result_rows"] == np.concatenate([sub.result_rows for sub in subs])).all()


def test_a_space_with_empty_subclusters_saves_and_loads(params, tmp_path):
    # Empty subclusters sit before and after the one populated here.
    point = vector([4.0] * params.X)
    drafts = drafts_of([_record(f"dup{i}", point) for i in range(6)], params.X)
    collapsed = build_space(drafts, replace(params, a=2, b=3, D=25.0), 1)
    assert [len(sub.ids) for cluster in collapsed.clusters for sub in cluster.subclusters].count(0) == 5
    path = tmp_path / "space.aide"
    save_space(collapsed, path)
    doc, columns = _read_file(path)
    assert [len(column) for column in columns.values()] == [6] * 4
    assert doc["texts"] == ["do the thing"]
    assert _facts(load_space(path)) == _facts(collapsed)


def test_build_is_centroid_fixed_point(space):
    assert brute_force_assignments(space)


def test_build_respects_distance_filter(space, params):
    for (ci, _, _), record in space.iter_records():
        centroid = space.clusters[ci].centroid
        assert distance(record.instruction_affordance, centroid) <= params.D
        assert distance(record.tool_affordance, centroid) <= params.D


# --- dfs_retrieve ------------------------------------------------------------


def test_dfs_exact_vector_hits(space, corpus, params):
    target = AffordanceVector(tuple(corpus.instruction[10].tolist()))
    hit, visited = space.dfs_retrieve(target, 10.0)
    assert hit is not None
    assert distance(target, space.record(*hit).instruction_affordance) <= 10.0
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
            assert distance(query, space.record(*hit).instruction_affordance) <= params.c


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
        assert distance(query, space.record(*hit).instruction_affordance) <= params.c


def test_radius_equal_to_the_numpy_oracle_distance_is_inside(space, params):
    # The radius is criterion 1's brute-force minimum (or the largest tool
    # distance in a subcluster), so the record at that distance must count.
    matrix = np.array([r.instruction_affordance.scores for _, r in space.iter_records()])
    rng = np.random.Generator(np.random.PCG64(2024))
    for _ in range(200):
        query = AffordanceVector(tuple(rng.uniform(0, 10, size=params.X)))
        radius = float(np.sqrt(((matrix - np.array(query.scores)) ** 2).sum(axis=1)).min())
        hit, _ = space.dfs_retrieve(query, radius)
        assert hit is not None
    for anchor, record in space.iter_records():
        sub = space.clusters[anchor[0]].subclusters[anchor[1]]
        tools = sub.tool_at(slice(None))
        radius = float(np.sqrt(((tools - np.array(record.tool_affordance.scores)) ** 2).sum(axis=1)).max())
        assert len(space.candidate_set(anchor, radius)) == len(sub.ids)


def whole_subcluster_dfs(space, query, c):
    """DFS as first written: each visited subcluster measured in full."""
    point = np.asarray(query.scores)
    centroids = np.array([cluster.centroid.scores for cluster in space.clusters])
    visited = 0
    for ci in np.argsort(euclidean(point, centroids), kind="stable"):
        subs = space.clusters[ci].subclusters
        sub_centroids = np.array([sub.centroid.scores for sub in subs])
        for sj in np.argsort(euclidean(point, sub_centroids), kind="stable"):
            hits = np.flatnonzero(euclidean(point, subs[sj].instruction_at(slice(None))) <= c)
            if hits.size:
                return (int(ci), int(sj), int(hits[0])), visited + int(hits[0]) + 1
            visited += len(subs[sj].ids)
    return None, visited


def test_dfs_in_blocks_matches_the_whole_subcluster_oracle(space_5000, params):
    rng = np.random.Generator(np.random.PCG64(31))
    late_hits = 0
    for (ci, sj, k), record in list(space_5000.iter_records())[::41]:
        row = np.asarray(record.instruction_affordance.scores)
        query = AffordanceVector(tuple(np.clip(row + rng.normal(0.0, 0.4, params.X), 0.0, 10.0)))
        at_row = float(euclidean(np.asarray(query.scores), row))
        # At its own distance the row lies inside the radius; one float below, outside.
        for c in (0.0, np.nextafter(at_row, 0.0), at_row, 2.0, params.c):
            got = space_5000.dfs_retrieve(query, c)
            assert got == whole_subcluster_dfs(space_5000, query, c)
            late_hits += got[0] is not None and got[0][2] >= DFS_BLOCK
    assert late_hits  # some hits lie past the first block


def test_dfs_dimension_mismatch(space):
    with pytest.raises(DimensionMismatchError):
        space.dfs_retrieve(vector([1.0, 2.0]), 10.0)


# --- candidate_set -----------------------------------------------------------


def test_candidate_set_matches_bruteforce_filter(space, params):
    for ci, cluster in enumerate(space.clusters):
        for sj in range(len(cluster.subclusters)):
            members = subcluster_records(space, ci, sj)
            assert len(members) <= 100
            for k, anchor in enumerate(members):
                for d in (0.0, 3.0, params.d, 100.0):
                    rows = space.candidate_set((ci, sj, k), d)
                    expected = sorted(
                        (r for r in members if distance(anchor.tool_affordance, r.tool_affordance) <= d),
                        key=lambda r: (distance(anchor.tool_affordance, r.tool_affordance), r.id),
                    )
                    assert [members[i] for i in rows] == expected
                    assert k in rows


def test_candidate_set_zero_radius(space):
    anchor, record = next(space.iter_records())
    members = subcluster_records(space, *anchor[:2])
    got = space.candidate_set(anchor, 0.0)
    assert len(got) >= 1
    for i in got:
        assert distance(record.tool_affordance, members[i].tool_affordance) == 0.0


def test_candidate_set_whole_subcluster_with_big_radius(space):
    anchor, _ = next(space.iter_records())
    sub = space.clusters[anchor[0]].subclusters[anchor[1]]
    got = space.candidate_set(anchor, 1000.0)
    assert len(got) == len(sub.ids)


# --- candidate pools -----------------------------------------------------------


def fresh_pool(space, anchor, d):
    """The oracle pool: distinct results along ``candidate_set``'s rows, in
    first-seen order."""
    ci, sj, _ = anchor
    result_rows = space.clusters[ci].subclusters[sj].result_rows
    seen = {}
    for k in space.candidate_set(anchor, d).tolist():
        for row in result_rows[k].tolist():
            if row >= 0:
                seen.setdefault(row, None)
    return [space.results[row] for row in seen]


def remembered_pool(space, anchor, d):
    """The pool from ``pool_results``, which must come from an entry that
    ``Subcluster.pools`` already holds."""
    ci, sj, k = anchor
    assert (k, d) in space.clusters[ci].subclusters[sj].pools
    return space.pool_results(anchor, d)


def test_a_pool_is_the_first_seen_results_of_its_candidate_set(space, params):
    for ci, cluster in enumerate(space.clusters):
        for sj, sub in enumerate(cluster.subclusters):
            for k in range(len(sub.ids)):
                for d in (0.0, 3.0, params.d):
                    expected = fresh_pool(space, (ci, sj, k), d)
                    assert space.pool_results((ci, sj, k), d) == expected
                    assert remembered_pool(space, (ci, sj, k), d) == expected


def test_remembered_pools_match_a_fresh_derivation_across_random_inserts(space, params):
    clone = space.clone()
    rng = np.random.Generator(np.random.PCG64(11))
    radii = (3.0, params.d)
    for at, _ in clone.iter_records():
        for d in radii:
            clone.pool_results(at, d)
    stored = [record for _, record in space.iter_records()]
    extra = [_result("ladle", "stir"), _result("whisk", "stir"), _result("sponge", "clean")]
    for i in range(60):
        near = stored[rng.integers(len(stored))]
        tool = np.asarray(stored[rng.integers(len(stored))].tool_affordance.scores)
        if i % 3:  # else an exact copy: distance zero to that row, a tie broken by id
            tool = np.clip(tool + rng.normal(0.0, 1.0, params.X), 0.0, 10.0)
        picks = rng.choice(len(space.results) + len(extra), size=rng.integers(1, 4), replace=False)
        results = tuple(([*space.results, *extra])[j] for j in picks.tolist())
        rid = f"{'az'[i % 2]}-insert-{i}"  # before and after the stored ids
        ci, sj, _ = clone.insert(
            _record(rid, near.instruction_affordance, AffordanceVector(tuple(tool)), results=results)
        )
        sub = clone.clusters[ci].subclusters[sj]
        for k, d in list(sub.pools):
            assert remembered_pool(clone, (ci, sj, k), d) == fresh_pool(clone, (ci, sj, k), d)
    for at, _ in clone.iter_records():
        for d in radii:
            assert clone.pool_results(at, d) == fresh_pool(clone, at, d)


def _one_subcluster_space(params, tool_vectors, results):
    """A one-subcluster space whose rows hold these tool vectors and results,
    ids r0, r1, ... in row order."""
    drafts = [
        _record(f"r{i}", vector([5.0] * params.X), vector(tool), results=result)
        for i, (tool, result) in enumerate(zip(tool_vectors, results))
    ]
    return build_space(drafts_of(drafts, params.X), replace(params, a=1, b=1, D=100.0), seed=0)


def _at(params, **offsets):
    """[5, 5, ...] moved by ``offsets``, keyed d0, d1, ... by dimension."""
    scores = [5.0] * params.X
    for key, offset in offsets.items():
        scores[int(key[1:])] += offset
    return scores


def test_inserts_at_equal_distances_join_a_pool_in_id_order(params):
    A, B, C, D = (_result(label) for label in ("cup", "mug", "glass", "bottle"))
    base = _one_subcluster_space(params, [_at(params)], [(A,)])
    anchor = (0, 0, 0)
    assert base.pool_results(anchor, 1.0) == [A]
    space = base.clone()
    space.insert(_record("r9", vector([5.0] * params.X), vector(_at(params, d0=1.0)), results=(B,)))
    space.insert(_record("r5", vector([5.0] * params.X), vector(_at(params, d0=-1.0)), results=(C,)))
    # Distance zero, as the anchor's own row: the lower id comes first.
    space.insert(_record("q", vector([5.0] * params.X), vector(_at(params)), results=(D, A)))
    assert remembered_pool(space, anchor, 1.0) == [D, A, C, B] == fresh_pool(space, anchor, 1.0)


def test_two_results_first_seen_in_one_row_keep_their_column_order(params):
    A, E, F = (_result(label) for label in ("cup", "mug", "glass"))
    space = _one_subcluster_space(params, [_at(params)], [(A,)])
    anchor = (0, 0, 0)
    space.pool_results(anchor, 2.0)
    space.insert(_record("r1", vector([5.0] * params.X), vector(_at(params, d1=1.0)), results=(F, E)))
    assert remembered_pool(space, anchor, 2.0) == [A, F, E] == fresh_pool(space, anchor, 2.0)
    # At the same distance and a lower id, this row now shows E first.
    space.insert(_record("r0x", vector([5.0] * params.X), vector(_at(params, d1=1.0)), results=(E, A)))
    assert remembered_pool(space, anchor, 2.0) == [A, E, F] == fresh_pool(space, anchor, 2.0)


def test_an_insert_at_exactly_the_radius_joins_a_remembered_pool(params):
    A, G, H = (_result(label) for label in ("cup", "mug", "glass"))
    space = _one_subcluster_space(params, [_at(params)], [(A,)])
    anchor = (0, 0, 0)
    space.pool_results(anchor, 5.0)
    # A 3-4-5 offset: distance 5.0 exactly, so inside the radius.
    space.insert(_record("r1", vector([5.0] * params.X), vector(_at(params, d0=3.0, d1=4.0)), results=(G,)))
    space.insert(_record("r2", vector([5.0] * params.X), vector(_at(params, d0=3.0, d1=4.000001)), results=(H,)))
    assert euclidean(space.clusters[0].subclusters[0].tool_at(0), _at(params, d0=3.0, d1=4.0)) == 5.0
    assert remembered_pool(space, anchor, 5.0) == [A, G] == fresh_pool(space, anchor, 5.0)


def test_a_clone_insert_leaves_the_base_space_pools_as_they_were(space, params):
    anchors = [at for at, _ in space.iter_records()]
    before = {at: space.pool_results(at, params.d) for at in anchors}
    held = [dict(sub.pools) for cluster in space.clusters for sub in cluster.subclusters]
    clone = space.clone()
    for i, at in enumerate(anchors[::20]):
        record = space.record(*at)
        clone.insert(
            _record(f"clone-pool-{i}", record.instruction_affordance, record.tool_affordance,
                    results=(_result("ladle", "stir"),))
        )
    assert [dict(sub.pools) for cluster in space.clusters for sub in cluster.subclusters] == held
    assert {at: remembered_pool(space, at, params.d) for at in anchors} == before
    assert all(_result("ladle", "stir") not in pool for pool in before.values())


def test_a_loaded_space_gives_the_pools_of_the_space_it_saved(space, params, tmp_path):
    clone = space.clone()
    for at, _ in clone.iter_records():
        clone.pool_results(at, params.d)
    for i, (at, record) in enumerate(list(clone.iter_records())[::30]):
        clone.insert(_record(f"saved-{i}", record.instruction_affordance, record.tool_affordance,
                             results=(_result("whisk", "stir"), *record.results[:1])))
    for source in (space, clone):
        path = tmp_path / "space.aide"
        save_space(source, path)
        loaded = load_space(path)
        for at, _ in loaded.iter_records():
            assert loaded.pool_results(at, params.d) == source.pool_results(at, params.d)


def test_threads_filling_shared_pools_each_read_the_fresh_pools(space, params, tmp_path):
    # Threads race to fill the same subclusters' pools, each in its own
    # order, while their clones' inserts carry those pools forward; every
    # pool read must still be the one a fresh derivation gives.
    path = tmp_path / "space.aide"
    save_space(space, path)
    anchors = [at for at, _ in space.iter_records()][::4]

    def run(shared, offset):
        wrong = 0
        for at in anchors[offset:] + anchors[:offset]:
            wrong += shared.pool_results(at, params.d) != fresh_pool(shared, at, params.d)
            clone = shared.clone()
            record = clone.record(*at)
            clone.insert(_record("t", record.instruction_affordance, record.tool_affordance,
                                 results=(_result("ladle", "stir"),)))
            wrong += clone.pool_results(at, params.d) != fresh_pool(clone, at, params.d)
        return wrong

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            shared = load_space(path)
            results: list[int] = []
            threads = [
                threading.Thread(target=lambda offset=offset: results.append(run(shared, offset)))
                for offset in range(0, len(anchors), len(anchors) // 8)[:8]
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [0] * 8
    finally:
        sys.setswitchinterval(interval)


# --- insert -----------------------------------------------------------------


def test_insert_round_trip(space, params):
    clone = space.clone()
    vec = AffordanceVector(tuple(min(9.9, v + 0.3) for v in class_centroid("drink").scores))
    record = _record("fresh-insert", vec)
    at = clone.insert(record)
    assert clone.record(*at) == record
    assert record == _record("fresh-insert", vec)  # the caller's record is left as it was
    assert (at, record) in clone.iter_records()
    hit, _ = clone.dfs_retrieve(vec, 1.0)
    assert hit is not None
    assert distance(vec, clone.record(*hit).instruction_affordance) <= 1.0
    assert clone.record_count == space.record_count + 1
    assert space.record_count == sum(1 for _ in space.iter_records())


def test_insert_assigns_nearest_centroids(space, params):
    clone = space.clone()
    rng = np.random.Generator(np.random.PCG64(77))
    for i in range(100):
        vec = AffordanceVector(tuple(rng.uniform(0, 10, size=params.X)))
        ci, sj, k = clone.insert(_record(f"bulk-{i}", vec))
        expected_cluster = min(
            range(len(clone.clusters)),
            key=lambda j: (distance(vec, clone.clusters[j].centroid), j),
        )
        assert ci == expected_cluster
        subs = clone.clusters[expected_cluster].subclusters
        expected_sub = min(
            range(len(subs)), key=lambda j: (distance(vec, subs[j].centroid), j)
        )
        assert sj == expected_sub
        assert k == len(subs[sj].ids) - 1


def test_insert_on_subcluster_centroid(space):
    clone = space.clone()
    target = clone.clusters[0].subclusters[0]
    assert clone.insert(_record("on-centroid", target.centroid))[:2] == (0, 0)


def test_insert_duplicate_id_rejected(space):
    clone = space.clone()
    _, existing = next(clone.iter_records())
    with pytest.raises(DuplicateRecordError):
        clone.insert(_record(existing.id, existing.instruction_affordance))


def test_an_insert_of_a_new_result_formats_no_repr(space, monkeypatch):
    # list.index raised a ValueError for a result not yet in the table, and
    # its message held the result's repr (with every nested Region's).
    reprs = []
    monkeypatch.setattr(GroundingResult, "__repr__", lambda self: reprs.append(self) or "r")
    clone = space.clone()
    known = clone.results[0]
    fresh = _result("fresh-tool", "cut")
    assert fresh not in clone.results
    at = clone.insert(_record("new-result", class_centroid("cut"), results=(fresh, known)))
    assert reprs == []
    assert clone.results[-1] == fresh and len(clone.results) == len(space.results) + 1
    assert clone.record(*at).results == (fresh, known)


def test_clone_isolates_insertions(space, params):
    before = space.record_count
    clone = space.clone()
    vec = vector([5.0] * params.X)
    clone.insert(_record("clone-only", vec))
    assert space.record_count == before
    assert all(r.id != "clone-only" for _, r in space.iter_records())
    # The clone shares the base's row arrays until the insert replaces them.
    assert clone.record(*clone.dfs_retrieve(vec, 0.0)[0]).id == "clone-only"
    assert space.dfs_retrieve(vec, 0.0)[0] is None


_COLUMNS = ("ids", "texts", "instruction", "tool", "result_rows")


def _shared(space, other):
    """Whether every subcluster of ``other`` holds the very lists and columns
    of the same subcluster of ``space``, and reads the same rows of the
    vector columns."""
    return all(
        all(getattr(sub, name) is getattr(other_sub, name) for name in _COLUMNS)
        and np.array_equal(sub.vector_rows, other_sub.vector_rows)
        for cluster, other_cluster in zip(space.clusters, other.clusters)
        for sub, other_sub in zip(cluster.subclusters, other_cluster.subclusters)
    )


def test_clone_shares_every_record_list_and_column_until_an_insert(space, params, tmp_path):
    before = tmp_path / "before.aide"
    save_space(space, before)
    source_clusters = list(space.clusters)
    first, second = space.clone(), space.clone()
    assert _shared(space, first) and _shared(space, second)
    assert all(a is b for a, b in zip(first.clusters, space.clusters))
    assert first.clusters is not space.clusters
    assert first._centroid_rows is second._centroid_rows is space._centroid_rows
    record = _record("clone-insert", vector([5.0] * params.X), results=(_result("ladle", "stir"),))
    ci, sj, k = first.insert(record)
    home = first.clusters[ci].subclusters[sj]
    assert k == len(home.ids) - 1
    assert (home.ids[-1], home.texts[-1]) == (record.id, record.text)
    assert home.instruction_at(-1).tolist() == home.tool_at(-1).tolist() == [5.0] * params.X
    assert home.result_rows[-1].tolist() == [len(space.results), -1, -1]
    assert first.record(ci, sj, k) == record
    assert len(first.results) == len(space.results) + 1
    # The insert replaced exactly one cluster, and in it exactly one subcluster.
    assert [j for j, cluster in enumerate(first.clusters) if cluster is not space.clusters[j]] == [ci]
    subs, source = first.clusters[ci].subclusters, space.clusters[ci].subclusters
    assert [j for j in range(len(subs)) if subs[j] is not source[j]] == [sj]
    # The source keeps its very (immutable) clusters, and so its bytes.
    assert all(a is b for a, b in zip(space.clusters, source_clusters))
    after = tmp_path / "after.aide"
    save_space(space, after)
    assert after.read_bytes() == before.read_bytes()
    assert not _shared(space, first)
    assert _shared(space, second)
    assert second.record_count == space.record_count == first.record_count - 1
    assert "clone-insert" not in {r.id for _, r in space.iter_records()}
    assert len(second.results) == len(space.results)
    _, existing = next(space.iter_records())
    with pytest.raises(DuplicateRecordError):
        first.insert(_record(existing.id, existing.instruction_affordance))
    with pytest.raises(DuplicateRecordError):
        first.insert(_record("clone-insert", vector([5.0] * params.X)))
    second.insert(_record("clone-insert", vector([5.0] * params.X)))


def test_a_clone_of_a_clone_inherits_inserts_and_keeps_its_own(space, params, tmp_path):
    parent = space.clone()
    first = (_result("ladle", "stir"), _result())
    parent.insert(_record("first-insert", vector([5.0] * params.X), results=first))
    child = parent.clone()
    with pytest.raises(DuplicateRecordError):
        child.insert(_record("first-insert", vector([4.0] * params.X)))
    second = (_result("whisk", "stir"), _result("ladle", "stir"))
    child.insert(_record("second-insert", vector([4.0] * params.X), results=second))
    stored = sum(1 for _ in space.iter_records())
    assert [level.record_count for level in (space, parent, child)] == [stored, stored + 1, stored + 2]
    # Each level's result table extends the one it was cloned from.
    assert [r.tool_label for r in parent.results[len(space.results) :]] == ["ladle", "cup"]
    assert [r.tool_label for r in child.results[len(space.results) :]] == ["ladle", "cup", "whisk"]
    assert {r.id for _, r in child.iter_records()} - {r.id for _, r in parent.iter_records()} == {
        "second-insert"
    }
    assert "second-insert" not in {r.id for _, r in space.iter_records()}
    parent.insert(_record("second-insert", vector([4.0] * params.X)))  # still free in the parent
    space.clone().insert(_record("first-insert", vector([5.0] * params.X)))
    path = tmp_path / "child.aide"
    save_space(child, path)
    # Pinned: the snapshot of these inserts keeps its bytes (re-pinned when
    # seven retired keys left its params, and when spaces were first saved as
    # aide-space/3, whose file loads to the space the aide-space/2 one did).
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "42dbbf072c4f8d15ebb154f150b082a23ba0c2cf40d009fdf1d16d40f685ae69"


# --- persistence ----------------------------------------------------------------


# A space file's columns after its header line: name, dtype and values per record
# (None: the space's X).
_FILE_COLUMNS = (
    ("text_rows", "<i4", 1),
    ("instruction", "<f8", None),
    ("tool", "<f8", None),
    ("result_rows", "<i4", 3),
)


def _read_file(path) -> tuple[dict, dict[str, np.ndarray]]:
    """A space or corpus file's header and its columns, as writable arrays."""
    data = path.read_bytes()
    end = data.index(b"\n") + 1
    doc = json.loads(data[:end])
    n, at, columns = len(doc["ids"]), end, {}
    X = doc["params"]["X"] if "params" in doc else doc.get("X")
    for name, dtype, width in _FILE_COLUMNS:
        size = np.dtype(dtype).itemsize * n * (width or X)
        columns[name] = np.frombuffer(data[at : at + size], dtype=dtype).reshape(n, -1).copy()
        at += size
    assert at == len(data)
    return doc, columns


def _write_file(path, doc, columns) -> None:
    header = (json.dumps(doc) + "\n").encode("ascii")
    path.write_bytes(header + b"".join(column.tobytes() for column in columns.values()))


def test_save_load_round_trip(space, tmp_path):
    path = tmp_path / "space.aide"
    save_space(space, path)
    loaded = load_space(path)
    assert loaded.record_count == space.record_count
    assert len(loaded.clusters) == len(space.clusters)
    original = {r.id: (at, r) for at, r in space.iter_records()}
    for at, record in loaded.iter_records():
        assert (at, record) == original[record.id]
    for cluster, loaded_cluster in zip(space.clusters, loaded.clusters):
        assert cluster.centroid == loaded_cluster.centroid


def test_loaded_space_holds_one_object_per_distinct_result(space, tmp_path):
    path = tmp_path / "space.aide"
    save_space(space, path)
    loaded = load_space(path)
    results = [result for _, r in loaded.iter_records() for result in r.results]
    assert len(loaded.results) == len(set(results)) == len({id(x) for x in results})
    again = tmp_path / "again.aide"
    save_space(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def _facts(space) -> tuple:
    """Everything a loaded space holds: params, tree, records in order with
    their vectors, results and positions, the result table in order, and
    every subcluster column."""
    return (
        space.params,
        space.record_count,
        [cluster.centroid for cluster in space.clusters],
        [sub.centroid for cluster in space.clusters for sub in cluster.subclusters],
        [
            (r.id, r.text, r.instruction_affordance, r.tool_affordance, r.results, at)
            for at, r in space.iter_records()
        ],
        [space.results[row] for row in range(len(space.results))],
        [
            (
                sub.ids,
                sub.texts,
                sub.instruction_at(slice(None)).tolist(),
                sub.tool_at(slice(None)).tolist(),
                sub.result_rows.tolist(),
            )
            for cluster in space.clusters
            for sub in cluster.subclusters
        ],
    )


def test_a_v3_file_of_a_space_loads_to_an_equal_space(space, tmp_path):
    path = tmp_path / "v3.aide"
    save_space(space, path)
    assert _facts(load_space(path)) == _facts(space)
    assert json.loads(path.read_bytes().split(b"\n", 1)[0])["schema"] == "aide-space/3"


def test_save_load_save_is_byte_identical_after_a_clone_insert(space, params, tmp_path):
    clone = space.clone()
    results = (_result("ladle", "stir"), _result())
    clone.insert(_record("clone-insert", vector([5.0] * params.X), results=results))
    path, again = tmp_path / "space.aide", tmp_path / "again.aide"
    save_space(clone, path)
    loaded = load_space(path)
    assert _facts(loaded) == _facts(clone)
    save_space(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def _short_column(doc, columns):
    columns["tool"] = columns["tool"][:-1]


def _row_outside_the_table(doc, columns):
    columns["result_rows"][-1, 0] = len(doc["results"])


def _pad_before_a_row(doc, columns):
    rows = columns["result_rows"]
    rows[0, :2] = (-1, rows[0, 0])


def _text_row_outside_the_table(doc, columns):
    columns["text_rows"][-1] = len(doc["texts"])


def _negative_text_row(doc, columns):
    columns["text_rows"][3] = -1


def _text_table_short(doc, columns):
    doc["texts"].pop()


def _texts_not_a_list(doc, columns):
    doc["texts"] = "do the thing"


def _duplicate_id(doc, columns):
    doc["ids"][1] = doc["ids"][0]


def _record_count_off(doc, columns):
    doc["record_count"] += 1


def _ids_count_off(doc, columns):
    doc["ids"].pop()


def _score_out_of_range(doc, columns):
    columns["tool"][0, 5] = 10.5


def _result_twice(doc, columns):
    doc["results"].append(doc["results"][0])


def _nan_score(doc, columns):
    columns["instruction"][0, 3] = np.nan


def _no_result_row(doc, columns):
    columns["result_rows"][2] = -1


def _empty_id(doc, columns):
    doc["ids"][4] = ""


def _number_id(doc, columns):
    # Loaded, this id would not match a later insert of the string "5".
    doc["ids"][4] = 5


def _number_text(doc, columns):
    doc["texts"][int(columns["text_rows"][4, 0])] = 5


def _float_region(doc, columns):
    doc["results"][1]["tool_region"][2] += 0.5


def _bool_region(doc, columns):
    doc["results"][1]["tool_region"][0] = False


def _result_missing_a_member(doc, columns):
    del doc["results"][1]["tool_image"]


def _result_not_a_mapping(doc, columns):
    doc["results"][1] = "cup"


def _number_tool_label(doc, columns):
    # Loaded, it failed at eval in CandidatePool (``sorted`` of str and int).
    doc["results"][1]["tool_label"] = 5


def _number_tool_image(doc, columns):
    # Loaded, it failed at eval when the mock resolved the image.
    doc["results"][1]["tool_image"] = 5


def _list_unseen_label(doc, columns):
    doc["results"][1].update(unseen_region_label=["fridge"], unseen_region_image="tool:contain:fridge")


def _no_params(doc, columns):
    del doc["params"]


def _no_clusters(doc, columns):
    del doc["clusters"]


def _null_clusters(doc, columns):
    doc["clusters"] = None


def _sizes_off(doc, columns):
    doc["clusters"][0]["subclusters"][0]["size"] += 1


def _text_size(doc, columns):
    doc["clusters"][0]["subclusters"][0]["size"] = "3"


def _bool_size(doc, columns):
    sub = doc["clusters"][0]["subclusters"][0]
    doc["clusters"][0]["subclusters"][1]["size"] += sub["size"] - 1
    sub["size"] = True


def _bool_centroid(doc, columns):
    # Scores of True would load as 1.0 if a bool were read as a number.
    doc["clusters"][0]["centroid"] = [True] * len(doc["clusters"][0]["centroid"])


def _cluster_not_a_mapping(doc, columns):
    doc["clusters"][0] = "cup"


def _no_subclusters(doc, columns):
    del doc["clusters"][0]["subclusters"]


def _no_subcluster_centroid(doc, columns):
    del doc["clusters"][0]["subclusters"][0]["centroid"]


def _no_ids(doc, columns):
    del doc["ids"]


def _no_results(doc, columns):
    del doc["results"]


def _text_record_count(doc, columns):
    doc["record_count"] = str(doc["record_count"])


def _no_x(doc, columns):
    del doc["X"]


def _a_corpus_x(doc, columns):
    doc["X"] = doc["params"]["X"]


# Each fault of a columnar file, with the message that rejects it, made in a
# saved space and in a written corpus, which one reader reads; the faults of
# params and the cluster tree, which only a space holds, only in a space, and
# of a corpus's own X only in a corpus.
_FILE_FAULTS = [
    (_short_column, "the columns of"),
    (_row_outside_the_table, "result row outside"),
    (_pad_before_a_row, "pad precedes"),
    (_text_row_outside_the_table, "text row outside"),
    (_negative_text_row, "text row outside"),
    (_text_table_short, "text row outside"),
    (_texts_not_a_list, "texts: 'do the thing' is not a list"),
    (_duplicate_id, "duplicate record id"),
    (_record_count_off, "record_count"),
    (_ids_count_off, "record_count"),
    (_score_out_of_range, "outside"),
    (_result_twice, "holds a result twice"),
    (_nan_score, "not finite"),
    (_no_result_row, "no result row"),
    (_empty_id, "empty record id"),
    (_number_id, "record ids must be strings"),
    (_number_text, "record texts must be strings"),
    # Each number of the header is read at its JSON type: a float or a bool
    # is no coordinate. A rejected result is named by its place in the table,
    # in the error of the file's kind.
    (_float_region, r"^malformed {kind} document: results\[1\]: tool_region: .* is not a list of integers"),
    (_bool_region, r"^malformed {kind} document: results\[1\]: tool_region: \[False, .* is not a list of integers"),
    (_result_missing_a_member, r"^malformed {kind} document: results\[1\]: tool_image: None is not a non-empty string"),
    (_result_not_a_mapping, r"^malformed {kind} document: results\[1\]: 'cup' is not a mapping"),
    (_number_tool_label, r"^malformed {kind} document: results\[1\]: tool_label: 5 is not a non-empty string"),
    (_number_tool_image, r"^malformed {kind} document: results\[1\]: tool_image: 5 is not a non-empty string"),
    (_list_unseen_label, r"^malformed {kind} document: results\[1\]: unseen_region_label: \['fridge'\] is not a non-empty string"),
    # Each member of the header is read by key, and a rejection names it.
    (_no_ids, "^malformed {kind} document: ids: None is not a list$"),
    (_no_results, "^malformed {kind} document: results: None is not a list$"),
    (_text_record_count, r"^malformed {kind} document: record_count: '\d+' is not an integer$"),
]
_SPACE_FAULTS = [
    (_no_params, "params: params section must be a mapping"),
    (_no_clusters, "clusters: None is not a list"),
    (_null_clusters, "clusters: None is not a list"),
    (_sizes_off, "subcluster sizes"),
    (_text_size, "clusters: subclusters: size: '3' is not an integer"),
    (_bool_size, "clusters: subclusters: size: True is not an integer"),
    (_bool_centroid, r"clusters: centroid: \[True, .* is not a list of numbers"),
    (_cluster_not_a_mapping, "clusters: 'cup' is not a mapping$"),
    (_no_subclusters, "clusters: subclusters: None is not a list$"),
    (_no_subcluster_centroid, "clusters: subclusters: centroid: None is not a list of numbers$"),
    # A header holds only the members its writer writes, and a rejection names the first other.
    (
        _a_corpus_x,
        "^malformed space document: unknown key 'X', not one of"
        " schema, params, record_count, results, clusters, ids, texts$",
    ),
]
_CORPUS_FAULTS = [
    (_no_x, "^malformed corpus document: X: None is not an integer$"),
    (
        _null_clusters,
        "^malformed corpus document: unknown key 'clusters', not one of"
        " schema, record_count, X, results, ids, texts$",
    ),
]


@pytest.mark.parametrize(
    ("kind", "corrupt", "message"),
    [("space", *fault) for fault in _FILE_FAULTS + _SPACE_FAULTS]
    + [("corpus", *fault) for fault in _FILE_FAULTS + _CORPUS_FAULTS],
)
def test_load_rejects_a_malformed_file(space, corpus, tmp_path, kind, corrupt, message):
    path = tmp_path / kind
    save_space(space, path) if kind == "space" else write_corpus(corpus, path)
    doc, columns = _read_file(path)
    corrupt(doc, columns)
    _write_file(path, doc, columns)
    with pytest.raises(SpaceFormatError, match=message.format(kind=kind)):
        (load_space if kind == "space" else read_corpus)(path)


@pytest.mark.parametrize(
    ("edit", "message"),
    [
        (lambda data: data[:-1], "the columns of"),  # a column one byte short
        (lambda data: data + b"\0", "the columns of"),  # one trailing byte
        (lambda data: data[: data.index(b"\n")], "the columns of"),  # the header alone
        (lambda data: b"[1, 2]\n" + data.split(b"\n", 1)[1], "missing schema tag"),
        (lambda data: b'"aide-space/3"\n' + data.split(b"\n", 1)[1], "missing schema tag"),
        (lambda data: b"\n" + data, "unreadable space header"),
        (lambda data: data.replace(b"}\n", b"} 1\n", 1), "unreadable space header"),
        (lambda data: b"", "unreadable space header"),
    ],
    ids=[
        "one-byte-short",
        "trailing-byte",
        "header-only",
        "header-a-list",
        "header-a-string",
        "blank-line",
        "more-after-the-header",
        "empty",
    ],
)
def test_load_rejects_a_file_that_is_not_a_header_and_its_columns(space, tmp_path, edit, message):
    path = tmp_path / "space.aide"
    save_space(space, path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(SpaceFormatError, match=message):
        load_space(path)


def test_load_rejects_wrong_schema(space, tmp_path):
    path = tmp_path / "space.aide"
    save_space(space, path)
    doc, columns = _read_file(path)
    # aide-space/1 nested every record under its subcluster and aide-space/2
    # held the columns as base64 in one JSON document; neither is read, and
    # the error names the deterministic rebuild.
    for schema in ("aide-space/99", "aide-space/1", "aide-space/2"):
        doc["schema"] = schema
        _write_file(path, doc, columns)
        with pytest.raises(SpaceSchemaError, match=f"got '{schema}'.*aide build-space"):
            load_space(path)
    # A document that leads with its schema is rejected from its first bytes,
    # before the rest (here not even UTF-8) is read.
    path.write_bytes(b'{"schema": "aide-space/2", "params": {}, "ids": ["\xff' + b"\xff" * 100_000 + b'"]}')
    with pytest.raises(SpaceSchemaError, match="got 'aide-space/2'"):
        load_space(path)
    # Anywhere else in the header, the schema is checked once it is parsed.
    _write_file(path, {"ids": [], **doc}, columns)
    with pytest.raises(SpaceSchemaError, match="got 'aide-space/2'"):
        load_space(path)
    # An aide-space/2 document, one JSON document with its columns as base64,
    # is rejected by its schema however it is malformed (here its record
    # count), whether the schema leads it, as save_space wrote it, or not;
    # never with the error its fault gave.
    v2 = {**doc, "record_count": doc["record_count"] + 1}
    for name in ("instruction", "tool", "result_rows"):
        v2[name] = base64.b64encode(columns[name].tobytes()).decode("ascii")
    for layout in (v2, dict(reversed(v2.items()))):
        path.write_text(json.dumps(layout))
        with pytest.raises(SpaceSchemaError, match="got 'aide-space/2'.*aide build-space") as err:
            load_space(path)
        assert "record_count" not in str(err.value)


def test_load_rejects_truncated_document(space, tmp_path):
    path = tmp_path / "space.aide"
    save_space(space, path)
    content = path.read_bytes()
    for cut in (len(content) // 2, content.index(b"\n") // 2):
        path.write_bytes(content[:cut])
        with pytest.raises(SpaceFormatError):
            load_space(path)


def test_load_rejects_a_document_that_is_not_utf8(space, tmp_path):
    path = tmp_path / "space.aide"
    save_space(space, path)
    content = path.read_bytes()
    at = content.index(b'"texts": ["') + len(b'"texts": ["') + 2
    path.write_bytes(content[:at] + b"\xff" + content[at + 1 :])  # one byte inside a text
    with pytest.raises(SpaceFormatError, match="not UTF-8"):
        load_space(path)


def _save_with_params(space, path, **extra) -> None:
    save_space(space, path)
    doc, columns = _read_file(path)
    doc["params"].update(extra)
    _write_file(path, doc, columns)


def test_load_reads_dropped_params_at_their_saved_values(space, tmp_path):
    # Spaces saved before these fields were dropped hold them at these values.
    path = tmp_path / "space.aide"
    _save_with_params(
        space,
        path,
        T=None,
        frame_size=800,
        view_range=40.0,
        visible_candidate_max_rank=None,
        A=432,
        sigma=0.5,
        frame_period=100.0,
        epsilon=1e-6,
        confidence_lambda=5.0,
        blur_range=8.0,
        max_subgoal_depth=4,
    )
    assert load_space(path).params == space.params


def test_load_rejects_a_dropped_param_that_was_set(space, tmp_path):
    path = tmp_path / "space.aide"
    for key, value in [
        ("visible_candidate_max_rank", 12),
        ("A", 1000),
        ("sigma", 0.0),
        ("frame_period", 50.0),
        ("epsilon", 1e-3),
        ("confidence_lambda", 10.0),
        ("blur_range", 20.0),
        ("max_subgoal_depth", 2),
    ]:
        _save_with_params(space, path, **{key: value})
        with pytest.raises(SpaceFormatError, match=key):
            load_space(path)


@pytest.mark.parametrize(
    "edit",
    [
        lambda line: line,
        lambda line: json.dumps(dict(reversed(json.loads(line).items()))),
        lambda line: " \t" + json.dumps(json.loads(line), separators=(" ,\t", " :  ")) + " \r",
    ],
    ids=["as-saved", "reversed-keys", "spaced"],
)
@pytest.mark.parametrize("read_chars", [None, 7])
def test_a_saved_space_loads_to_an_equal_space_in_any_layout(
    space, tmp_path, monkeypatch, edit, read_chars
):
    # The header laid out anew on its one line, with its columns after it.
    # Read 7 bytes at a time, the first piece ends inside the header's first
    # member.
    if read_chars is not None:
        monkeypatch.setattr(space_module, "_HEADER_PEEK", read_chars)
    path = tmp_path / "space.aide"
    save_space(space, path)
    line, columns = path.read_bytes().split(b"\n", 1)
    path.write_bytes(edit(line.decode("ascii")).encode("ascii") + b"\n" + columns)
    assert _facts(load_space(path)) == _facts(space)


def test_a_header_over_several_lines_is_rejected(space, tmp_path):
    # The reader reads the one header line that a save writes.
    path = tmp_path / "space.aide"
    save_space(space, path)
    line, columns = path.read_bytes().split(b"\n", 1)
    path.write_bytes(json.dumps(json.loads(line), indent=2).encode("ascii") + b"\n" + columns)
    # The message says that a header is one line.
    message = r"unreadable space header: Expecting .* line 2 column 1 \(char 2\) \(a header is one JSON line\)$"
    with pytest.raises(SpaceFormatError, match=message):
        load_space(path)


def test_texts_across_read_pieces_keep_their_multibyte_characters(space, tmp_path, monkeypatch):
    # Written unescaped, the header holds each text's UTF-8 bytes, and the
    # first piece of it that a load reads ends inside some of them.
    path = tmp_path / "space.aide"
    save_space(space, path)
    doc, columns = _read_file(path)
    doc["texts"] = [f"{text} — {'é' * (k % 5)}—" for k, text in enumerate(doc["texts"])]
    header = (json.dumps(doc, ensure_ascii=False) + "\n").encode("utf-8")
    path.write_bytes(header + b"".join(column.tobytes() for column in columns.values()))
    texts = [doc["texts"][row] for row in columns["text_rows"][:, 0]]
    start = header.index("—".encode("utf-8"))
    for peek in (start + 1, start + 2, 1000, 1 << 12):
        monkeypatch.setattr(space_module, "_HEADER_PEEK", peek)
        assert [r.text for _, r in load_space(path).iter_records()] == texts


def test_a_loaded_space_holds_one_str_per_distinct_text(space, tmp_path):
    path = tmp_path / "space.aide"
    save_space(space, path)
    texts = [r.text for _, r in load_space(path).iter_records()]
    assert len({id(text) for text in texts}) == len(set(texts)) < len(texts)


@pytest.fixture(scope="module")
def small_space():
    params = ConfigParams(a=2, b=2)
    return build_space(gen_corpus(40, params.X, params.a, params.b, seed=3), params, 3)


@pytest.mark.parametrize(
    "text",
    [
        '{"a": 12345, "b": -1.5e3, "c": [1, {"d": "\\u00e9 \\""}], "e": null, "f": true}',
        '{"m": 7.25E-2}',
        " {} ",
        "[1, 2]",
        "-12.5e+3",
        '"abc"',
    ],
)
def test_the_reader_parses_what_json_loads_parses(text, monkeypatch):
    # Alone in the file, or ending its line with column bytes after it, which
    # the reader leaves unread.
    columns = b"\xff\n\x00\x7b\n"
    for read_chars in range(1, 6):
        monkeypatch.setattr(space_module, "_HEADER_PEEK", read_chars)
        assert space_module._read_header(io.BytesIO(text.encode("utf-8")), SPACE_SCHEMA) == json.loads(text)
        fh = io.BytesIO(text.encode("utf-8") + b"\n" + columns)
        assert space_module._read_header(fh, SPACE_SCHEMA) == json.loads(text)
        assert fh.read() == columns


def test_a_piece_may_end_anywhere_in_a_member(small_space, tmp_path, monkeypatch):
    # The first piece of the header that a load reads, to check its schema,
    # ends inside every key, number and string of the members that lead it,
    # and inside the ids and texts further on.
    path = tmp_path / "space.aide"
    save_space(small_space, path)
    header = path.read_bytes().index(b"\n") + 1
    for peek in [*range(1, 120), *range(120, header + 2, 97)]:
        monkeypatch.setattr(space_module, "_HEADER_PEEK", peek)
        assert _facts(load_space(path)) == _facts(small_space)
    path.write_bytes(path.read_bytes().replace(b"aide-space/3", b"aide-space/2", 1))
    for peek in (1, 12, 26, 27, header + 1):
        monkeypatch.setattr(space_module, "_HEADER_PEEK", peek)
        with pytest.raises(SpaceSchemaError, match="got 'aide-space/2'"):
            load_space(path)


def test_a_file_cut_or_changed_anywhere_loads_or_is_a_space_error(small_space, tmp_path):
    # Whatever the damage, a load of a space or a read of a corpus gives a
    # space or drafts, or a SpaceError, never another exception.
    space_path, corpus_path = tmp_path / "space.aide", tmp_path / "drafts.corpus"
    save_space(small_space, space_path)
    write_corpus(gen_corpus(40, small_space.params.X, 2, 2, seed=3), corpus_path)
    for path, read in ((space_path, load_space), (corpus_path, read_corpus)):
        saved = path.read_bytes()
        header = saved.index(b"\n") + 1
        edits = [saved[:cut] for cut in [*range(0, len(saved), 13), *range(header - 2, header + 16)]]
        edits += [
            saved[:at] + bytes([byte]) + saved[at + 1 :]
            for at in range(0, len(saved), 23)
            for byte in (saved[at] ^ 1, 0x7F)
        ]
        loaded = rejected = 0
        for data in edits:
            path.write_bytes(data)
            try:
                read(path)
            except SpaceError:
                rejected += 1
            else:
                loaded += 1
        assert loaded and rejected, path.name


def test_a_load_holds_little_beside_the_space_it_builds(space_5000, tmp_path):
    # The load holds the header line and its parse beside the space, and
    # reads each column straight into its array.
    path = tmp_path / "space.aide"
    save_space(space_5000, path)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loaded = load_space(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.record_count == space_5000.record_count
    assert kept - before > size // 2  # the columns' bytes and the records stay
    assert peak - kept < size // 2


def _results_per_draft(drafts) -> list[list[GroundingResult]]:
    return [[drafts.results[r] for r in row if r >= 0] for row in drafts.result_rows.tolist()]


def test_corpus_round_trip(corpus, params, tmp_path):
    path, again = tmp_path / "drafts.corpus", tmp_path / "again.corpus"
    assert write_corpus(corpus, path) == len(corpus) == 432
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert list(header) == ["schema", "record_count", "X", "results", "ids", "texts"]
    assert (header["schema"], header["X"], len(header["results"])) == ("aide-corpus/2", params.X, len(corpus.results))
    loaded = read_corpus(path)
    assert (loaded.ids, loaded.texts) == (corpus.ids, corpus.texts)
    assert np.array_equal(loaded.instruction, corpus.instruction)
    assert np.array_equal(loaded.tool, corpus.tool)
    assert _results_per_draft(loaded) == _results_per_draft(corpus)
    write_corpus(loaded, again)
    assert again.read_bytes() == path.read_bytes()
    save_space(build_space(loaded, params, seed=7), tmp_path / "from-file.json")
    save_space(build_space(corpus, params, seed=7), tmp_path / "generated.json")
    assert (tmp_path / "from-file.json").read_bytes() == (tmp_path / "generated.json").read_bytes()


def test_a_corpus_file_is_a_space_file_without_params_and_tree(corpus, params, tmp_path):
    # The same header members but params and clusters, and the same columns:
    # a space that kept every draft in corpus order would write these bytes.
    path = tmp_path / "drafts.corpus"
    write_corpus(corpus, path)
    header, columns = path.read_bytes().split(b"\n", 1)
    doc = json.loads(header)
    space_path = tmp_path / "space.aide"
    save_space(build_space(corpus, params, seed=7), space_path)
    space_doc = json.loads(space_path.read_bytes().split(b"\n", 1)[0])
    assert set(doc) - {"X"} == set(space_doc) - {"params", "clusters"}
    n, X = len(corpus), params.X
    assert len(columns) == 4 * n + 2 * 8 * n * X + 4 * 3 * n
    text_rows = np.frombuffer(columns[: 4 * n], dtype="<i4")
    assert [doc["texts"][row] for row in text_rows.tolist()] == corpus.texts
    assert columns[4 * n :] == corpus.instruction.tobytes() + corpus.tool.tobytes() + corpus.result_rows.tobytes()


# Traced bytes that reading a 5,000-draft corpus may hold beyond the drafts it
# returns. Measured: 0.67 MB, mostly the id set of the final check, from an
# aide-corpus/2 file as from the JSON Lines file before it; the JSON Lines
# reader held 8.2 MB while every line's vectors and results were kept as lists.
_READ_CORPUS_SLACK = 1_000_000


def test_reading_a_corpus_holds_little_beside_the_drafts_it_returns(params, tmp_path):
    path = tmp_path / "drafts.corpus"
    write_corpus(gen_corpus(5000, params.X, params.a, params.b, seed=7), path)
    gc.collect()
    gc.disable()  # a collection inside the window would shrink what it kept
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        drafts = read_corpus(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert len(drafts) == 5000
    assert drafts.result_rows.dtype == np.int32
    assert kept - before > drafts.instruction.nbytes + drafts.tool.nbytes
    assert peak - kept <= _READ_CORPUS_SLACK


def test_corpus_rejects_garbage(tmp_path):
    path = tmp_path / "drafts.corpus"
    path.write_text('{"id": "x"\n')
    with pytest.raises(SpaceFormatError):
        read_corpus(path)


def test_a_json_lines_corpus_is_rejected_with_the_hint_to_write_it_anew(corpus, tmp_path):
    # The first lines of the 432-draft corpus as JSON Lines, the format
    # before aide-corpus/2: one record object per line, results in full.
    path = tmp_path / "drafts.jsonl"
    lines = [
        json.dumps(
            {
                "id": record_id,
                "text": corpus.texts[k],
                "instruction_affordance": corpus.instruction[k].tolist(),
                "tool_affordance": corpus.tool[k].tolist(),
                "results": [space_module._result_to_dict(r) for r in _results_per_draft(corpus)[k]],
            }
        )
        for k, record_id in enumerate(corpus.ids[:3])
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SpaceFormatError, match="missing schema tag.*JSON Lines.*aide gen-corpus") as err:
        read_corpus(path)
    assert "\n" not in str(err.value)
    # A space file is no corpus, and a corpus file no space.
    save_space(build_space(corpus, ConfigParams(), seed=7), path)
    with pytest.raises(SpaceSchemaError, match="expected schema 'aide-corpus/2', got 'aide-space/3'.*gen-corpus"):
        read_corpus(path)
    write_corpus(corpus, path)
    with pytest.raises(SpaceSchemaError, match="expected schema 'aide-space/3', got 'aide-corpus/2'.*build-space"):
        load_space(path)


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
