"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from aide.affordance import AffordanceVector, class_centroid, class_names, distance
from aide.config import ConfigParams
from aide.ers import CandidatePool, Grounded, TopMatch
from aide.exploration import (
    ExplorationImpossible,
    Strategy,
    choose_strategy,
    visible_explore,
)
from aide.geometry import Region
from aide.harness import gen_corpus, run_error_analysis, run_eval
from aide.mock import MockPerception
from aide.perception import Detection, EpisodePerception, SceneFrame, SimilarityScore
from aide.planner import run_closed_loop, validity_check
from aide.simulator import REAL_WORLD_SUITE, fresh_world, scripted_scenarios
from aide.space import build_space

from cluster_oracle import brute_force_assignments
from test_exploration import oracle_visible
from worldkit import make_world, match, obj


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def in_distribution_queries(params, count, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    names = class_names(params.a)
    queries = []
    for i in range(count):
        centroid = np.array(class_centroid(names[i % params.a], params.X, known=names).scores)
        vec = np.clip(centroid + rng.normal(0, 0.5, size=params.X), 0.0, 10.0)
        queries.append(AffordanceVector(tuple(float(v) for v in vec)))
    return queries


def uniform_queries(params, count, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    return [
        AffordanceVector(tuple(rng.uniform(0.0, 10.0, size=params.X)))
        for _ in range(count)
    ]


def test_criterion_1_dfs_correctness(space, params):
    """Every hit within c; NotFound exactly when brute force finds nothing."""
    start = time.perf_counter()
    matrix = np.array([r.instruction_affordance.scores for _, r in space.iter_records()])
    queries = in_distribution_queries(params, 600, seed=101) + uniform_queries(
        params, 400, seed=202
    )
    hits = misses = 0
    for query in queries:
        hit, visited = space.dfs_retrieve(query, params.c)
        bf_min = float(np.sqrt(((matrix - np.array(query.scores)) ** 2).sum(axis=1)).min())
        if hit is None:
            assert bf_min > params.c
            assert visited == space.record_count
            misses += 1
        else:
            assert distance(query, space.record(*hit).instruction_affordance) <= params.c
            assert bf_min <= params.c
            hits += 1
    elapsed = time.perf_counter() - start
    ok = hits + misses == 1000 and misses > 0 and elapsed < 5.0
    report(1, ok, f"1000 queries ({hits} hits, {misses} novel), exact, {elapsed:.2f}s < 5s")


def test_criterion_2_dfs_efficiency(space, params):
    """Clustered retrieval visits few records and beats the exhaustive scan."""
    start = time.perf_counter()
    queries = in_distribution_queries(params, 1000, seed=301)

    t0 = time.perf_counter()
    early = 0
    for query in queries:
        _, visited = space.dfs_retrieve(query, params.c)
        if visited < space.record_count:
            early += 1
    dfs_time = (time.perf_counter() - t0) / len(queries)

    records = [record for _, record in space.iter_records()]
    t0 = time.perf_counter()
    for query in queries:
        best = None
        for record in records:
            d = distance(query, record.instruction_affordance)
            if best is None or d < best:
                best = d
    exhaustive_time = (time.perf_counter() - t0) / len(queries)

    share = early / len(queries)
    elapsed = time.perf_counter() - start
    ok = share >= 0.9 and dfs_time < exhaustive_time and elapsed < 30.0
    report(
        2,
        ok,
        f"visited<total on {share:.1%} of queries; mean {dfs_time * 1e6:.0f}us vs "
        f"exhaustive {exhaustive_time * 1e6:.0f}us; {elapsed:.1f}s < 30s",
    )


def test_criterion_3_visible_exploration_oracle(params):
    """10k fuzzed instances match the brute-force enumerator exactly."""
    start = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(42))
    frame = SceneFrame(image="frame:oracle:0", width=800, height=800, timestamp=0.0)
    checked = impossible = 0
    for _ in range(10_000):
        n = int(rng.integers(0, 51))
        detections = []
        for rank in range(1, n + 1):
            x0 = int(rng.integers(0, 780))
            y0 = int(rng.integers(0, 780))
            w = int(rng.integers(1, 150))
            h = int(rng.integers(1, 150))
            detections.append(
                Detection(
                    label="thing",
                    box=Region(x0, y0, min(x0 + w, 800), min(y0 + h, 800)),
                    confidence=1.0 / rank,
                    rank=rank,
                )
            )
        expected = oracle_visible(detections, 800, 800, params)
        if expected is None:
            with pytest.raises(ExplorationImpossible):
                visible_explore(detections, frame, params)
            impossible += 1
            continue
        assert visible_explore(detections, frame, params) == expected
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked + impossible == 10_000 and checked > 5000 and elapsed < 60.0
    report(3, ok, f"10000 instances ({checked} regions, {impossible} impossible), exact, {elapsed:.1f}s < 60s")


class _BoundaryBackend:
    """Stub returning one detection and a single exact similarity value."""

    def __init__(self, sim_value):
        self.sim_value = sim_value

    def detect(self, frame, vocabulary, k):
        if "handle" in vocabulary:
            return []
        return [Detection(label="cup", box=Region(10, 10, 30, 30), confidence=0.9, rank=1)]

    def similarity(self, a, b):
        return SimilarityScore(self.sim_value)

    def segment_regions(self, tool, frame):
        from aide.geometry import vertical_halves

        return vertical_halves(tool.box)


def _boundary_pool():
    from aide.space import GroundingResult

    result = GroundingResult(
        tool_label="cup",
        tool_image="tool:drink:cup",
        tool_region=Region(0, 0, 10, 10),
        operational_region=Region(0, 5, 10, 10),
        functional_region=Region(0, 0, 10, 5),
    )
    return CandidatePool([result])


def test_criterion_4_threshold_semantics(params):
    """Strict routing boundaries on a 100-point grid, plus exact-boundary
    match and validity probes."""
    start = time.perf_counter()
    scores = np.linspace(0.0, 0.999, 98).tolist() + [params.m, params.strategy_threshold]
    for t in scores:
        strategy = choose_strategy(t, params)
        if t > params.strategy_threshold:
            assert strategy is Strategy.VISIBLE
        else:
            assert strategy is Strategy.INVISIBLE

    # Grounding boundary (strictly above m grounds) through the matching path.
    frame = SceneFrame(image="frame:grid:0", width=100, height=100, timestamp=0.0)
    pool = _boundary_pool()
    for value, expect_grounded in (
        (params.m, False),
        (min(params.m + 1e-9, 0.999999), True),
        (params.m - 1e-9, False),
    ):
        backend = EpisodePerception(_BoundaryBackend(value), params.X)
        _, outcome = match(frame, pool, params, backend)
        assert isinstance(outcome, Grounded) == expect_grounded

    # Validity boundary: valid exactly when confidence + similarity >= 0.5.
    confidences = np.linspace(0.0, 1.0, 100)
    sims = np.linspace(0.0, 0.999, 100)
    for conf in confidences:
        det = Detection(label="cup", box=Region(0, 0, 10, 10), confidence=float(conf), rank=1)
        for sim in (float(sims[int(conf * 99) % 100]), 0.5 - float(conf), 0.25):
            sim = min(max(sim, 0.0), 0.999)
            top = TopMatch(
                detections=(det,), crops=("frame:w:0#crop:0,0,10,10",), similarities=(sim,), s_max=sim
            )
            valid, score = validity_check(top, params)
            assert valid == (score >= params.validity_threshold)
            assert score == pytest.approx(float(conf) + sim)
    elapsed = time.perf_counter() - start
    report(4, True, f"strategy grid + boundary match/validity probes exact, {elapsed:.1f}s")


def test_criterion_5_closed_loop_throughput(space, params):
    """1000 planner ticks sustain at least 10 ticks per second."""
    slow = dataclasses.replace(params, approach_speed=0.008)
    world = fresh_world(scripted_scenarios()["clear_cup"])
    mock = MockPerception(world, slow, seed=1, sigma=0.5)
    start = time.perf_counter()
    trace = run_closed_loop(world, space.clone(), slow, mock, max_steps=1000)
    wall = time.perf_counter() - start
    latencies = sorted(row.latency_ms for row in trace.rows)
    p50 = latencies[len(latencies) // 2]
    p99 = latencies[int(len(latencies) * 0.99)]
    rate = trace.steps / wall
    ok = (
        trace.steps == 1000
        and p50 <= 100.0
        and p99 <= 200.0
        and rate >= 10.0
        and wall <= 120.0
    )
    report(
        5,
        ok,
        f"1000 ticks, p50 {p50:.2f}ms <= 100ms, p99 {p99:.2f}ms <= 200ms, "
        f"{rate:.0f} ticks/s >= 10",
    )


def test_criterion_6_end_to_end_scenarios(space, params):
    """All scripted scenarios succeed noiselessly; noisy runs clear the 80% bar."""
    start = time.perf_counter()
    noiseless = run_eval(space, params=params, seed=0, noise=0.0)
    all_completed = all(r.status == "completed" for r in noiseless.rows)
    noisy = run_eval(space, params=params, seed=100, noise=0.5, episodes=200)
    elapsed = time.perf_counter() - start
    ok = (
        len(noiseless.rows) >= 24
        and all_completed
        and noiseless.wsr == 100.0
        and noiseless.asr == 100.0
        and noisy.wsr >= 80.0
        and elapsed <= 300.0
    )
    report(
        6,
        ok,
        f"noiseless WSR {noiseless.wsr:.1f}/ASR {noiseless.asr:.1f} over "
        f"{len(noiseless.rows)} scenarios; noisy WSR {noisy.wsr:.1f} >= 80 over 200 episodes; "
        f"{elapsed:.0f}s <= 300s",
    )


def test_criterion_7_error_machinery(space, params):
    """Tool removal always detected; hinted recovery always completes."""
    start = time.perf_counter()
    clean = run_error_analysis(space, params=params, seed=0, noise=0.0)
    noisy = run_error_analysis(space, params=params, seed=0, noise=0.5)
    elapsed = time.perf_counter() - start
    ok = (
        clean.edr == 100.0
        and clean.err == 100.0
        and noisy.edr >= 50.0
        and elapsed <= 120.0
    )
    report(
        7,
        ok,
        f"noiseless EDR {clean.edr:.0f}/ERR {clean.err:.0f}; noisy EDR {noisy.edr:.0f} >= 50; "
        f"{elapsed:.0f}s <= 120s",
    )


def test_criterion_8_per_frame_execution(space, params):
    """ESR over valid frames on the six everyday-instruction scenarios."""
    worlds = scripted_scenarios()
    start = time.perf_counter()
    result = run_eval(
        space,
        {world_id: worlds[world_id] for world_id in REAL_WORLD_SUITE},
        params,
        seed=0,
        noise=0.5,
        episodes=30,
    )
    elapsed = time.perf_counter() - start
    ok = result.esr is not None and result.esr >= 95.0 and elapsed <= 120.0
    report(8, ok, f"ESR {result.esr:.2f}% >= 95% over {len(result.rows)} episodes; {elapsed:.0f}s")


def test_criterion_9_build_invariants(params):
    """Fixed-point and distance-filter checks across 20 seeded corpora."""
    start = time.perf_counter()
    for seed in range(20):
        drafts = gen_corpus(240, params.X, params.a, params.b, seed=seed)
        built = build_space(drafts, params, seed=seed)
        assert brute_force_assignments(built)
        for (ci, sj, _), record in built.iter_records():
            cluster = built.clusters[ci]
            assert distance(record.instruction_affordance, cluster.centroid) <= params.D
            assert distance(record.tool_affordance, cluster.centroid) <= params.D
            subs = cluster.subclusters
            nearest = min(
                range(len(subs)),
                key=lambda j: (distance(record.instruction_affordance, subs[j].centroid), j),
            )
            assert nearest == sj
    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0
    report(9, ok, f"20 corpora: assignment fixed point + both-vector D filter, {elapsed:.1f}s < 30s")
