from __future__ import annotations

import gc
import hashlib
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from aide import harness
from aide.config import ConfigParams
from aide.harness import (
    ablate_retrieval,
    console_answerer,
    events_path,
    gen_corpus,
    hint_answerer,
    render_ablation,
    render_report,
    run_episode,
    run_error_analysis,
    run_eval,
)
from aide.planner import write_trace
from aide.simulator import fresh_world
from aide.space import _result_to_dict, build_space, load_space, read_corpus, save_space, write_corpus


# --- corpus generation -----------------------------------------------------


def test_gen_corpus_counts_and_balance(params):
    drafts = gen_corpus(432, params.X, params.a, params.b, seed=7)
    assert len(drafts) == len(drafts.texts) == len(set(drafts.ids)) == 432
    assert drafts.instruction.shape == drafts.tool.shape == (432, params.X)
    assert drafts.result_rows.shape == (432, 3) and drafts.result_rows.min() >= 0
    assert len(set(drafts.results)) == len(drafts.results)
    per_class = Counter(drafts.results[row].tool_image.split(":")[1] for row in drafts.result_rows[:, 0])
    counts = sorted(per_class.values())
    assert len(per_class) == params.a
    assert counts[-1] - counts[0] <= 1
    for row in drafts.result_rows.tolist():
        results = [drafts.results[r] for r in row]
        assert len({r.tool_image.split(":")[1] for r in results}) == 1
        assert results[0].unseen_region_label in ("fridge", "drawer", "cabinet")


@pytest.mark.parametrize("count", [0, -5])
def test_gen_corpus_rejects_a_size_below_one(params, count):
    with pytest.raises(ValueError, match="corpus size must be positive"):
        gen_corpus(count, params.X, params.a, params.b, seed=7)


def test_gen_corpus_deterministic_file(params, tmp_path):
    a = tmp_path / "a.corpus"
    b = tmp_path / "b.corpus"
    gen_corpus(64, params.X, params.a, params.b, seed=3, path=a)
    gen_corpus(64, params.X, params.a, params.b, seed=3, path=b)
    assert a.read_bytes() == b.read_bytes()
    gen_corpus(64, params.X, params.a, params.b, seed=4, path=b)
    assert a.read_bytes() != b.read_bytes()


def test_gen_corpus_file_keeps_its_pinned_digest(params, tmp_path):
    # Pinned when aide-corpus/2 replaced JSON Lines. Written as the JSON Lines
    # writer wrote them, one object per draft with its results in full, the
    # drafts read back give the digest that writer's 432-draft file was
    # pinned at, so the file holds the very content that file held.
    path = tmp_path / "drafts.corpus"
    gen_corpus(432, params.X, params.a, params.b, seed=7, path=path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "e083e2355d79535e49b5d2fd3680cc7477f20cec3b2f737749145affc549b24e"
    drafts = read_corpus(path)
    results = [_result_to_dict(result) for result in drafts.results]
    columns = zip(drafts.instruction.tolist(), drafts.tool.tolist(), drafts.result_rows.tolist())
    json_lines = hashlib.sha256()
    for rid, text, (instruction, tool, rows) in zip(drafts.ids, drafts.texts, columns):
        record = {
            "id": rid,
            "text": text,
            "instruction_affordance": instruction,
            "tool_affordance": tool,
            "results": [results[row] for row in rows if row >= 0],
        }
        json_lines.update((json.dumps(record) + "\n").encode("utf-8"))
    assert json_lines.hexdigest() == "c2d63429d0ddac3ebf5b74f751b2f2dad4b46687334d6c63ca4ad17655b8ae4e"


def _drafts_digest(drafts) -> str:
    digest = hashlib.sha256()
    digest.update(json.dumps(drafts.ids).encode("utf-8"))
    digest.update(json.dumps(drafts.texts).encode("utf-8"))
    for column, dtype in ((drafts.instruction, "<f8"), (drafts.tool, "<f8"), (drafts.result_rows, "<i8")):
        digest.update(np.ascontiguousarray(column, dtype=dtype).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize(
    ("count", "expected"),
    [
        (1, "9662981fdfdd2d75d742efa26513ed985c6763c3cf063ffd39d243f89be4ce34"),
        (7, "eae4d5ed201a00578d942b8b6d9a6ca0db36c2a7b568d3abca1e655620f61733"),
        (432, "b243c2571c93ebabf85bb6a0d8d0392c96cc322e6986922df078e90b37b39b42"),
        (5000, "8598b99d3041bf46d7c8c084add18bb51aa1a02d020c4028d62d983dd29d387b"),
        (3 * 4096 + 5, "45ec1d5b7834f84c915291582ded0f0f99e93413555459243e942650666497eb"),
    ],
)
def test_gen_corpus_columns_keep_their_pinned_digest(params, count, expected):
    # Pinned when each draft's text was found by a row-wise np.unique over its
    # (class, template, w0, w1) parts: the ids, texts, vectors and result rows.
    # The 12,293-draft digest was pinned while the noise was one draw for all
    # drafts; drawn 4,096 drafts at a time, it spans three blocks and ends
    # five drafts into a fourth. The 432-draft digest was recorded while the
    # corpus file was JSON Lines.
    drafts = gen_corpus(count, params.X, params.a, params.b, seed=7)
    assert _drafts_digest(drafts) == expected


def test_gen_corpus_covers_all_class_labels(params):
    drafts = gen_corpus(432, params.X, params.a, params.b, seed=7)
    labels = {drafts.results[row].tool_label for row in drafts.result_rows.ravel()}
    for needed in ("cup", "brush", "hammer", "pillow", "tape", "coke", "mallet", "sponge"):
        assert needed in labels


# Traced bytes that corpus generation and the space build may hold beyond
# their result (and, for generation, one block of noise) at 20,000 drafts.
# Measured: 0.81 MB for generation and 0.57 MB for the build; they held 6.5
# and 2.8 MB while the noise was one draw and the build's intermediates lived
# until the space was assembled.
_SET_UP_SLACK = 1_500_000


def test_set_up_holds_at_most_one_block_beyond_its_result(params):
    gc.collect()
    gc.disable()  # a collection inside a window would shrink what it kept
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        drafts = gen_corpus(20_000, params.X, params.a, params.b, seed=7)
        drafts_end, peak = tracemalloc.get_traced_memory()
        block = harness._CORPUS_BLOCK * 2 * params.X * np.dtype(float).itemsize
        assert peak - drafts_end <= block + _SET_UP_SLACK

        tracemalloc.reset_peak()
        space = build_space(drafts, params, 7)  # held, so that it counts as kept
        space_end, peak = tracemalloc.get_traced_memory()
        assert peak - space_end <= _SET_UP_SLACK
    finally:
        tracemalloc.stop()
        gc.enable()


@pytest.fixture(scope="module")
def drafts_and_space_20k(params):
    drafts = gen_corpus(20_000, params.X, params.a, params.b, seed=7)
    return drafts, build_space(drafts, params, 7)


def _subclusters(space):
    return [sub for cluster in space.clusters for sub in cluster.subclusters]


def test_a_built_space_keeps_the_drafts_vector_columns(drafts_and_space_20k):
    drafts, space = drafts_and_space_20k
    for sub in _subclusters(space):
        assert np.shares_memory(sub.instruction, drafts.instruction)
        assert np.shares_memory(sub.tool, drafts.tool)


# Traced bytes that saving the 20,000-draft space may hold beyond one
# subcluster's gathered vector columns. Measured: 42 KB (the text table and a
# subcluster's text rows); gathering every subcluster's columns before the
# first write would hold 6 MB.
_SAVE_SLACK = 150_000


def test_saving_gathers_one_subcluster_at_a_time(drafts_and_space_20k, params, tmp_path):
    _, space = drafts_and_space_20k
    largest = max(len(sub.ids) for sub in _subclusters(space))
    columns = 2 * largest * params.X * np.dtype(float).itemsize
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        save_space(space, tmp_path / "space.aide")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert peak - before <= columns + _SAVE_SLACK


def test_the_vector_columns_of_a_built_or_loaded_space_are_read_only(drafts_and_space_20k, tmp_path):
    drafts, built = drafts_and_space_20k
    save_space(built, tmp_path / "space.aide")
    loaded = load_space(tmp_path / "space.aide")
    for space in (built, loaded):
        sub = space.clusters[0].subclusters[0]
        for column in (sub.instruction, sub.tool):
            with pytest.raises(ValueError, match="read-only"):
                column[sub.vector_rows[0], 0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        drafts.instruction[0, 0] = 5.0


# --- evaluation ------------------------------------------------------------


def test_run_eval_report_invariants(space, params):
    report = run_eval(space, params=params, seed=0, noise=0.0)
    assert report.wsr <= min(report.tsr, report.osr, report.fsr) + 1e-9
    assert report.fps > 0
    for value in (report.tsr, report.osr, report.fsr, report.wsr, report.asr, report.esr):
        assert value is None or 0.0 <= value <= 100.0
    assert len(report.rows) == 24
    scoring = [line for line in render_report(report).splitlines() if line.startswith("# scoring:")]
    assert len(scoring) == 1 and "automatic IoU" in scoring[0]


def test_run_eval_never_reads_stdin(space, params, worlds, monkeypatch):
    def explode(*args, **kwargs):
        raise AssertionError("batch evaluation must not block on input()")

    monkeypatch.setattr("builtins.input", explode)
    report = run_eval(space, {"clear_cup": worlds["clear_cup"]}, params, seed=0, noise=0.0)
    assert report.rows[0].status == "completed"


def test_run_eval_rejects_an_empty_world_set(space, params):
    with pytest.raises(ValueError, match="no worlds"):
        run_eval(space, {}, params, episodes=2)


@pytest.mark.parametrize("episodes", [0, -3])
def test_run_eval_rejects_an_episode_count_below_one(space, params, worlds, episodes):
    with pytest.raises(ValueError, match="episode count must be positive"):
        run_eval(space, worlds, params, episodes=episodes)


# --- ablation -----------------------------------------------------------------


@pytest.fixture(scope="module")
def ablation_rows(corpus, params):
    return ablate_retrieval(corpus, params, seed=11, query_count=60)


def row_for(rows, method, threshold):
    return next(r for r in rows if r.method == method and r.threshold == threshold)


def test_ablation_table_shape(ablation_rows):
    methods = {r.method for r in ablation_rows}
    assert methods == {"affordance", "textsim"}
    assert row_for(ablation_rows, "affordance", None).threshold_label == "ES"
    assert row_for(ablation_rows, "textsim", None).threshold_label == "ES"
    for row in ablation_rows:
        assert row.mean_time_s > 0
        assert 0.0 <= row.accuracy_pct <= 100.0


def test_ablation_accuracy_peaks_at_operating_radius(ablation_rows):
    acc10 = row_for(ablation_rows, "affordance", 10.0).accuracy_pct
    acc40 = row_for(ablation_rows, "affordance", 40.0).accuracy_pct
    acc_es = row_for(ablation_rows, "affordance", None).accuracy_pct
    assert acc10 >= acc40
    assert acc10 >= acc_es


def test_ablation_time_decreases_with_radius(ablation_rows):
    t0 = row_for(ablation_rows, "affordance", 0.0).mean_time_s
    t40 = row_for(ablation_rows, "affordance", 40.0).mean_time_s
    assert t40 <= t0


def test_ablation_deterministic_accuracies(corpus, params, ablation_rows):
    again = ablate_retrieval(corpus, params, seed=11, query_count=60)
    assert [(r.method, r.threshold, r.accuracy_pct) for r in again] == [
        (r.method, r.threshold, r.accuracy_pct) for r in ablation_rows
    ]


def test_ablation_unbounded_radius_always_answers(corpus, params, space, monkeypatch):
    # With no radius bound the DFS answers every query, like exhaustive search.
    monkeypatch.setattr(harness, "_AFFORDANCE_RADII", (1e9,))
    rows = ablate_retrieval(corpus, params, methods=("affordance",), seed=11, query_count=40)
    infinity = row_for(rows, "affordance", 1e9)
    exhaustive = row_for(rows, "affordance", None)
    assert infinity.mean_time_s <= exhaustive.mean_time_s


def test_ablation_raises_when_no_far_out_query_clears_the_radius(corpus):
    # No point of [0, 10]^19 lies farther than about 21 from every stored
    # record, so at c = 25 the far-out draws give up instead of spinning.
    with pytest.raises(ValueError, match="radius c=25"):
        ablate_retrieval(corpus, ConfigParams(c=25.0), seed=7, query_count=10)


@pytest.mark.parametrize(
    ("c", "seed", "digest"),
    [
        (20.0, 7, "229dbc69a30bcb9ccd66c6bc06136b54c6c68b6efa847498fec3aff9cf4f3a69"),
        (15.0, 3, "bee04fb209c6d4f1ead616feee5047ad2957001b4996cf97e77ef1af4570e3c2"),
    ],
)
def test_ablation_queries_keep_the_one_draw_at_a_time_stream(corpus, c, seed, digest):
    # Pinned when far-out queries were drawn one vector at a time: drawing in
    # blocks and rewinding the generator must give the same queries.
    params = ConfigParams(c=c)
    space = build_space(corpus, params, seed)
    queries = harness._ablation_queries(space, params, seed + 1, 100, params.c)
    h = hashlib.sha256()
    for query in queries:
        h.update(np.asarray(query.vector.scores, dtype="<f8").tobytes())
        h.update(query.text.encode())
        h.update(bytes([query.acceptable_exists]))
    assert h.hexdigest() == digest


def test_render_ablation_format(ablation_rows):
    text = render_ablation(ablation_rows, {"seed": 11})
    lines = text.splitlines()
    assert lines[0].startswith("# aide retrieval ablation")
    header = next(l for l in lines if l.startswith("method\t"))
    assert header == "method\tthreshold\tmean_time_s\taccuracy_pct"
    assert any("\tES\t" in l for l in lines)


# --- error analysis ---------------------------------------------------------


def test_error_analysis_noiseless(space, params):
    report = run_error_analysis(space, params=params, seed=0, noise=0.0)
    assert report.edr == 100.0
    assert report.err == 100.0


def test_error_analysis_scores_episodes_against_the_starting_world(space, params):
    # The removal suite makes the tool ABSENT mid-episode, but every suite
    # runs clear scenes only: no episode started with its tool hidden, so
    # the exploration rate has nothing to score.
    report = run_error_analysis(space, params=params, seed=0, noise=0.0)
    assert not any(row.asr_applicable for row in report.rows)
    assert report.asr is None
    assert report.meta["removal_tick"] == 6


def test_error_analysis_hintless_recovers_nothing(space, params):
    report = run_error_analysis(space, params=params, seed=0, noise=0.0, with_hints=False)
    assert report.edr == 100.0
    assert report.err == 0.0


# --- interactive episodes ------------------------------------------------------


def broken_reasoner_world(worlds):
    world = fresh_world(worlds["clear_cup"])
    world.tool_table.pop(world.instruction)
    return world


def test_interactive_episode_recovers_with_typed_label(space, params, worlds):
    prompts = []

    def fake_input(prompt):
        prompts.append(prompt)
        return "cup"

    world = broken_reasoner_world(worlds)
    _, trace = run_episode("ep", world, space, params, answer_human=console_answerer(fake_input))
    assert prompts and prompts[0].endswith("> ")
    assert trace.status == "completed"


def test_interactive_episode_empty_input_aborts(space, params, worlds):
    world = broken_reasoner_world(worlds)
    answer = console_answerer(lambda prompt: "")
    _, trace = run_episode("ep", world, space, params, answer_human=answer)
    assert trace.status == "failed"
    assert trace.fail_reason == "human-abort"


def test_hint_answerer_reads_world_hints(worlds):
    answer = hint_answerer(worlds["clear_cup"])
    assert answer("whatever prompt") == "cup"


def test_hint_answerer_keeps_the_failure_on_a_world_without_hints(worlds):
    world = worlds["clear_cup"]
    world.hint_table.clear()
    assert hint_answerer(world)("whatever prompt") is None


# --- report documents -------------------------------------------------------------


def test_render_report_and_write_its_events(space, params, worlds, tmp_path):
    out = tmp_path / "report.tsv"
    events = out.with_suffix(out.suffix + ".events.jsonl")
    assert events_path(out) == events
    report = run_eval(
        space,
        {world_id: worlds[world_id] for world_id in ("clear_cup", "occ_coke_fridge")},
        params,
        seed=0,
        noise=0.0,
        trace_sink=lambda eid, tr: write_trace(tr, events, eid),
    )
    text = render_report(report)
    assert "automatic IoU >= 0.5" in text
    assert "[summary]" in text and "[episodes]" in text
    assert "TSR\t100.0" in text

    assert events.exists()
    lines = events.read_text().strip().splitlines()
    parsed = [json.loads(l) for l in lines]
    assert any(p.get("final") for p in parsed)
    assert any(p.get("command") == "manipulate" for p in parsed)
    episodes = {p["episode"] for p in parsed}
    assert len(episodes) == 2
