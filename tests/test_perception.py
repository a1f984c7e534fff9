from __future__ import annotations

import math
import sys
import threading
from statistics import NormalDist, StatisticsError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from worldkit import make_world, obj

from aide.affordance import class_centroid, distance, neutral_vector
from aide.config import ConfigParams
from aide.geometry import Region, iou
from aide.mock import SIMILARITY_CAP, MockPerception, digest_normal, token_cosine
from aide.perception import (
    ReasonerError,
    SceneFrame,
    SimilarityScore,
    ToolHypothesis,
    UnknownReferenceError,
    Detection,
    EpisodePerception,
    PerceptionError,
    check_detection_ordering,
    crop_reference,
    crop_references,
)
from aide.simulator import BLURRED, OCCLUDED, ProjectedObject, observe


@pytest.fixture()
def params():
    return ConfigParams()


def noiseless(world, params, seed=0):
    return MockPerception(world, params, seed=seed, sigma=0.0)


def crop_of(frame, det):
    return crop_reference(frame, det.box)


# --- detect -------------------------------------------------------------------


def test_detect_empty_scene(params):
    world = make_world([], tool_table={"I am thirsty": "cup"})
    mock = noiseless(world, params)
    frame, _ = observe(world)
    assert mock.detect(frame, ["cup"], 5) == []


def test_detect_empty_vocabulary(params):
    world = make_world([obj("c1", "cup", "drink", 20.0, 27.0)])
    mock = noiseless(world, params)
    frame, _ = observe(world)
    assert mock.detect(frame, [], 5) == []


def test_detect_single_visible_match_high_confidence(params):
    world = make_world([obj("c1", "cup", "drink", 20.0, 31.6)])
    mock = noiseless(world, params)
    frame, _ = observe(world)
    dets = mock.detect(frame, ["cup"], 5)
    assert len(dets) == 1
    assert dets[0].rank == 1
    assert dets[0].label == "cup"
    assert dets[0].confidence >= 0.9


def test_detect_truncates_and_sorts_forty_objects(params):
    objects = [
        obj(f"o{i}", "cup" if i % 3 == 0 else "thing", "drink", 6 + (i % 8) * 4, 16 + (i // 8) * 4)
        for i in range(40)
    ]
    world = make_world(objects)
    mock = noiseless(world, params)
    frame, _ = observe(world)
    dets = mock.detect(frame, ["cup"], 5)
    assert len(dets) == 5
    confs = [d.confidence for d in dets]
    assert confs == sorted(confs, reverse=True)
    check_detection_ordering(dets)


def test_detect_distance_decay_factor(params):
    world = make_world([obj("c1", "cup", "drink", 20.0, 27.0)])  # distance 5, within blur range
    mock = noiseless(world, params)
    frame, _ = observe(world)
    det = mock.detect(frame, ["cup"], 1)[0]
    assert det.confidence == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_detect_blur_factor(params):
    world = make_world([obj("c1", "cup", "drink", 20.0, 22.0)])  # beyond blur range
    mock = noiseless(world, params)
    frame, _ = observe(world)
    det = mock.detect(frame, ["cup"], 1)[0]
    assert det.confidence == pytest.approx(0.4 * math.exp(-2.0), abs=1e-9)


def test_detect_rank_ordering_fuzzed_over_many_scenes(params):
    rng = np.random.Generator(np.random.PCG64(0))
    labels = ["cup", "hammer", "box", "thing", "plant"]
    for trial in range(10_000):
        n = int(rng.integers(0, 12))
        objects = [
            obj(
                f"o{trial}-{i}",
                labels[int(rng.integers(len(labels)))],
                "drink",
                float(rng.uniform(4, 36)),
                float(rng.uniform(14, 30)),
            )
            for i in range(n)
        ]
        world = make_world(objects, world_id=f"fuzz{trial}")
        mock = MockPerception(world, params, seed=trial, sigma=0.5)
        frame, _ = observe(world)
        dets = mock.detect(frame, ["cup", "hammer"], int(rng.integers(1, 60)))
        check_detection_ordering(dets)


def test_detect_deterministic_for_identical_queries(params):
    world = make_world([obj("c1", "cup", "drink", 18.0, 25.0), obj("b1", "box", "contain", 24.0, 25.0)])
    mock = MockPerception(world, params, seed=9, sigma=0.5)
    frame, _ = observe(world)
    first = mock.detect(frame, ["cup", "box"], 10)
    second = mock.detect(frame, ["cup", "box"], 10)
    assert first == second
    # A different seed changes the noise, hence (typically) the confidences.
    other = MockPerception(world, params, seed=10, sigma=0.5).detect(frame, ["cup", "box"], 10)
    assert [d.confidence for d in other] != [d.confidence for d in first]


def test_detect_part_vocabulary(params):
    world = make_world([obj("h1", "hammer", "strike", 20.0, 28.0)])
    mock = noiseless(world, params)
    frame, projections = observe(world)
    dets = mock.detect(frame, ["handle", "body"], 10)
    assert {d.label for d in dets} == {"handle", "body"}
    proj = projections[0]
    by_label = {d.label: d.box for d in dets}
    assert by_label["handle"] == proj.handle
    assert by_label["body"] == proj.body


def test_occluded_objects_never_detected(params):
    world = make_world(
        [
            obj("f1", "fridge", "contain", 20.0, 24.0, w=4, h=4),
            obj("c1", "coke", "drink", 20.0, 24.0, w=1, h=1, visibility=OCCLUDED, container_id="f1"),
        ]
    )
    mock = noiseless(world, params)
    frame, _ = observe(world)
    dets = mock.detect(frame, ["coke", "fridge"], 10)
    assert all(d.label != "coke" or d.box == world.objects["f1"].box for d in dets)
    resolved = {mock.resolve(crop_of(frame, d)).tag for d in dets}
    assert "coke" not in resolved


# --- similarity -----------------------------------------------------------------


def test_similarity_identical_reference_clamped(params):
    world = make_world([obj("c1", "cup", "drink", 20.0, 28.0)])
    mock = noiseless(world, params)
    value = mock.similarity("tool:drink:cup", "tool:drink:cup").value
    assert value == SIMILARITY_CAP == pytest.approx(1.0 - 1e-6)
    assert value < 1.0


def test_similarity_crop_vs_catalog_same_tool(params):
    world = make_world([obj("c1", "cup", "drink", 20.0, 29.0)])
    mock = noiseless(world, params)
    frame, _ = observe(world)
    det = mock.detect(frame, ["cup"], 1)[0]
    assert mock.similarity(crop_of(frame, det), "tool:drink:cup").value >= 0.9


def test_similarity_cross_class_low(params):
    world = make_world(
        [obj("c1", "cup", "drink", 16.0, 29.0), obj("h1", "hammer", "strike", 24.0, 29.0)]
    )
    mock = noiseless(world, params)
    frame, _ = observe(world)
    cup = next(d for d in mock.detect(frame, ["cup", "hammer"], 5) if d.label == "cup")
    assert mock.similarity(crop_of(frame, cup), "tool:strike:hammer").value <= 0.5


def test_similarity_symmetric_and_below_one(params):
    world = make_world([obj("c1", "cup", "drink", 18.0, 29.0)])
    mock = MockPerception(world, params, seed=3, sigma=0.5)
    frame, _ = observe(world)
    det = mock.detect(frame, ["cup"], 1)[0]
    crop = crop_of(frame, det)
    refs = [crop, "tool:drink:cup", "tool:strike:hammer", "container:fridge", "some text"]
    for a in refs:
        for b in refs:
            ab = mock.similarity(a, b).value
            ba = mock.similarity(b, a).value
            assert ab == ba
            assert 0.0 <= ab < 1.0


def test_similarity_unresolvable_reference(params):
    world = make_world([])
    mock = noiseless(world, params)
    with pytest.raises(UnknownReferenceError):
        mock.similarity("frame:nope:0#crop:0,0,4,4", "tool:drink:cup")


def test_a_whole_frame_shows_no_tool_and_resolves_only_while_current(params):
    world = make_world([obj("c1", "cup", "drink", 20.0, 29.0)])
    mock = noiseless(world, params)
    frame, _ = observe(world)
    crop = crop_of(frame, mock.detect(frame, ["cup"], 1)[0])
    whole = mock.similarity(frame.image, "tool:drink:cup").value
    assert whole == mock.similarity(frame.image, "tool:strike:hammer").value
    assert 0.0 <= whole < mock.similarity(crop, "tool:drink:cup").value
    observe(world)
    with pytest.raises(UnknownReferenceError, match=frame.image):
        mock.similarity(frame.image, "tool:drink:cup")


def test_only_the_current_frame_resolves(params):
    world = make_world([obj("c1", "cup", "drink", 20.0, 27.0)])
    mock = noiseless(world, params)
    previous, _ = observe(world)
    assert mock.detect(previous, ["cup"], 1)
    current, _ = observe(world)
    assert mock.detect(current, ["cup"], 1)
    with pytest.raises(UnknownReferenceError, match=previous.image):
        mock.detect(previous, ["cup"], 1)
    assert EpisodePerception(mock, params.X).detect(previous, ["cup"], 1) == []


def test_a_crop_of_an_earlier_frame_no_longer_resolves(params):
    world = make_world([obj("c1", "cup", "drink", 20.0, 27.0)])
    mock = noiseless(world, params)
    frame, _ = observe(world)
    crop = crop_of(frame, mock.detect(frame, ["cup"], 1)[0])
    assert mock.similarity(crop, "tool:drink:cup").value == pytest.approx(0.95)
    observe(world)
    with pytest.raises(UnknownReferenceError, match=frame.image):
        mock.similarity(crop, "tool:drink:cup")
    asked = EpisodePerception(mock, params.X)
    assert asked.similarities(crop, ["tool:drink:cup"]) == [0.0]
    assert asked.similarities("tool:drink:cup", [crop]) == [0.0]


def test_similarities_score_failed_references_zero(params):
    mock = noiseless(make_world([]), params)
    broken = "frame:nope:0#crop:0,0,4,4"
    fine = "tool:strike:hammer"
    expected = mock.similarity("tool:drink:cup", fine).value
    assert 0.0 < expected
    asked = EpisodePerception(mock, params.X)
    assert asked.similarities("tool:drink:cup", [broken, fine, broken]) == [0.0, expected, 0.0]
    assert asked.similarities("tool:drink:cup", []) == []


def test_crop_scores_take_each_crops_best_reference(params):
    world = make_world(
        [obj("c1", "cup", "drink", 16.0, 29.0), obj("h1", "hammer", "strike", 24.0, 29.0)]
    )
    mock = noiseless(world, params)
    frame, _ = observe(world)
    dets = mock.detect(frame, ["cup", "hammer"], 5)
    refs = ["tool:drink:cup", "frame:nope:0#crop:0,0,4,4", "tool:strike:hammer"]
    expected = [
        max(mock.similarity(crop_of(frame, det), ref).value for ref in (refs[0], refs[2]))
        for det in dets
    ]
    crops = crop_references(frame, dets)
    assert crops == [crop_of(frame, det) for det in dets]
    asked = EpisodePerception(mock, params.X)
    assert asked.crop_scores(crops, refs) == expected
    assert asked.crop_scores(crops, ["frame:nope:0#crop:0,0,4,4"]) == [0.0] * len(dets)
    assert asked.crop_scores(crops, []) == [0.0] * len(dets)
    assert asked.crop_scores([], refs) == []


def test_text_similarity_uses_scenario_tables(params):
    world = make_world(
        [],
        instruction="I want something cold to drink",
        container_table={"I want something cold to drink": "fridge"},
    )
    mock = noiseless(world, params)
    high = mock.similarity("I want something cold to drink", "fridge").value
    low = mock.similarity("I want something cold to drink", "drawer").value
    assert high == pytest.approx(0.9)
    assert low < high


def test_token_cosine():
    assert token_cosine("crack the walnuts", "walnuts crack easily") > 0.5
    assert token_cosine("abc", "xyz") == 0.0
    assert token_cosine("", "anything") == 0.0


# --- pinned noisy values ------------------------------------------------------
#
# Exact floats at sigma 0.5, recorded before the mock's kernels were rewritten
# to work on coordinates; any change to the noise keys, crop resolution or
# scoring shows here as a changed value.

PINNED_FRAME = "frame:testworld:0#crop:"

PINNED_DETECTIONS = [
    ("body", (300, 320, 340, 344), 0.38888388504333127),
    ("hammer", (460, 320, 500, 360), 0.3874757478905688),
    ("body", (460, 320, 500, 344), 0.37402105491361126),
    ("handle", (460, 344, 500, 360), 0.36955251596070693),
    ("handle", (300, 344, 340, 360), 0.36779495115527844),
    ("cup", (300, 320, 340, 360), 0.3507844564445421),
    ("handle", (360, 208, 440, 240), 0.061773269715342756),
    ("fridge", (360, 160, 440, 240), 0.061121125718831),
    ("body", (360, 160, 440, 208), 0.02283483699507432),
]

PINNED_SIMILARITIES = [
    # crop and catalog tool: same tag, same part, another part, another class
    (PINNED_FRAME + "298,318,342,362", "tool:drink:cup", 0.9461717105900297),
    (PINNED_FRAME + "298,343,342,361", "tool:drink:cup#op", 0.9823112248656781),
    (PINNED_FRAME + "298,319,342,345", "tool:drink:cup#op", 0.7768921249583018),
    (PINNED_FRAME + "458,318,502,362", "tool:drink:cup", 0.24720779607092044),
    # a blurred crop and its container, two crops, two catalog images
    (PINNED_FRAME + "356,156,444,244", "container:fridge", 0.9294502266138305),
    (PINNED_FRAME + "298,318,342,362", PINNED_FRAME + "458,318,502,362", 0.28672533302805114),
    ("tool:strike:hammer", "container:fridge", 0.2713025027922439),
    # a crop over nothing, a crop against text, and two texts
    (PINNED_FRAME + "0,0,4,4", "tool:drink:cup", 0.3),
    (PINNED_FRAME + "298,318,342,362", "a cup to drink from", 0.35777087639996635),
    ("I am thirsty", "cup", 0.9),
    ("a cup to drink from", "drink from a glass", 0.6708203932499369),
]

PINNED_CUP_AFFORDANCE = (
    7.924494191905944, 0.2938067952776971, 0.7429167899735456, 7.132775750902299,
    8.179772125514553, 9.391897329496985, 9.492080577866655, 6.889420359594946,
    8.970177290404779, 3.1482640611596158, 6.416068314110165, 1.4367017946772895,
    7.002025297889625, 10.0, 3.7197902210417184, 2.346922897717993,
    5.120809895484199, 0.6787889175547301, 8.856551130097218,
)


def pinned_scene(params):
    world = make_world(
        [
            obj("c1", "cup", "drink", 16.0, 29.0),
            obj("h1", "hammer", "strike", 24.0, 29.0),
            obj("f1", "fridge", "contain", 20.0, 22.0, w=4, h=4, visibility=BLURRED),
        ],
        tool_table={"I am thirsty": "cup"},
    )
    frame, _ = observe(world)
    return MockPerception(world, params, seed=3, sigma=0.5), frame


def test_detect_confidences_are_pinned(params):
    mock, frame = pinned_scene(params)
    dets = mock.detect(frame, ["cup", "hammer", "fridge", "handle", "body"], 10)
    assert [(d.label, tuple(d.box.as_list()), d.confidence) for d in dets] == PINNED_DETECTIONS


@pytest.mark.parametrize("a,b,value", PINNED_SIMILARITIES)
def test_similarity_is_pinned(params, a, b, value):
    mock, _ = pinned_scene(params)
    assert mock.similarity(a, b).value == value
    assert mock.similarity(b, a).value == value


def test_score_affordance_is_pinned(params):
    mock, _ = pinned_scene(params)
    # The noise key of score i is ("aff", subject, i): its int part is str()-joined.
    assert mock.score_affordance("tool:drink:cup").scores == PINNED_CUP_AFFORDANCE


def test_concurrent_queries_agree_with_serial_ones(params):
    # Threads race to rebuild the frame cache and fill its memo; every
    # answer must still be the serial one.
    mock, frame = pinned_scene(params)
    dets = mock.detect(frame, ["cup", "hammer", "fridge", "handle", "body"], 10)
    refs = ["tool:drink:cup", "tool:drink:cup#op", "container:fridge", "a cup to drink from"]
    pairs = [(crop, ref) for crop in crop_references(frame, dets) for ref in refs]
    expected = [mock.similarity(a, b).value for a, b in pairs]
    world = mock.world
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            # The same frame under a new identity: every cache is rebuilt.
            world.observed = (world.observed[0], list(world.observed[1]))
            results: list[list[float]] = []
            threads = [
                threading.Thread(
                    target=lambda: results.append([mock.similarity(a, b).value for a, b in pairs])
                )
                for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [expected] * 8
    finally:
        sys.setswitchinterval(interval)


def test_every_digest_draws_a_finite_normal():
    # (digest + 0.5) / 2**64 rounds to 1.0 for the top 1,024 digests, where
    # the inverse CDF raises; those draws take the largest u below 1.
    top = 2**64 - 1
    with pytest.raises(StatisticsError):
        NormalDist().inv_cdf((top + 0.5) / 2.0**64)
    assert digest_normal(top) == NormalDist().inv_cdf(math.nextafter(1.0, 0.0))
    assert digest_normal(2**64 - 2**10) == digest_normal(top)
    assert 8.0 < digest_normal(top) < 8.5
    assert digest_normal(0) == NormalDist().inv_cdf(0.5 / 2.0**64)
    assert -9.5 < digest_normal(0) < -9.0


def projected(box, handle=None, body=None, label="cup"):
    return ProjectedObject(
        object_id=label,
        label=label,
        affordance_class="drink",
        box=box,
        handle=handle,
        body=body,
        distance=1.0,
        visibility="visible",
    )


def test_a_crop_resolves_only_above_five_percent_overlap(params):
    world = make_world([])
    world.observed = ("frame:t:0", [projected(Region(0, 0, 10, 10))])
    mock = noiseless(world, params)
    assert iou(Region(0, 0, 5, 1), Region(0, 0, 10, 10)) == 0.05
    assert mock.resolve("frame:t:0#crop:0,0,5,1").tag is None
    assert mock.resolve("frame:t:0#crop:0,0,6,1").tag == "cup"
    # IoU 21 / 400 = 0.0525 clears the bar; 21 / (400 + 21), the overlap over
    # the summed areas, would not.
    world.observed = ("frame:t:1", [projected(Region(0, 0, 20, 20))])
    assert mock.resolve("frame:t:1#crop:0,0,7,3").tag == "cup"


def test_a_crop_tied_between_parts_resolves_to_the_first(params):
    box, handle, crop = Region(0, 0, 10, 10), Region(0, 3, 10, 10), Region(0, 2, 10, 7)
    assert iou(crop, box) == iou(crop, handle) == 0.5
    world = make_world([])
    world.observed = (
        "frame:t:0",
        [projected(box, handle=handle, body=handle), projected(box, label="mug")],
    )
    mock = noiseless(world, params)
    # Box before handle before body, and the first object before the second.
    assert mock.resolve("frame:t:0#crop:0,2,10,7").tag == "cup"
    assert mock.resolve("frame:t:0#crop:0,3,10,10").tag == "cup::op"


# --- reasoner-style capabilities ---------------------------------------------


def test_propose_tool_table_and_miss(params):
    world = make_world(
        [obj("c1", "cup", "drink", 20.0, 28.0)],
        tool_table={"I am thirsty": "cup"},
    )
    mock = noiseless(world, params)
    frame, _ = observe(world)
    hyp = mock.propose_tool("I am thirsty", frame)
    assert hyp.label == "cup"
    assert hyp.attributes
    with pytest.raises(ReasonerError):
        mock.propose_tool("do something undefined", frame)


def test_select_candidate_prefers_ground_truth_match(params):
    # Distractors outrank the blurred cup, which lands at rank 3.
    world = make_world(
        [
            obj("b1", "bottle", "drink", 20.0, 30.0),
            obj("b2", "bowl", "contain", 18.0, 28.0),
            obj("c1", "cup", "drink", 20.0, 20.0),
        ]
    )
    mock = noiseless(world, params)
    frame, _ = observe(world)
    dets = mock.detect(frame, ["cup"], 5)
    assert mock.resolve(crop_of(frame, dets[2])).tag == "cup"
    idx = mock.select_candidate(ToolHypothesis("cup"), dets, frame)
    assert idx == 2


def test_select_candidate_fallback_and_single(params):
    world = make_world([obj("b1", "bottle", "drink", 20.0, 30.0)])
    mock = noiseless(world, params)
    frame, _ = observe(world)
    dets = mock.detect(frame, ["cup"], 5)
    assert mock.select_candidate(ToolHypothesis("cup"), dets, frame) == 0
    assert mock.select_candidate(ToolHypothesis("bottle"), dets, frame) == 0


def test_segment_regions_uses_ground_truth_parts(params):
    world = make_world([obj("h1", "hammer", "strike", 20.0, 28.0)])
    mock = noiseless(world, params)
    frame, projections = observe(world)
    det = mock.detect(frame, ["hammer"], 1)[0]
    operational, functional = mock.segment_regions(det, frame)
    assert operational == projections[0].handle
    assert functional == projections[0].body
    assert det.box.contains(operational) and det.box.contains(functional)


def test_segment_regions_fallback_halves(params):
    world = make_world([obj("h1", "hammer", "strike", 20.0, 28.0, parts=False)])
    mock = noiseless(world, params)
    frame, _ = observe(world)
    det = mock.detect(frame, ["hammer"], 1)[0]
    operational, functional = mock.segment_regions(det, frame)
    box = det.box
    mid = box.y_min + box.height // 2
    assert operational == Region(box.x_min, mid, box.x_max, box.y_max)
    assert functional == Region(box.x_min, box.y_min, box.x_max, mid)


def test_segment_regions_degenerate_box(params):
    world = make_world([])
    mock = noiseless(world, params)
    frame, _ = observe(world)
    tiny = Detection(label="cup", box=Region(10, 10, 11, 11), confidence=0.5, rank=1)
    operational, functional = mock.segment_regions(tiny, frame)
    assert operational == tiny.box and functional == tiny.box


class ScriptedSegments:
    """Answers ``segment_regions`` with fixed regions, or fails when given none."""

    def __init__(self, regions=None):
        self.regions = regions

    def segment_regions(self, tool, frame):
        if self.regions is None:
            raise PerceptionError("segmenter unreachable")
        return self.regions


def test_tool_regions_clip_into_the_box_and_fall_back_to_halves(params):
    frame = SceneFrame(image="frame:test:0", width=100, height=100, timestamp=0.0)
    tool = Detection(label="cup", box=Region(10, 10, 20, 30), confidence=0.9, rank=1)

    def regions(answer=None):
        return EpisodePerception(ScriptedSegments(answer), params.X).tool_regions(tool, frame)

    inside = (Region(10, 20, 20, 30), Region(10, 10, 20, 20))
    assert regions(inside) == inside
    past_edge, disjoint = Region(15, 0, 40, 25), Region(50, 50, 60, 60)
    operational, functional = regions((past_edge, disjoint))
    assert operational == Region(15, 10, 20, 25)
    assert functional == tool.box
    assert regions() == inside


def test_a_region_touching_the_tool_box_edge_clips_to_the_box(params):
    # It meets the (10, 10, 40, 60) box only along x = 40, a zero-area
    # intersection, which ground_regions also replaces with the box.
    frame = SceneFrame(image="frame:test:0", width=100, height=100, timestamp=0.0)
    tool = Detection(label="cup", box=Region(10, 10, 40, 60), confidence=0.9, rank=1)
    touching, inside = Region(40, 10, 55, 60), Region(10, 10, 40, 30)
    asked = EpisodePerception(ScriptedSegments((touching, inside)), params.X)
    assert asked.tool_regions(tool, frame) == (tool.box, inside)


def test_affordance_rejects_a_wrong_length_vector(params):
    mock = noiseless(make_world([]), params)
    vector = EpisodePerception(mock, params.X).affordance("I am thirsty")
    assert vector == mock.score_affordance("I am thirsty")
    with pytest.raises(PerceptionError):
        EpisodePerception(mock, params.X + 1).affordance("I am thirsty")


class ScriptedAnswers(MockPerception):
    """Noiseless mock that counts its similarity and affordance calls; each
    capability first gives the answers queued for it (an exception is raised)."""

    def __init__(self, world, params, similarity=(), affordance=()):
        super().__init__(world, params, sigma=0.0)
        self.queued = {"similarity": list(similarity), "affordance": list(affordance)}
        self.calls = 0

    def _next(self, capability, answer):
        self.calls += 1
        if self.queued[capability]:
            answer = self.queued[capability].pop(0)
        if isinstance(answer, Exception):
            raise answer
        return answer

    def similarity(self, a, b):
        return self._next("similarity", super().similarity(a, b))

    def score_affordance(self, subject):
        return self._next("affordance", super().score_affordance(subject))


def test_episode_perception_asks_each_answered_question_once(params):
    backend = ScriptedAnswers(make_world([]), params)
    asked = EpisodePerception(backend, params.X)
    assert asked.similarities("cup", ["tool:drink:cup"]) == asked.similarities(
        "cup", ["tool:drink:cup"]
    )
    assert asked.affordance("I am thirsty") == asked.affordance("I am thirsty")
    assert backend.calls == 2
    asked.similarities("tool:drink:cup", ["cup"])  # the pair is ordered
    assert backend.calls == 3


def test_episode_perception_keeps_no_failure(params):
    # A raised call scores 0.0 and a short vector is a failed call; each is
    # asked again, answered, and the answer kept.
    backend = ScriptedAnswers(
        make_world([]), params, [PerceptionError("down")], [neutral_vector(params.X - 1)]
    )
    asked = EpisodePerception(backend, params.X)
    assert asked.similarities("cup", ["tool:drink:cup"]) == [0.0]
    assert asked.similarities("cup", ["tool:drink:cup"]) == [0.8]
    with pytest.raises(PerceptionError):
        asked.affordance("I am thirsty")
    vector = asked.affordance("I am thirsty")
    assert vector == backend.score_affordance("I am thirsty")
    assert backend.calls == 5
    assert asked.similarities("cup", ["tool:drink:cup"]) == [0.8]
    assert asked.affordance("I am thirsty") == vector
    assert backend.calls == 5


def test_score_affordance_exact_centroid_when_noiseless(params):
    world = make_world(
        [obj("c1", "cup", "drink", 20.0, 28.0)], tool_table={"I am thirsty": "cup"}
    )
    mock = noiseless(world, params)
    assert mock.score_affordance("I am thirsty") == class_centroid("drink", params.X)
    assert mock.score_affordance("tool:drink:cup") == class_centroid("drink", params.X)


def test_score_affordance_same_class_subjects_stay_close(params):
    world = make_world([], tool_table={})
    sigma = 0.5
    mock = MockPerception(world, params, seed=4, sigma=sigma)
    a = mock.score_affordance("tool:drink:cup")
    b = mock.score_affordance("tool:drink:mug")
    assert distance(a, b) <= 3 * sigma * math.sqrt(params.X)


@pytest.mark.parametrize("sigma", [-0.1, math.nan])
def test_noise_scale_must_be_non_negative(params, sigma):
    with pytest.raises(ValueError, match="sigma"):
        MockPerception(make_world([]), params, sigma=sigma)


def test_score_affordance_unknown_subject_neutral(params):
    world = make_world([])
    mock = MockPerception(world, params, seed=4, sigma=0.5)
    assert mock.score_affordance("never seen this before") == neutral_vector(params.X)


def test_score_affordance_deterministic_per_subject(params):
    world = make_world([], tool_table={"x": "cup"})
    mock = MockPerception(world, params, seed=4, sigma=0.5)
    assert mock.score_affordance("tool:drink:cup") == mock.score_affordance("tool:drink:cup")


def test_infer_unseen_label(params):
    world = make_world(
        [],
        container_table={
            "I want something cold to drink": "fridge",
            "I want to close up delivery boxes tightly": "drawer",
        },
    )
    mock = noiseless(world, params)
    frame, _ = observe(world)
    assert mock.infer_unseen_label("I want something cold to drink", frame) == "fridge"
    assert mock.infer_unseen_label("I want to close up delivery boxes tightly", frame) == "drawer"
    with pytest.raises(ReasonerError):
        mock.infer_unseen_label("unmapped", frame)


def test_frame_world_anchor_inverts_projection():
    world = make_world([obj("c1", "cup", "drink", 14.0, 25.0)])
    frame, projections = observe(world)
    ax, ay = frame.world_anchor(projections[0].box)
    assert ax == pytest.approx(14.0, abs=0.1)
    assert ay == pytest.approx(25.0, abs=0.1)


# --- crop resolution against the IoU oracle ----------------------------------


@st.composite
def boxes(draw):
    x0, y0 = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    return Region(x0, y0, x0 + draw(st.integers(0, 8)), y0 + draw(st.integers(0, 8)))


@st.composite
def parted_projection(draw, label):
    box = draw(boxes())
    split = draw(st.integers(box.y_min, box.y_max))
    with_parts = draw(st.booleans())
    return projected(
        box,
        handle=Region(box.x_min, split, box.x_max, box.y_max) if with_parts else None,
        body=Region(box.x_min, box.y_min, box.x_max, split) if with_parts else None,
        label=label,
    )


def iou_oracle_tag(projections, crop):
    """The first object, handle or body of greatest IoU above 0.05."""
    best_score, best_tag = 0.05, None
    for proj in projections:
        for box, suffix in ((proj.box, ""), (proj.handle, "::op"), (proj.body, "::fn")):
            if box is not None and iou(crop, box) > best_score:
                best_score, best_tag = iou(crop, box), proj.label + suffix
    return best_tag


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(*(parted_projection(f"o{i}") for i in range(n)))
    ),
    st.lists(boxes(), min_size=1, max_size=4),
)
def test_crop_resolution_matches_the_iou_oracle(projections, crops):
    world = make_world([])
    world.observed = ("frame:t:0", list(projections))
    mock = noiseless(world, ConfigParams())
    for crop in crops:
        ref = f"frame:t:0#crop:{crop.x_min},{crop.y_min},{crop.x_max},{crop.y_max}"
        assert mock.resolve(ref).tag == iou_oracle_tag(projections, crop)



# The value types a tick builds, each with: its fields by keyword, its repr,
# another value of its first field (for eq/hash and ``dataclasses.replace``),
# and each rejected input, as keyword changes, with its exact message.
_HOT_VALUES = [
    (
        SimilarityScore,
        {"value": 0.25},
        "SimilarityScore(value=0.25)",
        0.5,
        [
            ({"value": -0.1}, "similarity -0.1 outside [0, 1)"),
            ({"value": 1.0}, "similarity 1.0 outside [0, 1)"),
            ({"value": math.nan}, "similarity nan outside [0, 1)"),
            ({"value": math.inf}, "similarity inf outside [0, 1)"),
        ],
    ),
    (
        Region,
        {"x_min": 1, "y_min": 2, "x_max": 5, "y_max": 7},
        "Region(x_min=1, y_min=2, x_max=5, y_max=7)",
        0,
        [
            ({"x_min": -1}, "negative region coordinates: Region(x_min=-1, y_min=2, x_max=5, y_max=7)"),
            ({"y_min": -3}, "negative region coordinates: Region(x_min=1, y_min=-3, x_max=5, y_max=7)"),
            # Negative and inverted at once: the negative coordinate is named.
            ({"x_min": -1, "x_max": -2}, "negative region coordinates: Region(x_min=-1, y_min=2, x_max=-2, y_max=7)"),
            ({"x_min": 6}, "inverted region bounds: Region(x_min=6, y_min=2, x_max=5, y_max=7)"),
            ({"y_max": 1}, "inverted region bounds: Region(x_min=1, y_min=2, x_max=5, y_max=1)"),
        ],
    ),
    (
        Detection,
        {"label": "cup", "box": Region(0, 0, 4, 4), "confidence": 0.5, "rank": 1},
        "Detection(label='cup', box=Region(x_min=0, y_min=0, x_max=4, y_max=4), confidence=0.5, rank=1)",
        "mug",
        [
            ({"confidence": 1.5}, "confidence 1.5 outside [0, 1]"),
            ({"confidence": -0.1}, "confidence -0.1 outside [0, 1]"),
            ({"confidence": math.nan}, "confidence nan outside [0, 1]"),
            ({"rank": 0}, "rank must be >= 1, got 0"),
            # Both out: the confidence is named.
            ({"confidence": 2.0, "rank": -1}, "confidence 2.0 outside [0, 1]"),
        ],
    ),
    (
        SceneFrame,
        {
            "image": "frame:w:3",
            "width": 800,
            "height": 600,
            "timestamp": 300.0,
            "robot_x": 20.0,
            "robot_y": 32.0,
            "pixels_per_unit": 20.0,
        },
        "SceneFrame(image='frame:w:3', width=800, height=600, timestamp=300.0,"
        " robot_x=20.0, robot_y=32.0, pixels_per_unit=20.0)",
        "frame:w:4",
        [
            ({"width": 0}, "frame dimensions must be positive"),
            ({"height": -1}, "frame dimensions must be positive"),
        ],
    ),
    (
        ProjectedObject,
        {
            "object_id": "o1",
            "label": "cup",
            "affordance_class": "drink",
            "box": Region(0, 0, 4, 4),
            "handle": Region(0, 2, 4, 4),
            "body": None,
            "distance": 3.5,
            "visibility": BLURRED,
        },
        "ProjectedObject(object_id='o1', label='cup', affordance_class='drink',"
        " box=Region(x_min=0, y_min=0, x_max=4, y_max=4),"
        " handle=Region(x_min=0, y_min=2, x_max=4, y_max=4), body=None, distance=3.5, visibility='blurred')",
        "o2",
        [],
    ),
]


@pytest.mark.parametrize(
    ("cls", "fields", "shown", "other", "rejected"), _HOT_VALUES, ids=[row[0].__name__ for row in _HOT_VALUES]
)
def test_a_hot_value_type_is_a_checked_immutable_value(cls, fields, shown, other, rejected):
    import copy
    import dataclasses
    import pickle

    value = cls(**fields)
    assert [f.name for f in dataclasses.fields(cls)] == list(fields)
    assert repr(value) == shown
    assert cls(*fields.values()) == value and hash(cls(**fields)) == hash(value)
    assert not hasattr(value, "__dict__")
    first = next(iter(fields))
    changed = dataclasses.replace(value, **{first: other})
    assert changed == cls(**{**fields, first: other}) and changed != value
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, first, other)
    assert getattr(value, first) == fields[first]
    for copied in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is cls and copied == value and repr(copied) == shown
    for change, message in rejected:
        for build in (lambda: cls(**{**fields, **change}), lambda: dataclasses.replace(value, **change)):
            with pytest.raises(ValueError) as exc:
                build()
            assert str(exc.value) == message
