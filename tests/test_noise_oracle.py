from __future__ import annotations

import pytest
from noise_oracle import detections, digest_normal, key_normal, similarity

from aide import mock as mock_module
from aide.config import ConfigParams
from aide.mock import MockPerception
from aide.perception import PART_VOCABULARY, crop_reference
from aide.simulator import fresh_world, observe, scripted_scenarios

SEED = 100
WORLDS = scripted_scenarios()


def test_key_normal_matches_the_oracle_on_a_sweep_of_keys():
    keys = [f"sim|frame:w:{i}#crop:{i},{2 * i},{3 * i},{4 * i}|tool:drink:cup|{i % 7}" for i in range(2000)]
    keys += ["", "|0", "det|é|ü|∑", "x" * 300]
    for key in keys:
        assert mock_module.key_normal(key) == key_normal(key), key


def test_digest_normal_matches_the_oracle_on_the_top_digests_and_a_sweep():
    # The top 1,024 digests round u to 1.0 and take the largest u below 1.
    top = range(2**64 - 1024, 2**64)
    sweep = range(0, 2**64, 2**64 // 4099)
    for digest in (*top, *sweep, 2**64 - 1025, 2**63):
        assert mock_module.digest_normal(digest) == digest_normal(digest), digest


def _catalog(world) -> list[str]:
    refs = []
    for obj in world.objects.values():
        image = f"tool:{obj.affordance_class}:{obj.label}"
        refs += [image, f"{image}#op", f"{image}#fn", f"container:{obj.label}", obj.label]
    return refs + [world.instruction, *world.tool_table.values()]


def _crops(frame, projections) -> list[str]:
    crops = [frame.image]
    for proj in projections:
        for box in (proj.box, proj.handle, proj.body):
            if box is not None:
                crops.append(crop_reference(frame, box))
    return crops


@pytest.mark.parametrize("sigma", [0.5, 0.0])
@pytest.mark.parametrize("world_id", sorted(WORLDS))
def test_every_similarity_on_a_first_frame_matches_the_oracle(world_id, sigma):
    world = fresh_world(WORLDS[world_id])
    frame, projections = observe(world)
    backend = MockPerception(world, ConfigParams(), seed=SEED, sigma=sigma)
    crops, catalog = _crops(frame, projections), _catalog(world)
    pairs = [(crop, ref) for crop in crops for ref in catalog]
    pairs += [(ref, crop) for crop, ref in pairs[::5]] + [(crops[-1], crops[-1])]
    for a, b in pairs:
        assert backend.similarity(a, b).value == similarity(backend, a, b, SEED, sigma), (a, b)


@pytest.mark.parametrize("sigma", [0.5, 0.0])
@pytest.mark.parametrize("world_id", sorted(WORLDS))
def test_detect_confidences_on_a_first_frame_match_the_oracle(world_id, sigma):
    world = fresh_world(WORLDS[world_id])
    frame, projections = observe(world)
    backend = MockPerception(world, ConfigParams(), seed=SEED, sigma=sigma)
    labels = sorted({obj.label for obj in world.objects.values()})
    for vocabulary in (labels, labels[:1], [*labels, *PART_VOCABULARY], list(PART_VOCABULARY)):
        got = [(d.label, d.box, d.confidence) for d in backend.detect(frame, vocabulary, 40)]
        assert got == detections(frame.image, projections, vocabulary, 40, SEED, sigma), vocabulary
