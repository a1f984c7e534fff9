"""The mock's noise and scores as they were first written: each draw hashes
the key with a new blake2b and goes through ``NormalDist().inv_cdf``, each
score through its own noise helper. ``aide.mock``, which copies one empty
hasher state, reads references from its frame memo and scales the noise inside
``detect`` and ``similarity``, must give the same values, bit for bit."""

from __future__ import annotations

import hashlib
import math
from statistics import NormalDist

U_MAX = math.nextafter(1.0, 0.0)
SIMILARITY_CAP = 1.0 - 1e-6
VISIBILITY = {"visible": 1.0, "blurred": 0.4}
PARTS = ("handle", "body")


def digest_normal(digest: int) -> float:
    u = (digest + 0.5) / 2.0**64
    return NormalDist().inv_cdf(u if u < 1.0 else U_MAX)


def key_normal(key: str) -> float:
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return digest_normal(int.from_bytes(digest, "big"))


def score_noise(key: str, sigma: float) -> float:
    if sigma == 0.0:
        return 0.0
    return key_normal(key) * 0.04 * sigma


def clamp(value: float, low: float, high: float) -> float:
    return min(max(value, low), high)


def tokens(text: str) -> set[str]:
    return set("".join(c.lower() if c.isalnum() else " " for c in text).split())


def token_cosine(a: str, b: str) -> float:
    ta, tb = tokens(a), tokens(b)
    if not ta or not tb:
        return 0.0
    return len(ta & tb) / math.sqrt(len(ta) * len(tb))


def similarity(mock, a: str, b: str, seed: int, sigma: float) -> float:
    """``MockPerception.similarity(a, b).value``; references resolve through
    the mock's own ``resolve``."""
    if a == b:
        return SIMILARITY_CAP
    ra, rb = mock.resolve(a), mock.resolve(b)
    if ra.kind == "text" and rb.kind == "text":
        for table in (mock.world.tool_table, mock.world.container_table):
            if table.get(ra.text) == rb.text or table.get(rb.text) == ra.text:
                return 0.9
        return clamp(token_cosine(ra.text, rb.text), 0.0, SIMILARITY_CAP)
    if ra.kind != rb.kind:
        text = ra.text if ra.kind == "text" else rb.text
        tag = (rb.tag if ra.kind == "text" else ra.tag) or ""
        return min(max(token_cosine(text or "", tag.replace("::", " ")), 0.0) * 0.8, SIMILARITY_CAP)
    if ra.tag is None or rb.tag is None:
        return 0.3
    value = 0.95
    if ra.affordance_class != rb.affordance_class:
        value -= 0.5
    if ra.tag != rb.tag:
        value -= 0.2
    if ra.blurred or rb.blurred:
        value -= 0.05
    first, second = sorted((a, b))
    value += score_noise(f"sim|{first}|{second}|{seed}", sigma)
    return clamp(value, 0.0, SIMILARITY_CAP)


def detections(image: str, projections, vocabulary: list[str], k: int, seed: int, sigma: float):
    """``MockPerception.detect``'s answer as (label, box, confidence) rows, in rank order."""
    parts = [t for t in vocabulary if t in PARTS]
    objects = [t for t in vocabulary if t not in PARTS]
    raw = []
    for proj in projections:
        vis = VISIBILITY[proj.visibility]
        decay = math.exp(-proj.distance / 5.0)
        if objects:
            term, base = (proj.label, 1.0) if proj.label in objects else (min(objects), 0.25)
            conf = base * vis * decay + score_noise(f"det|{image}|{proj.object_id}|{term}|{seed}", sigma)
            raw.append((clamp(conf, 0.0, 1.0), proj.object_id, term, proj.box))
        for term in parts:
            box = proj.handle if term == "handle" else proj.body
            if box is not None:
                conf = vis * decay + score_noise(f"det|{image}|{proj.object_id}|{term}|{seed}", sigma)
                raw.append((clamp(conf, 0.0, 1.0), proj.object_id, term, box))
    raw.sort(key=lambda row: (-row[0], row[1], row[2]))
    return [(term, box, conf) for conf, _, term, box in raw[:k]]
