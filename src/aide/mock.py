"""Simulator-backed mock perception.

Every response is a pure function of (seed, scene, query): noise comes from
hashing the query key rather than from shared RNG state, so identical calls
return identical values and concurrent use needs no locking.

Reference grammar resolved by this backend:

  frame:<world>:<tick>              the world's current frame (``SceneFrame.image``)
  frame:...#crop:x0,y0,x1,y1        a crop of that frame
  tool:<class>:<label>              a catalog tool image
  tool:<class>:<label>#op / #fn     the catalog operational / functional crop
  container:<label>                 a catalog container image
  anything else                     plain text

Confidence model: ``base * visibility * exp(-distance / 5) + noise`` with
base 1.0 on a vocabulary match and 0.25 otherwise, visibility 1.0 when visible
and 0.4 when blurred. Similarity model: 0.95, minus 0.5 on an affordance-class
mismatch, minus 0.2 on a label or part mismatch within the same class, minus
0.05 when either side is blurred, plus noise, clamped to [0, 1 - 1e-6].
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from statistics import NormalDist

from .affordance import (
    AffordanceVector,
    class_centroid,
    label_class,
    neutral_vector,
)
from .config import ConfigParams
from .geometry import Region, iou, vertical_halves
from .perception import (
    Detection,
    PerceptionBackend,
    ReasonerError,
    SceneFrame,
    SimilarityScore,
    ToolHypothesis,
    UnknownReferenceError,
)
from .simulator import BLURRED, ProjectedObject, World

_PART_TERMS = ("handle", "body")

# Default noise scale; 0 disables noise.
DEFAULT_SIGMA = 0.5

_BASE_MATCH = 1.0
_BASE_MISMATCH = 0.25
_VIS_FACTOR = {"visible": 1.0, BLURRED: 0.4}
_CONFIDENCE_LAMBDA = 5.0  # world distance over which confidence falls by 1/e

_SIM_BASE = 0.95
_CLASS_MISMATCH_PENALTY = 0.5
_TAG_MISMATCH_PENALTY = 0.2
_BLUR_PENALTY = 0.05
_TABLE_TEXT_MATCH = 0.9
_UNRESOLVED_CROP_SIM = 0.3
SIMILARITY_CAP = 1.0 - 1e-6  # no two references score a full 1
# A box shows an object, handle or body only when their IoU exceeds this.
_MIN_OVERLAP = 0.05


@dataclass(frozen=True)
class _Resolved:
    """Normalized meaning of a reference: its class, identity tag and blur state."""

    kind: str  # "image" or "text"
    affordance_class: str | None = None
    tag: str | None = None
    blurred: bool = False
    text: str | None = None


def _tokens(text: str) -> frozenset[str]:
    return frozenset(
        t for t in "".join(c.lower() if c.isalnum() else " " for c in text).split() if t
    )


def token_cosine(a: str, b: str) -> float:
    """Set-based token overlap cosine; the mock stand-in for a text embedder."""
    ta, tb = _tokens(a), _tokens(b)
    if not ta or not tb:
        return 0.0
    return len(ta & tb) / math.sqrt(len(ta) * len(tb))


_NORMAL = NormalDist()


class MockPerception(PerceptionBackend):
    def __init__(self, world: World, params: ConfigParams, seed: int = 0, sigma: float = DEFAULT_SIGMA):
        if not sigma >= 0.0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        self.world = world
        self.params = params
        self.sigma = sigma
        self._resolve_cache: dict[str, _Resolved] = {}
        # Every noise key ends in the seed, so it is formatted once.
        self._key_suffix = f"|{seed}"

    # -- deterministic noise ------------------------------------------------

    def _noise(self, *key: object) -> float:
        """Standard normal keyed by (seed, query); a pure function, not an RNG."""
        digest = hashlib.blake2b(
            ("|".join(map(str, key)) + self._key_suffix).encode("utf-8"),
            digest_size=8,
        ).digest()
        u = (int.from_bytes(digest, "big") + 0.5) / 2.0**64
        return _NORMAL.inv_cdf(u)

    def _score_noise(self, *key: object) -> float:
        if self.sigma == 0.0:
            return 0.0
        return self._noise(*key) * 0.04 * self.sigma

    # -- frame and reference resolution --------------------------------------

    def _projections(self, frame_image: str) -> list[ProjectedObject]:
        """The projections of the world's current frame; any other frame is
        unknown."""
        base = frame_image.split("#", 1)[0]
        observed = self.world.observed
        if observed is None or observed[0] != base:
            raise UnknownReferenceError(f"unknown frame reference {base!r}")
        return observed[1]

    def _resolve_box(self, frame_image: str, box: Region) -> _Resolved:
        """What a crop shows: the object, handle or body it overlaps most.

        An overlap must exceed IoU ``_MIN_OVERLAP``; on a tie the first in
        projection order, and within one object in box, handle, body order,
        wins.
        """
        best_score, best, best_suffix = _MIN_OVERLAP, None, ""
        for proj in self._projections(frame_image):
            score = iou(box, proj.box)
            if score > best_score:
                best_score, best, best_suffix = score, proj, ""
            if proj.handle is not None:
                score = iou(box, proj.handle)
                if score > best_score:
                    best_score, best, best_suffix = score, proj, "::op"
            if proj.body is not None:
                score = iou(box, proj.body)
                if score > best_score:
                    best_score, best, best_suffix = score, proj, "::fn"
        if best is None:
            return _Resolved(kind="image", affordance_class=None, tag=None)
        return _Resolved(
            kind="image",
            affordance_class=best.affordance_class,
            tag=best.label + best_suffix,
            blurred=best.visibility == BLURRED,
        )

    def _object_at(self, frame_image: str, box: Region) -> ProjectedObject | None:
        """The object whose box overlaps ``box`` most, above IoU
        ``_MIN_OVERLAP``; on a tie the first in projection order."""
        best_score, best = _MIN_OVERLAP, None
        for proj in self._projections(frame_image):
            score = iou(box, proj.box)
            if score > best_score:
                best_score, best = score, proj
        return best

    def resolve(self, ref: str) -> _Resolved:
        cached = self._resolve_cache.get(ref)
        if cached is not None:
            return cached
        resolved = self._resolve_uncached(ref)
        if len(self._resolve_cache) > 16384:
            self._resolve_cache.clear()
        self._resolve_cache[ref] = resolved
        return resolved

    def _resolve_uncached(self, ref: str) -> _Resolved:
        if ref.startswith("frame:"):
            if "#crop:" in ref:
                frame_part, coords = ref.split("#crop:", 1)
                try:
                    x0, y0, x1, y1 = (int(v) for v in coords.split(","))
                    box = Region(x0, y0, x1, y1)
                except (ValueError, TypeError) as exc:
                    raise UnknownReferenceError(f"bad crop reference {ref!r}") from exc
                return self._resolve_box(frame_part, box)
            self._projections(ref)  # raises if unknown
            return _Resolved(kind="image", affordance_class=None, tag="__frame__")
        if ref.startswith("tool:"):
            parts = ref.split(":", 2)
            if len(parts) != 3:
                raise UnknownReferenceError(f"bad tool reference {ref!r}")
            cls, label = parts[1], parts[2]
            suffix = ""
            if "#" in label:
                label, kind = label.split("#", 1)
                if kind not in ("op", "fn"):
                    raise UnknownReferenceError(f"bad tool crop kind in {ref!r}")
                suffix = f"::{kind}"
            return _Resolved(kind="image", affordance_class=cls, tag=label + suffix)
        if ref.startswith("container:"):
            label = ref.split(":", 1)[1]
            return _Resolved(kind="image", affordance_class="contain", tag=label)
        return _Resolved(kind="text", text=ref)

    # -- capabilities ---------------------------------------------------------

    def detect(self, frame: SceneFrame, vocabulary: list[str], k: int) -> list[Detection]:
        if k < 1:
            raise ValueError("k must be >= 1")
        if not vocabulary:
            return []
        projections = self._projections(frame.image)
        part_terms = [t for t in vocabulary if t in _PART_TERMS]
        object_terms = [t for t in vocabulary if t not in _PART_TERMS]
        fallback_term = min(object_terms) if object_terms else None

        raw: list[tuple[float, str, str, Region]] = []
        for proj in projections:
            vis = _VIS_FACTOR[proj.visibility]
            decay = math.exp(-proj.distance / _CONFIDENCE_LAMBDA)
            if object_terms:
                if proj.label in object_terms:
                    term, base = proj.label, _BASE_MATCH
                else:
                    term, base = fallback_term, _BASE_MISMATCH
                conf = base * vis * decay + self._score_noise(
                    "det", frame.image, proj.object_id, term
                )
                raw.append((min(max(conf, 0.0), 1.0), proj.object_id, term, proj.box))
            for term in part_terms:
                part_box = proj.handle if term == "handle" else proj.body
                if part_box is None:
                    continue
                conf = _BASE_MATCH * vis * decay + self._score_noise(
                    "det", frame.image, proj.object_id, term
                )
                raw.append((min(max(conf, 0.0), 1.0), proj.object_id, term, part_box))

        raw.sort(key=lambda t: (-t[0], t[1], t[2]))
        return [
            Detection(label=term, box=box, confidence=conf, rank=i + 1)
            for i, (conf, _, term, box) in enumerate(raw[:k])
        ]

    def similarity(self, a: str, b: str) -> SimilarityScore:
        if a == b:
            return SimilarityScore(SIMILARITY_CAP)
        ra, rb = self.resolve(a), self.resolve(b)
        if ra.kind == "text" and rb.kind == "text":
            value = self._text_similarity(ra.text, rb.text)
            return SimilarityScore(min(max(value, 0.0), SIMILARITY_CAP))
        if ra.kind != rb.kind:
            # Cross-modal text/image: match the text against the image tag.
            text = ra.text if ra.kind == "text" else rb.text
            tag = (rb.tag if ra.kind == "text" else ra.tag) or ""
            value = max(token_cosine(text or "", tag.replace("::", " ")), 0.0) * 0.8
            return SimilarityScore(min(value, SIMILARITY_CAP))
        if ra.tag is None or rb.tag is None:
            return SimilarityScore(_UNRESOLVED_CROP_SIM)
        value = _SIM_BASE
        if ra.affordance_class != rb.affordance_class:
            value -= _CLASS_MISMATCH_PENALTY
        if ra.tag != rb.tag:
            value -= _TAG_MISMATCH_PENALTY
        if ra.blurred or rb.blurred:
            value -= _BLUR_PENALTY
        first, second = (b, a) if b < a else (a, b)
        value += self._score_noise("sim", first, second)
        return SimilarityScore(min(max(value, 0.0), SIMILARITY_CAP))

    def _text_similarity(self, a: str | None, b: str | None) -> float:
        a, b = a or "", b or ""
        for table in (self.world.tool_table, self.world.container_table):
            if table.get(a) == b or table.get(b) == a:
                return _TABLE_TEXT_MATCH
        return token_cosine(a, b)

    def propose_tool(self, instruction: str, frame: SceneFrame) -> ToolHypothesis:
        if not instruction:
            raise ValueError("instruction must be non-empty")
        label = self.world.tool_table.get(instruction)
        if label is None:
            raise ReasonerError(f"no tool mapping for instruction {instruction!r}")
        attributes = self.world.attribute_table.get(label, ("graspable",))
        return ToolHypothesis(label=label, attributes=tuple(attributes))

    def select_candidate(
        self, hypothesis: ToolHypothesis, candidates: list[Detection], frame: SceneFrame
    ) -> int:
        if not candidates:
            raise ValueError("candidates must be non-empty")
        for idx, det in enumerate(candidates):
            proj = self._object_at(frame.image, det.box)
            if proj is not None and proj.label == hypothesis.label:
                return idx
        return 0

    def segment_regions(self, tool: Detection, frame: SceneFrame) -> tuple[Region, Region]:
        frame_box = Region(0, 0, frame.width, frame.height)
        if not frame_box.contains(tool.box):
            raise ValueError("tool box must lie within the frame")
        proj = self._object_at(frame.image, tool.box)
        if proj is not None and proj.handle is not None and proj.body is not None:
            operational = proj.handle.intersection(tool.box)
            functional = proj.body.intersection(tool.box)
            if operational is not None and functional is not None:
                return operational, functional
        return vertical_halves(tool.box)

    def score_affordance(self, subject: str) -> AffordanceVector:
        cls = self._subject_class(subject)
        dims = self.params.X
        if cls is None:
            return neutral_vector(dims)
        centroid = class_centroid(cls, dims)
        if self.sigma == 0.0:
            return centroid
        scores = []
        for i, base in enumerate(centroid.scores):
            value = base + self._noise("aff", subject, i) * self.sigma
            scores.append(min(max(value, 0.0), 10.0))
        return AffordanceVector(tuple(scores))

    def _subject_class(self, subject: str) -> str | None:
        if subject.startswith(("frame:", "tool:", "container:")):
            resolved = self.resolve(subject)
            return resolved.affordance_class
        label = self.world.tool_table.get(subject)
        if label is None:
            return None
        for obj in self.world.objects.values():
            if obj.label == label:
                return obj.affordance_class
        return label_class(label)

    def infer_unseen_label(self, instruction: str, frame: SceneFrame) -> str:
        label = self.world.container_table.get(instruction)
        if label is None:
            raise ReasonerError(f"no container mapping for instruction {instruction!r}")
        return label
