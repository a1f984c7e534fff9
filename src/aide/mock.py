"""Simulator-backed mock perception.

Every response is a pure function of (seed, scene, query): noise comes from
hashing the query key rather than from shared RNG state, so identical calls
return identical values. One kernel draws all of it: ``key_normal(key)``, the
standard normal at the key's 64-bit blake2b digest (``digest_normal``), which
``detect``, ``similarity`` and ``score_affordance`` call directly and scale by
their noise. What the mock caches are memos of those functions:
catalog and text references per instance, and the current frame's projection
coordinates and crop resolutions per frame; a frame's memo starts from the
catalog and text ones. A frame's cache is built whole
when the world's observed frame changes and swapped in by one assignment, so
concurrent queries need no locking; a query that races ``observe`` answers
for whichever frame it saw, as an uncached one would.

Reference grammar resolved by this backend:

  frame:<world>:<tick>              the world's current frame (``SceneFrame.image``)
  frame:...#crop:x0,y0,x1,y1        a crop of that frame
  tool:<class>:<label>              a catalog tool image
  tool:<class>:<label>#op / #fn     the catalog operational / functional crop
  container:<label>                 a catalog container image
  anything else                     plain text

A frame reference resolves only while its frame is the world's current one.

Confidence model: ``base * visibility * exp(-distance / 5) + noise`` with
base 1.0 on a vocabulary match and 0.25 otherwise, visibility 1.0 when visible
and 0.4 when blurred. Similarity model: 0.95, minus 0.5 on an affordance-class
mismatch, minus 0.2 on a label or part mismatch within the same class, minus
0.05 when either side is blurred, plus noise, clamped to [0, 1 - 1e-6].
"""

from __future__ import annotations

import functools
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
    PART_VOCABULARY,
    Detection,
    PerceptionBackend,
    ReasonerError,
    SceneFrame,
    SimilarityScore,
    ToolHypothesis,
    UnknownReferenceError,
)
from .simulator import BLURRED, ProjectedObject, World

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


@dataclass(frozen=True, slots=True)
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


# The largest float below 1; see ``digest_normal``.
_U_MAX = 1.0 - 2.0**-53
_INV_CDF = NormalDist().inv_cdf
# An empty 64-bit blake2b state; copying it is cheaper than a new hasher.
_BLAKE2B_64 = hashlib.blake2b(digest_size=8)
# Bound once: looking ``from_bytes`` up on ``int`` costs about as much as the call.
_from_bytes = int.from_bytes


def digest_normal(digest: int) -> float:
    """Standard normal from a 64-bit digest: the inverse normal CDF at
    ``(digest + 0.5) / 2**64``.

    The top 1,024 digests round that to 1.0, where the CDF has no inverse;
    they map to the largest float below 1 instead.
    """
    u = (digest + 0.5) / 2.0**64
    return _INV_CDF(u if u < 1.0 else _U_MAX)


def key_normal(key: str) -> float:
    """Standard normal keyed by a string, a pure function and not an RNG:
    ``digest_normal`` of the key's 64-bit blake2b digest.

    This is the mock's one noise kernel; every confidence, similarity and
    affordance draw goes through it.
    """
    hasher = _BLAKE2B_64.copy()
    hasher.update(key.encode())
    return digest_normal(_from_bytes(hasher.digest(), "big"))


def _clamp(value: float, low: float, high: float) -> float:
    """``min(max(value, low), high)``, with no builtin call."""
    return low if value < low else high if value > high else value


def _resolve_fixed(ref: str) -> _Resolved:
    """What a reference to no frame names: a catalog image, or plain text."""
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


@functools.lru_cache(maxsize=1024)
def _shown(affordance_class: str, tag: str, blurred: bool) -> _Resolved:
    """What a crop of a shown object or part resolves to. Cached across
    frames: each frame's memo starts without its crops, and a frozen
    ``_Resolved`` takes several times as long to build as to look up."""
    return _Resolved(kind="image", affordance_class=affordance_class, tag=tag, blurred=blurred)


_NO_OBJECT = _Resolved(kind="image")
_WHOLE_FRAME = _Resolved(kind="image", tag="__frame__")

# One shown part of a projection: its pixel box, area and tag suffix.
_Part = tuple[int, int, int, int, int, str]


def _parts(proj: ProjectedObject) -> tuple[_Part, ...]:
    """The object's box, handle and body, in that order, each one shown."""
    parts = []
    for box, suffix in ((proj.box, ""), (proj.handle, "::op"), (proj.body, "::fn")):
        if box is not None:
            x0, y0, x1, y1 = box.x_min, box.y_min, box.x_max, box.y_max
            parts.append((x0, y0, x1, y1, (x1 - x0) * (y1 - y0), suffix))
    return tuple(parts)


class _Frame:
    """The world's observed frame as the mock reads it, built once per frame.

    ``shown`` holds, per projection in order, the projection, its visibility
    factor and distance decay, and its parts; ``refs`` memoizes every
    reference resolved while this frame is current, starting from the
    references to no frame resolved so far (``fixed``), which resolve the same
    in every frame.
    """

    __slots__ = ("observed", "image", "shown", "refs")

    def __init__(
        self, observed: tuple[str, list[ProjectedObject]] | None, fixed: dict[str, _Resolved]
    ) -> None:
        self.observed = observed
        self.image = None if observed is None else observed[0]
        self.shown = [
            (
                proj,
                _VIS_FACTOR[proj.visibility],
                math.exp(-proj.distance / _CONFIDENCE_LAMBDA),
                _parts(proj),
            )
            for proj in (() if observed is None else observed[1])
        ]
        self.refs = dict(fixed)

    def check(self, ref: str) -> None:
        """Raise unless ``ref`` names this frame."""
        base = ref.split("#", 1)[0]
        if self.image is None or base != self.image:
            raise UnknownReferenceError(f"unknown frame reference {base!r}")

    def resolve(self, ref: str) -> _Resolved:
        """What a ``frame:`` reference shows."""
        if "#crop:" not in ref:
            self.check(ref)
            return _WHOLE_FRAME
        frame_part, coords = ref.split("#crop:", 1)
        try:
            x0, y0, x1, y1 = map(int, coords.split(","))
        except ValueError as exc:
            raise UnknownReferenceError(f"bad crop reference {ref!r}") from exc
        if x0 < 0 or y0 < 0 or x0 > x1 or y0 > y1:
            raise UnknownReferenceError(f"bad crop reference {ref!r}")
        self.check(frame_part)
        return self.resolve_box(x0, y0, x1, y1)

    def object_at(self, image: str, box: Region) -> ProjectedObject | None:
        """The object whose box overlaps ``box`` most, above IoU
        ``_MIN_OVERLAP``; on a tie the first in projection order."""
        self.check(image)
        best_score, best = _MIN_OVERLAP, None
        for proj, _, _, _ in self.shown:
            score = iou(box, proj.box)
            if score > best_score:
                best_score, best = score, proj
        return best

    def resolve_box(self, x0: int, y0: int, x1: int, y1: int) -> _Resolved:
        """What a crop shows: the object, handle or body it overlaps most.

        An overlap must exceed IoU ``_MIN_OVERLAP``; on a tie the first in
        projection order, and within one object in box, handle, body order,
        wins. The IoU is ``geometry.iou``'s, on coordinates.
        """
        area = (x1 - x0) * (y1 - y0)
        best_score, best, best_suffix = _MIN_OVERLAP, None, ""
        for proj, _, _, parts in self.shown:
            for px0, py0, px1, py1, part_area, suffix in parts:
                if x0 == px0 and y0 == py0 and x1 == px1 and y1 == py1:
                    score = 1.0
                else:
                    ix0 = x0 if x0 > px0 else px0
                    ix1 = x1 if x1 < px1 else px1
                    if ix0 > ix1:
                        continue
                    iy0 = y0 if y0 > py0 else py0
                    iy1 = y1 if y1 < py1 else py1
                    if iy0 > iy1:
                        continue
                    inter = (ix1 - ix0) * (iy1 - iy0)
                    union = area + part_area - inter
                    if union <= 0:
                        continue
                    score = inter / union
                if score > best_score:
                    best_score, best, best_suffix = score, proj, suffix
        if best is None:
            return _NO_OBJECT
        return _shown(best.affordance_class, best.label + best_suffix, best.visibility == BLURRED)


class MockPerception(PerceptionBackend):
    def __init__(self, world: World, params: ConfigParams, seed: int = 0, sigma: float = DEFAULT_SIGMA):
        if not sigma >= 0.0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        self.world = world
        self.params = params
        self.sigma = sigma
        # Catalog and text references resolve the same in every frame, so
        # they outlive the frame's memo.
        self._fixed: dict[str, _Resolved] = {}
        self._frame = _Frame(None, self._fixed)
        # Every noise key ends in the seed, so it is formatted once.
        self._key_suffix = f"|{seed}"

    # -- frame and reference resolution --------------------------------------

    def _current_frame(self) -> _Frame:
        """The world's observed frame, rebuilt when ``observe`` has moved on."""
        frame, observed = self._frame, self.world.observed
        if frame.observed is not observed:
            frame = self._frame = _Frame(observed, self._fixed)
        return frame

    def resolve(self, ref: str) -> _Resolved:
        """What ``ref`` shows in the current frame, memoized per frame."""
        frame = self._current_frame()
        resolved = frame.refs.get(ref)
        if resolved is None:
            if ref.startswith("frame:"):
                resolved = frame.resolve(ref)
            else:
                resolved = self._fixed.get(ref)
                if resolved is None:
                    resolved = self._fixed[ref] = _resolve_fixed(ref)
            frame.refs[ref] = resolved
        return resolved

    # -- capabilities ---------------------------------------------------------

    def detect(self, frame: SceneFrame, vocabulary: list[str], k: int) -> list[Detection]:
        if k < 1:
            raise ValueError("k must be >= 1")
        if not vocabulary:
            return []
        current = self._current_frame()
        current.check(frame.image)
        part_terms = [t for t in vocabulary if t in PART_VOCABULARY]
        object_terms = [t for t in vocabulary if t not in PART_VOCABULARY]
        fallback_term = min(object_terms) if object_terms else None
        image, suffix, sigma = frame.image, self._key_suffix, self.sigma

        raw: list[tuple[float, str, str, Region]] = []
        for proj, vis, decay, _ in current.shown:
            if object_terms:
                if proj.label in object_terms:
                    term, base = proj.label, _BASE_MATCH
                else:
                    term, base = fallback_term, _BASE_MISMATCH
                conf = base * vis * decay
                if sigma:
                    conf += key_normal(f"det|{image}|{proj.object_id}|{term}{suffix}") * 0.04 * sigma
                raw.append((_clamp(conf, 0.0, 1.0), proj.object_id, term, proj.box))
            for term in part_terms:
                part_box = proj.handle if term == "handle" else proj.body
                if part_box is None:
                    continue
                conf = _BASE_MATCH * vis * decay
                if sigma:
                    conf += key_normal(f"det|{image}|{proj.object_id}|{term}{suffix}") * 0.04 * sigma
                raw.append((_clamp(conf, 0.0, 1.0), proj.object_id, term, part_box))

        raw.sort(key=lambda t: (-t[0], t[1], t[2]))
        return [
            Detection(term, box, conf, i + 1)
            for i, (conf, _, term, box) in enumerate(raw[:k])
        ]

    def similarity(self, a: str, b: str) -> SimilarityScore:
        if a == b:
            return SimilarityScore(SIMILARITY_CAP)
        # Both references are read from the current frame's memo inline;
        # only a miss calls ``resolve``.
        frame = self._frame
        if frame.observed is not self.world.observed:
            frame = self._current_frame()
        refs = frame.refs
        ra = refs.get(a) or self.resolve(a)
        rb = refs.get(b) or self.resolve(b)
        if ra.kind == "text" and rb.kind == "text":
            value = self._text_similarity(ra.text, rb.text)
            return SimilarityScore(_clamp(value, 0.0, SIMILARITY_CAP))
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
        sigma = self.sigma
        if sigma:
            first, second = (b, a) if b < a else (a, b)
            value += key_normal(f"sim|{first}|{second}{self._key_suffix}") * 0.04 * sigma
        return SimilarityScore(_clamp(value, 0.0, SIMILARITY_CAP))

    def _text_similarity(self, a: str | None, b: str | None) -> float:
        a, b = a or "", b or ""
        for table in (self.world.tool_table, self.world.container_table):
            if table.get(a) == b or table.get(b) == a:
                return _TABLE_TEXT_MATCH
        return token_cosine(a, b)

    def propose_tool(self, instruction: str, frame: SceneFrame) -> ToolHypothesis:
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
        current = self._current_frame()
        for idx, det in enumerate(candidates):
            proj = current.object_at(frame.image, det.box)
            if proj is not None and proj.label == hypothesis.label:
                return idx
        return 0

    def segment_regions(self, tool: Detection, frame: SceneFrame) -> tuple[Region, Region]:
        frame_box = Region(0, 0, frame.width, frame.height)
        if not frame_box.contains(tool.box):
            raise ValueError("tool box must lie within the frame")
        proj = self._current_frame().object_at(frame.image, tool.box)
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
            value = base + key_normal(f"aff|{subject}|{i}{self._key_suffix}") * self.sigma
            scores.append(_clamp(value, 0.0, 10.0))
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
