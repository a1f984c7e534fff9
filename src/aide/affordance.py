"""Affordance vectors and the synthetic affordance-class catalog.

A vector scores one tool or one instruction on a fixed set of physical and
functional dimensions (default 19: color complexity, glossiness, shape design,
symmetry, surface smoothness, material, handle design, capacity, opening size,
stability, transparency, flexibility, volume, aspect ratio, durability,
maintenance, safety, ease of use, portability). Scores live in [0, 10].

The catalog maps affordance classes to tool labels and container labels and
provides one deterministic centroid per class; both the corpus generator and
the mock scorer sample around those centroids so retrieval distances behave
like a clustered production corpus.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

DIMENSION_COUNT = 19
SCORE_MIN = 0.0
SCORE_MAX = 10.0

# Minimum pairwise centroid separation, in affordance units. Keeps class blobs
# resolvable at the default retrieval radius (c=10) and filter radius (D=25).
_MIN_CENTROID_SEPARATION = 12.0

# Centroids also keep clear of the neutral mid-scale vector, so subjects with
# no known class (scored as all fives) stay outside every retrieval radius.
_MIN_NEUTRAL_SEPARATION = 14.0

# Rejection draws per class centroid before giving up. The 8 default classes
# need at most 16 at X = 19 and 21,037 at X = 12; where the separations leave
# only the corners of [0, 10]^X (X = 8 to 11), the cap turns an endless
# redraw into a ValueError within seconds.
_MAX_CENTROID_DRAWS = 50_000


class DimensionMismatchError(ValueError):
    """Two vectors of different dimensionality were combined."""


@dataclass(frozen=True)
class AffordanceVector:
    scores: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.scores:
            raise ValueError("affordance vector must have at least one dimension")
        for s in self.scores:
            if not SCORE_MIN <= s <= SCORE_MAX:  # also false for NaN
                if not math.isfinite(s):
                    raise ValueError(f"non-finite affordance score: {s}")
                raise ValueError(f"affordance score {s} outside [{SCORE_MIN}, {SCORE_MAX}]")

    def __len__(self) -> int:
        return len(self.scores)

    def as_list(self) -> list[float]:
        return list(self.scores)


def vector(values: Iterable[float]) -> AffordanceVector:
    return AffordanceVector(tuple(float(v) for v in values))


def euclidean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The one affordance distance, Euclidean over the last axis and broadcasting,
    so a scalar check and an array scan never disagree at ``distance == radius``."""
    return np.sqrt(((np.asarray(a, dtype=float) - b) ** 2).sum(axis=-1))


def distance(u: AffordanceVector, v: AffordanceVector) -> float:
    """Euclidean distance between two equal-length vectors."""
    if len(u.scores) != len(v.scores):
        raise DimensionMismatchError(
            f"vector dimensions differ: {len(u.scores)} vs {len(v.scores)}"
        )
    return float(euclidean(u.scores, v.scores))


# --- class catalog -----------------------------------------------------------

CLASS_TOOL_LABELS: dict[str, tuple[str, ...]] = {
    "drink": ("cup", "bottle", "mug", "glass", "coke"),
    "clean": ("brush", "cloth", "mop", "sponge"),
    "strike": ("hammer", "mallet"),
    "support": ("pillow", "cushion"),
    "fasten": ("tape", "stapler", "glue"),
    "cut": ("knife", "scissors"),
    "heat": ("kettle", "pan"),
    "contain": ("box", "basket", "fridge", "drawer", "cabinet"),
}

CONTAINER_FOR_CLASS: dict[str, str] = {
    "drink": "fridge",
    "clean": "cabinet",
    "strike": "drawer",
    "support": "cabinet",
    "fasten": "drawer",
    "cut": "drawer",
    "heat": "cabinet",
    "contain": "cabinet",
}

CONTAINER_LABELS: tuple[str, ...] = ("fridge", "drawer", "cabinet")

LABEL_CLASS: dict[str, str] = {
    label: cls for cls, labels in CLASS_TOOL_LABELS.items() for label in labels
}

# Word pools feed synthetic instruction text; same-class instructions share
# vocabulary so the text-similarity retrieval baseline has real signal.
CLASS_WORDS: dict[str, tuple[str, ...]] = {
    "drink": ("thirsty", "sip", "beverage", "refresh", "pour"),
    "clean": ("dust", "wipe", "tidy", "scrub", "dirt"),
    "strike": ("crack", "pound", "drive", "smash", "nail"),
    "support": ("lean", "rest", "cushion", "prop", "comfort"),
    "fasten": ("seal", "attach", "stick", "bind", "close"),
    "cut": ("slice", "trim", "chop", "snip", "carve"),
    "heat": ("warm", "boil", "cook", "simmer", "toast"),
    "contain": ("store", "stow", "hold", "pack", "keep"),
}


def class_names(count: int | None = None) -> tuple[str, ...]:
    """The first ``count`` class names, padding with synthetic names if needed."""
    base = tuple(CLASS_TOOL_LABELS)
    if count is None or count == len(base):
        return base
    if count < len(base):
        return base[:count]
    extra = tuple(f"class{i:02d}" for i in range(len(base), count))
    return base + extra


def _seed_from(text: str) -> int:
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@lru_cache(maxsize=None)
def _catalog_centroids(names: tuple[str, ...], dims: int) -> dict[str, AffordanceVector]:
    """Deterministic class centroids with a guaranteed minimum separation."""
    half_span = (SCORE_MAX - SCORE_MIN) / 2.0
    if half_span * np.sqrt(dims) < _MIN_NEUTRAL_SEPARATION:  # even the corners lie too near
        least = int(np.ceil((_MIN_NEUTRAL_SEPARATION / half_span) ** 2))
        raise ValueError(
            f"class centroids need X >= {least}: at X = {dims} no score vector lies"
            f" {_MIN_NEUTRAL_SEPARATION:g} from the neutral one"
        )
    accepted: dict[str, np.ndarray] = {}
    neutral = np.full(dims, (SCORE_MIN + SCORE_MAX) / 2.0)
    for name in names:
        for salt in range(_MAX_CENTROID_DRAWS):
            rng = np.random.Generator(
                np.random.PCG64(_seed_from(f"affordance-class:{name}:{dims}:{salt}"))
            )
            candidate = rng.uniform(SCORE_MIN, SCORE_MAX, size=dims)
            if euclidean(candidate, neutral) >= _MIN_NEUTRAL_SEPARATION and all(
                euclidean(candidate, prev) >= _MIN_CENTROID_SEPARATION
                for prev in accepted.values()
            ):
                accepted[name] = candidate
                break
        else:
            raise ValueError(
                f"no centroid for class {name!r} in {_MAX_CENTROID_DRAWS:,} draws:"
                f" X = {dims} leaves too little room for {len(names)} classes"
            )
    return {
        name: AffordanceVector(tuple(float(v) for v in arr))
        for name, arr in accepted.items()
    }


def class_centroid(name: str, dims: int = DIMENSION_COUNT, known: Sequence[str] | None = None) -> AffordanceVector:
    """Centroid for an affordance class; stable across processes and platforms."""
    names = tuple(known) if known is not None else class_names()
    if name not in names:
        names = names + (name,)
    return _catalog_centroids(names, dims)[name]


def neutral_vector(dims: int = DIMENSION_COUNT) -> AffordanceVector:
    """Uniform mid-scale vector used when a subject has no known class."""
    return AffordanceVector((5.0,) * dims)


def label_class(label: str) -> str | None:
    return LABEL_CLASS.get(label)
