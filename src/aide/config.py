"""Engine parameters and the ``aide-config/1`` document format."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .jsonvalues import integer, number

CONFIG_SCHEMA = "aide-config/1"


class ConfigError(ValueError):
    """Invalid parameter combination or malformed config document."""


# Dropped fields, with the value every saved document holds for them.
_RETIRED = {
    "T": None, "frame_size": 800, "view_range": 40.0, "visible_candidate_max_rank": None,
    # Now gen_corpus's A, MockPerception's sigma, and module constants.
    "A": 432, "sigma": 0.5, "frame_period": 100.0, "epsilon": 1e-6,
    "confidence_lambda": 5.0, "blur_range": 8.0, "max_subgoal_depth": 4,
}
# The reader of each field's declared type: an int field takes a JSON integer,
# a float field any JSON number (``aide.jsonvalues``).
_READERS = {"int": integer, "float": number}


@dataclass(frozen=True)
class ConfigParams:
    """The planner's settings in one immutable bundle.

    Retrieval and matching:
      X            affordance dimensions
      a, b         cluster and subcluster counts
      D            build-time center filter radius (applies to both vectors)
      c            retrieval radius for the instruction-vector DFS
      d            subcluster expansion radius over tool vectors
      m            grounding similarity threshold (strict greater-than)
      N, N_prime   detection rank cutoffs; visible exploration uses ranks N+1..2N
      PX           exploration square half-side, pixels

    Thresholds:
      strategy_threshold   visible-vs-invisible routing on t_new
      validity_threshold   confidence + similarity floor for a valid tool object

    Robot:
      r_near           world distance that counts as "near" a target
      approach_speed   world units moved per tick

    The corpus size is ``gen_corpus``'s ``A`` and the mock noise
    ``MockPerception``'s ``sigma``; the tick length, blur range, mock
    confidence decay and similarity cap, and subgoal depth limit are module
    constants. Frame size and view range come with each ``aide-world/1``.
    """

    X: int = 19
    a: int = 8
    b: int = 3
    D: float = 25.0
    c: float = 10.0
    d: float = 15.0
    m: float = 0.85
    N: int = 5
    N_prime: int = 40
    PX: int = 250
    strategy_threshold: float = 0.75
    validity_threshold: float = 0.5
    r_near: float = 1.0
    approach_speed: float = 0.5

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ConfigError(f"N must be at least 1, got {self.N}")
        if self.N >= self.N_prime:
            raise ConfigError(f"N ({self.N}) must be below N_prime ({self.N_prime})")
        if not (0.0 < self.m < 1.0):
            raise ConfigError(f"m must lie in (0, 1), got {self.m}")
        for name in ("D", "c", "d"):
            value = getattr(self, name)
            if not value >= 0:  # also true for NaN
                raise ConfigError(f"distance {name} must be non-negative, got {value}")
        if self.X < 1 or self.a < 1 or self.b < 1:
            raise ConfigError("dimensions and cluster counts must be positive")
        if self.PX < 0:
            raise ConfigError(f"PX must be non-negative, got {self.PX}")
        # Each comparison is also false for NaN.
        if not 0.0 < self.approach_speed < math.inf:
            raise ConfigError(f"approach_speed must be finite and positive, got {self.approach_speed}")
        if not 0.0 <= self.r_near < math.inf:
            raise ConfigError(f"r_near must be finite and non-negative, got {self.r_near}")
        # A threshold lies within the range of the score it is compared with:
        # a similarity for the strategy, confidence plus similarity for validity.
        if not 0.0 <= self.strategy_threshold <= 1.0:
            raise ConfigError(f"strategy_threshold must lie in [0, 1], got {self.strategy_threshold}")
        if not 0.0 <= self.validity_threshold <= 2.0:
            raise ConfigError(f"validity_threshold must lie in [0, 2], got {self.validity_threshold}")

    @property
    def detection_budget(self) -> int:
        """Detections fetched to match a tool: enough for N' and the 2N band."""
        return max(self.N_prime, 2 * self.N)

    @classmethod
    def from_dict(cls, raw) -> "ConfigParams":
        """Parse the ``params`` mapping of an ``aide-config/1`` document or of
        an ``aide-space/3`` file's header.

        A key that is no field raises ``ConfigError``, except a dropped field
        at the value every earlier save wrote for it, which is skipped. Each
        value is read at its JSON type (``_READERS``): a bool or a str is no
        number, and a float no integer.
        """
        if not isinstance(raw, dict):
            raise ConfigError("params section must be a mapping")
        known = {f.name for f in dataclasses.fields(cls)}
        for key in sorted(k for k in raw if k in _RETIRED):
            if raw[key] != _RETIRED[key]:
                raise ConfigError(
                    f"parameter {key!r} is fixed at {_RETIRED[key]!r}, got {raw[key]!r}"
                )
        unknown = sorted(k for k in raw if k not in known and k not in _RETIRED)
        if unknown:
            raise ConfigError(f"unknown config parameters: {unknown}")
        values = {}
        for f in dataclasses.fields(cls):
            if f.name in raw:
                try:
                    values[f.name] = _READERS[f.type](raw[f.name])
                except ValueError as exc:
                    raise ConfigError(f"parameter {f.name!r}: {exc}") from None
        return cls(**values)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def load_config(path: str | Path) -> ConfigParams:
    """Read an ``aide-config/1`` document.

    Input and output paths are set by flags alone, so a ``paths`` section
    must be absent or empty, as ``save_config`` wrote it by default.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config document: {exc}") from exc
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != CONFIG_SCHEMA:
        raise ConfigError(f"expected schema {CONFIG_SCHEMA!r}, got {schema!r}")
    if doc.get("paths", {}) != {}:
        raise ConfigError(
            "config paths are not read; pass --space, --scenarios, --report or --out instead"
        )
    return ConfigParams.from_dict(doc.get("params", {}))


def save_config(params: ConfigParams, path: str | Path) -> None:
    doc = {"schema": CONFIG_SCHEMA, "params": params.to_dict()}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
