"""Affordance-indexed decision engine.

Closed-loop task planning for ambiguous instructions: a clustered
instruction-tool retrieval space, detect-and-match grounding, visible and
invisible exploration, a dual-stream planner, a deterministic 2D simulator
and an evaluation harness.
"""

from .affordance import AffordanceVector, DimensionMismatchError, distance
from .config import ConfigParams, load_config, save_config
from .geometry import Region, iou
from .perception import (
    Detection,
    PerceptionBackend,
    PerceptionError,
    ReasonerError,
    SceneFrame,
    SimilarityScore,
    ToolHypothesis,
)
from .space import (
    Drafts,
    GroundingResult,
    InstructionRecord,
    RelationshipSpace,
    build_space,
    load_space,
    read_corpus,
    save_space,
    write_corpus,
)

__version__ = "0.1.0"

__all__ = [
    "AffordanceVector",
    "ConfigParams",
    "Detection",
    "DimensionMismatchError",
    "Drafts",
    "GroundingResult",
    "InstructionRecord",
    "PerceptionBackend",
    "PerceptionError",
    "ReasonerError",
    "Region",
    "RelationshipSpace",
    "SceneFrame",
    "SimilarityScore",
    "ToolHypothesis",
    "__version__",
    "build_space",
    "distance",
    "iou",
    "load_config",
    "load_space",
    "read_corpus",
    "save_config",
    "save_space",
    "write_corpus",
]
