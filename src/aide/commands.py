"""Motion commands: what the planner asks of the robot each tick.

The planner produces them and the simulator applies them; both import this
module, so neither has to import the other for the command types.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import Region


@dataclass(frozen=True)
class Approach:
    region: Region


@dataclass(frozen=True)
class Reformulate:
    subgoal: str
    key_region: Region


@dataclass(frozen=True)
class Manipulate:
    operational: Region
    functional: Region


@dataclass(frozen=True)
class RequestHuman:
    prompt: str


@dataclass(frozen=True)
class NoOp:
    pass


MotionCommand = Approach | Reformulate | Manipulate | RequestHuman | NoOp
