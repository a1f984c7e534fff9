"""Axis-aligned pixel box primitives shared by perception, planning and scoring."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True, slots=True, init=False)
class Region:
    """Axis-aligned pixel rectangle with inclusive-exclusive extent semantics.

    Width is ``x_max - x_min``; a zero-width region is permitted (degenerate).
    Its ``__init__`` is written out, as ``SimilarityScore``'s is: a tick
    builds about a dozen.
    """

    x_min: int
    y_min: int
    x_max: int
    y_max: int

    def __init__(self, x_min: int, y_min: int, x_max: int, y_max: int) -> None:
        if x_min < 0 or y_min < 0 or x_min > x_max or y_min > y_max:
            kind = "negative region coordinates" if x_min < 0 or y_min < 0 else "inverted region bounds"
            raise ValueError(
                f"{kind}: Region(x_min={x_min!r}, y_min={y_min!r}, x_max={x_max!r}, y_max={y_max!r})"
            )
        _set_x_min(self, x_min)
        _set_y_min(self, y_min)
        _set_x_max(self, x_max)
        _set_y_max(self, y_max)

    @property
    def width(self) -> int:
        return self.x_max - self.x_min

    @property
    def height(self) -> int:
        return self.y_max - self.y_min

    @property
    def area(self) -> int:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0)

    def contains(self, other: "Region") -> bool:
        return (
            self.x_min <= other.x_min
            and self.y_min <= other.y_min
            and self.x_max >= other.x_max
            and self.y_max >= other.y_max
        )

    def intersects(self, other: "Region") -> bool:
        return (
            self.x_min <= other.x_max
            and other.x_min <= self.x_max
            and self.y_min <= other.y_max
            and other.y_min <= self.y_max
        )

    def intersection(self, other: "Region") -> "Region | None":
        x0 = max(self.x_min, other.x_min)
        y0 = max(self.y_min, other.y_min)
        x1 = min(self.x_max, other.x_max)
        y1 = min(self.y_max, other.y_max)
        if x0 > x1 or y0 > y1:
            return None
        return Region(x0, y0, x1, y1)

    def union_bounds(self, other: "Region") -> "Region":
        return Region(
            min(self.x_min, other.x_min),
            min(self.y_min, other.y_min),
            max(self.x_max, other.x_max),
            max(self.y_max, other.y_max),
        )

    def clip(self, width: int, height: int) -> "Region":
        """Clamp into a ``width x height`` frame, collapsing at the border if outside."""
        return Region(
            min(max(self.x_min, 0), width),
            min(max(self.y_min, 0), height),
            min(max(self.x_max, 0), width),
            min(max(self.y_max, 0), height),
        )

    def pad(self, fraction: float, width: int, height: int) -> "Region":
        """Grow each side by ``fraction`` of the box extent, clipped to the frame."""
        return Region(*self.padded_bounds(fraction, width, height))

    def padded_bounds(self, fraction: float, width: int, height: int) -> tuple[int, int, int, int]:
        """The coordinates of ``pad(fraction, width, height)``, with no ``Region`` built."""
        dx = int(round(self.width * fraction))
        dy = int(round(self.height * fraction))
        x0, y0 = self.x_min - dx, self.y_min - dy
        x0, y0 = x0 if x0 > 0 else 0, y0 if y0 > 0 else 0
        x1, y1 = self.x_max + dx, self.y_max + dy
        if x0 > x1 or y0 > y1:
            raise ValueError(f"inverted region bounds: {self} padded by {fraction}")
        # x1 >= x0 >= 0 and y1 >= y0 >= 0, so clipping only caps at the frame.
        return (
            width if width < x0 else x0,
            height if height < y0 else y0,
            width if width < x1 else x1,
            height if height < y1 else y1,
        )

    def as_list(self) -> list[int]:
        return [self.x_min, self.y_min, self.x_max, self.y_max]


# The slots' own setters: they write past the frozen ``__setattr__``, which
# only raises.
_set_x_min = Region.x_min.__set__
_set_y_min = Region.y_min.__set__
_set_x_max = Region.x_max.__set__
_set_y_max = Region.y_max.__set__


def pixel_bounds(
    x0: float, y0: float, x1: float, y1: float, width: int, height: int
) -> tuple[int, int, int, int]:
    """Float bounds ordered, rounded to pixels and clamped into a ``width x height`` frame.

    The result is non-inverted and within the frame, so it is a valid
    ``Region``'s coordinates whenever the frame is.
    """
    if x1 < x0:
        x0, x1 = x1, x0
    if y1 < y0:
        y0, y1 = y1, y0
    # max(v, 0), then min(v, width or height), without builtin calls.
    xa, ya, xb, yb = int(round(x0)), int(round(y0)), int(round(x1)), int(round(y1))
    xa, ya, xb, yb = xa if xa > 0 else 0, ya if ya > 0 else 0, xb if xb > 0 else 0, yb if yb > 0 else 0
    return (
        width if width < xa else xa,
        height if height < ya else ya,
        width if width < xb else xb,
        height if height < yb else yb,
    )


def iou(a: Region, b: Region) -> float:
    """Intersection over union in [0, 1]; identical boxes score 1 even when degenerate."""
    ax0, ay0, ax1, ay1 = a.x_min, a.y_min, a.x_max, a.y_max
    bx0, by0, bx1, by1 = b.x_min, b.y_min, b.x_max, b.y_max
    if ax0 == bx0 and ay0 == by0 and ax1 == bx1 and ay1 == by1:
        return 1.0
    x0 = ax0 if ax0 > bx0 else bx0
    x1 = ax1 if ax1 < bx1 else bx1
    if x0 > x1:
        return 0.0
    y0 = ay0 if ay0 > by0 else by0
    y1 = ay1 if ay1 < by1 else by1
    if y0 > y1:
        return 0.0
    inter_area = (x1 - x0) * (y1 - y0)
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter_area
    if union <= 0:
        return 0.0
    return inter_area / union


def bounding_region(regions: Iterable[Region]) -> Region:
    items = list(regions)
    if not items:
        raise ValueError("bounding_region needs at least one region")
    out = items[0]
    for r in items[1:]:
        out = out.union_bounds(r)
    return out


def clipped_into(region: Region, box: Region) -> Region:
    """``region`` clipped into ``box``: their intersection, or ``box`` itself
    when they share no area."""
    inter = region.intersection(box)
    return inter if inter is not None and inter.area > 0 else box


def vertical_halves(box: Region) -> tuple[Region, Region]:
    """(lower, upper) halves of a box; degenerate boxes return themselves twice."""
    mid = box.y_min + box.height // 2
    if mid == box.y_min or mid == box.y_max:
        return box, box
    return (
        Region(box.x_min, mid, box.x_max, box.y_max),
        Region(box.x_min, box.y_min, box.x_max, mid),
    )
