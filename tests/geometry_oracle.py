"""The geometry kernels as they were first written, building a Region for
every intermediate box. The rewritten kernels, which work on coordinates,
must match them value for value."""

from __future__ import annotations

from aide.geometry import Region


def region_intersection(a, b):
    x0, y0 = max(a.x_min, b.x_min), max(a.y_min, b.y_min)
    x1, y1 = min(a.x_max, b.x_max), min(a.y_max, b.y_max)
    if x0 > x1 or y0 > y1:
        return None
    return Region(x0, y0, x1, y1)


def region_iou(a, b):
    if a == b:
        return 1.0
    inter = region_intersection(a, b)
    if inter is None:
        return 0.0
    union = a.area + b.area - inter.area
    if union <= 0:
        return 0.0
    return inter.area / union


def region_clip(r, width, height):
    return Region(
        min(max(r.x_min, 0), width),
        min(max(r.y_min, 0), height),
        min(max(r.x_max, 0), width),
        min(max(r.y_max, 0), height),
    )


def region_pad(r, fraction, width, height):
    dx = int(round(r.width * fraction))
    dy = int(round(r.height * fraction))
    padded = Region(max(r.x_min - dx, 0), max(r.y_min - dy, 0), r.x_max + dx, r.y_max + dy)
    return region_clip(padded, width, height)


def region_from_floats(x0, y0, x1, y1):
    xa, xb = sorted((x0, x1))
    ya, yb = sorted((y0, y1))
    return Region(
        max(int(round(xa)), 0),
        max(int(round(ya)), 0),
        max(int(round(xb)), 0),
        max(int(round(yb)), 0),
    )
