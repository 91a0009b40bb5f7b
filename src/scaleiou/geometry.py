"""Axis-aligned boxes in center form, their size classes, and scalar area helpers.

Boxes are stored as (x, y, w, h) with (x, y) the center. Dataset files commonly
use corner form (x_min, y_min, w, h); conversion helpers live on the Box class
and the CLI converts at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .criteria import areas, boxes_array


class SizeClass(Enum):
    """COCO-style size bucket, a total function of sqrt(w*h)."""

    SMALL = "small"
    MEDIUM = "medium"
    LARGE = "large"


# sqrt-area thresholds of the COCO size buckets, in pixels
SMALL_MAX = 32.0
MEDIUM_MAX = 96.0


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle in center form. Width and height must be positive."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        for name in ("x", "y", "w", "h"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                raise ValueError(f"box field {name!r} must be a finite number, got {v!r}")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"box must have positive size, got w={self.w}, h={self.h}")

    @property
    def x_min(self) -> float:
        return self.x - self.w / 2

    @property
    def x_max(self) -> float:
        return self.x + self.w / 2

    @property
    def y_min(self) -> float:
        return self.y - self.h / 2

    @property
    def y_max(self) -> float:
        return self.y + self.h / 2

    @classmethod
    def from_corner(cls, x_min: float, y_min: float, w: float, h: float) -> "Box":
        """Build a box from corner form (x_min, y_min, w, h)."""
        return cls(x_min + w / 2, y_min + h / 2, w, h)

    def to_corner(self) -> tuple[float, float, float, float]:
        """Return (x_min, y_min, w, h)."""
        return (self.x_min, self.y_min, self.w, self.h)

    def scaled(self, k: float) -> "Box":
        """Scale all coordinates by k > 0."""
        if k <= 0:
            raise ValueError(f"scale factor must be positive, got {k}")
        return Box(self.x * k, self.y * k, self.w * k, self.h * k)


def area(b: Box) -> float:
    """Area w*h in square pixels."""
    return b.w * b.h


def _pair_areas(b1: Box, b2: Box) -> tuple[float, float, float]:
    inter, union, hull = areas(boxes_array([b1]).T, boxes_array([b2]).T, hull=True)
    return float(inter[0]), float(union[0]), float(hull[0])


def intersection_area(b1: Box, b2: Box) -> float:
    """Area of the rectangular overlap; 0 when the boxes are disjoint."""
    return _pair_areas(b1, b2)[0]


def union_area(b1: Box, b2: Box) -> float:
    """area(b1) + area(b2) - intersection_area(b1, b2)."""
    return _pair_areas(b1, b2)[1]


def enclosing_hull_area(b1: Box, b2: Box) -> float:
    """Area of the smallest axis-aligned rectangle containing both boxes."""
    return _pair_areas(b1, b2)[2]


def size_class(b: Box) -> SizeClass:
    """Bucket a box by sqrt(w*h): small <= 32 < medium <= 96 < large."""
    s = math.sqrt(b.w * b.h)
    if s <= SMALL_MAX:
        return SizeClass.SMALL
    if s <= MEDIUM_MAX:
        return SizeClass.MEDIUM
    return SizeClass.LARGE
