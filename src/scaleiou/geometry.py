"""Axis-aligned boxes in center form, their size classes, and scalar area helpers.

Boxes are stored as (x, y, w, h) with (x, y) the center. Dataset files commonly
use corner form (x_min, y_min, w, h); conversion helpers live on the Box class
and `io` converts at the input boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .criteria import FLOAT_MAX, MAX_COORDINATE, POSITIVE, areas, check_range, check_size


class SizeClass(Enum):
    """COCO-style size bucket, a total function of sqrt(w*h)."""

    SMALL = "small"
    MEDIUM = "medium"
    LARGE = "large"


# sqrt-area thresholds of the COCO size buckets, in pixels
SMALL_MAX = 32.0
MEDIUM_MAX = 96.0
_SIZE_CLASSES = tuple(SizeClass)


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle in center form. Width and height must be positive
    with an area that does not round to 0, and every field lies within
    +-MAX_COORDINATE."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        check_range("box field 'x'", self.x)
        check_range("box field 'y'", self.y)
        check_size("box size", self.w, self.h)

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

    def components(self) -> tuple[float, float, float, float]:
        """Return (x, y, w, h), the box as operands of the criteria kernel."""
        return (self.x, self.y, self.w, self.h)

    def to_corner(self) -> tuple[float, float, float, float]:
        """Return (x_min, y_min, w, h)."""
        return (self.x_min, self.y_min, self.w, self.h)

    def scaled(self, k: float) -> "Box":
        """Scale all coordinates by k > 0."""
        check_range("scale factor", k, POSITIVE, FLOAT_MAX)
        return Box(self.x * k, self.y * k, self.w * k, self.h * k)


def area(b: Box) -> float:
    """Area w*h in square pixels."""
    return b.w * b.h


def intersection_area(b1: Box, b2: Box) -> float:
    """Area of the rectangular overlap; 0 when the boxes are disjoint."""
    return float(areas(b1.components(), b2.components())[0])


def union_area(b1: Box, b2: Box) -> float:
    """area(b1) + area(b2) - intersection_area(b1, b2)."""
    return float(areas(b1.components(), b2.components())[1])


def enclosing_hull_area(b1: Box, b2: Box) -> float:
    """Area of the smallest axis-aligned rectangle containing both boxes."""
    return float(areas(b1.components(), b2.components(), hull=True)[2])


def size_index(s):
    """Position in SizeClass of the bucket of sqrt-area s, a float or an
    array: small <= 32 < medium <= 96 < large."""
    return 2 - (s <= MEDIUM_MAX) - (s <= SMALL_MAX)


def size_class(b: Box) -> SizeClass:
    """Bucket a box by sqrt(w*h), as size_index does."""
    return _SIZE_CLASSES[size_index(math.sqrt(b.w * b.h))]
