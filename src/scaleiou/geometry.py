"""Axis-aligned boxes in center form, their size classes, and scalar area helpers.

Boxes are stored as (x, y, w, h) with (x, y) the center. Dataset files commonly
use corner form (x_min, y_min, w, h); Box.from_corner and corner_to_center
convert from it, and `io` converts at the input boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

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


def corner_to_center(corner: np.ndarray) -> np.ndarray:
    """Center form of corner-form (..., 4) boxes, with the bits of
    Box.from_corner: x_min + w / 2, y_min + h / 2, w, h."""
    with np.errstate(over="ignore"):  # a center that overflows to inf is the box rule's to reject
        return np.concatenate([corner[..., :2] + corner[..., 2:] / 2, corner[..., 2:]], axis=-1)


def box_rule_probes(boxes: np.ndarray) -> list[np.ndarray]:
    """The columns x, y, w, h and w * h of center-form (N, 4) boxes. The Box
    rule is an interval on each of them."""
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN area is an extreme that fails
        return [*boxes.T, boxes[:, 2] * boxes[:, 3]]


class InvalidRow(ValueError):
    """Raised by a table's row check: row `row` breaks the rule whose error is `reason`."""

    def __init__(self, row: int, reason: ValueError):
        super().__init__(f"row {row}: {reason}")
        self.row, self.reason = row, reason


def check_rows(n_rows: int, probes: list[np.ndarray], check_row) -> None:
    """Run check_row(i), which raises InvalidRow, on a table of n_rows rows
    whose every rule is an interval on one probe column. The rows holding the
    extremes of each probe (argmin and argmax land on the first NaN) pass
    only if all do, so they are checked first; on a failure every row is
    checked in order, so the error names the first row that breaks a rule."""
    extremes = {int(f(c)) for c in probes for f in (np.argmin, np.argmax)} if n_rows else ()
    try:
        for i in sorted(extremes):
            check_row(i)
    except InvalidRow:
        for i in range(n_rows):
            check_row(i)


def size_index(s):
    """Position in SizeClass of the bucket of sqrt-area s, a float or an
    array: small <= 32 < medium <= 96 < large."""
    return 2 - (s <= MEDIUM_MAX) - (s <= SMALL_MAX)


def size_indices(boxes: np.ndarray) -> np.ndarray:
    """The position in SizeClass of the size class of each center-form
    (N, 4) box, as size_class buckets it."""
    return size_index(np.sqrt(boxes[:, 2] * boxes[:, 3]))


def size_class(b: Box) -> SizeClass:
    """Bucket a box by sqrt(w*h), as size_index does."""
    return _SIZE_CLASSES[size_index(math.sqrt(b.w * b.h))]
