"""The six box similarity criteria: IoU, GIoU, alpha-IoU, NWD, SIoU, GSIoU.

SIoU raises IoU to a size-dependent power

    p = 1 - gamma * exp(-sqrt(w1*h1 + w2*h2) / (sqrt(2) * kappa))

so small boxes are scored more leniently (gamma > 0) or more strictly
(gamma < 0) than large ones, while the plain IoU behavior is recovered for
large boxes, for kappa -> 0, and exactly at IoU in {0, 1}. GSIoU applies the
same signed power to GIoU.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:
    from .geometry import Box

_SQRT2 = math.sqrt(2.0)

# Largest coordinate magnitude of a box: the union and hull areas of any two
# such boxes stay finite, so no criterion overflows.
MAX_COORDINATE = 1e150
# Bounds for check_range: the smallest positive float as lo admits exactly
# the numbers > 0, and FLOAT_MAX as hi admits every finite number.
POSITIVE = math.ulp(0.0)
FLOAT_MAX = sys.float_info.max
_MAX_AREA = 1e300  # bounds w * h whenever w and h are within MAX_COORDINATE
_NUMBER = (int, float, np.integer, np.floating)


def check_range(name: str, value, lo: float = -MAX_COORDINATE, hi: float = MAX_COORDINATE):
    """Return value if it is a number, not a bool, in [lo, hi], else raise a
    ValueError that names it. The one test of every caller-supplied number:
    written in positive form, it rejects NaN and +-inf for any finite bounds."""
    if type(value) is not bool and isinstance(value, _NUMBER) and lo <= value <= hi:
        return value
    low = "(0" if lo == POSITIVE else f"[{lo!r}"
    raise ValueError(f"{name} out of range: must be a number in {low}, {hi!r}], got {value!r}")


def check_count(name: str, value, lo: int, hi: float = math.inf):
    """Return value if it is an int or a numpy integer, not a bool, in
    [lo, hi], else raise a ValueError that names it. The one test of every
    caller-supplied integer: a count, a seed, a moment order or a rating."""
    if isinstance(value, (int, np.integer)) and type(value) is not bool and lo <= value <= hi:
        return value
    shown = value.item() if isinstance(value, np.generic) else value  # 7, not np.int64(7)
    raise ValueError(f"{name} out of range: must be an integer in [{lo}, {hi}], got {shown!r}")


def check_size(name: str, w, h):
    """The box size rule: w and h in (0, MAX_COORDINATE], with an area w * h
    that does not round to 0."""
    check_range(name, w, POSITIVE)
    check_range(name, h, POSITIVE)
    check_range(name + " (area)", w * h, POSITIVE, _MAX_AREA)


class CriterionId(Enum):
    IOU = "iou"
    GIOU = "giou"
    ALPHA_IOU = "alpha-iou"
    NWD = "nwd"
    SIOU = "siou"
    GSIOU = "gsiou"


@dataclass(frozen=True)
class CriterionParams:
    """Parameters of the criteria family.

    gamma <= 1 and kappa > 0 guarantee the exponent p stays positive.
    alpha is the constant alpha-IoU power; nwd_constant the NWD normalizer.
    """

    gamma: float = 0.2
    kappa: float = 64.0
    alpha: float = 3.0
    nwd_constant: float = 32.0

    def __post_init__(self):
        check_range("gamma", self.gamma, -FLOAT_MAX, 1.0)
        for name in ("kappa", "alpha", "nwd_constant"):
            check_range(name, getattr(self, name), POSITIVE, FLOAT_MAX)


# Named presets: lenient setting for evaluation-style use, strict setting
# (p > 1, emphasizing small objects) for loss-style use.
EVALUATION_PRESET = CriterionParams(gamma=0.2, kappa=64.0)
LOSS_PRESET = CriterionParams(gamma=-3.0, kappa=16.0)

DEFAULT_PARAMS = EVALUATION_PRESET


# The kernel: each formula once, on broadcastable center-form components
# a = (x1, y1, w1, h1) and b = (x2, y2, w2, h2), numpy arrays or floats.
# Transcendental steps are numpy ufunc calls, whose loops agree bit for bit
# across 0-d, length-1, strided and broadcast operands; libm, Python's `**`
# and numpy's scalar math can differ from them in the last bit. So the
# scalar and the batched entry points below give the same bits.


def areas(a, b, hull: bool = False):
    """Intersection and union areas, and with hull=True the area of the
    smallest axis-aligned rectangle containing both boxes (else None)."""
    (x1, y1, w1, h1), (x2, y2, w2, h2) = a, b
    # edges are recomputed rather than kept, so a batch holds few temporaries
    iw = np.minimum(x1 + w1 / 2, x2 + w2 / 2) - np.maximum(x1 - w1 / 2, x2 - w2 / 2)
    ih = np.minimum(y1 + h1 / 2, y2 + h2 / 2) - np.maximum(y1 - h1 / 2, y2 - h2 / 2)
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    union = w1 * h1 + w2 * h2 - inter
    if not hull:
        return inter, union, None
    hw = np.maximum(x1 + w1 / 2, x2 + w2 / 2) - np.minimum(x1 - w1 / 2, x2 - w2 / 2)
    hh = np.maximum(y1 + h1 / 2, y2 + h2 / 2) - np.minimum(y1 - h1 / 2, y2 - h2 / 2)
    return inter, union, hw * hh


def exponent(a, b, params: CriterionParams):
    """Scale-adaptive exponent p = 1 - gamma * exp(-sqrt(w1h1 + w2h2)/(sqrt(2) kappa))."""
    s = np.sqrt(a[2] * a[3] + b[2] * b[3])
    return 1.0 - params.gamma * np.exp(-s / (_SQRT2 * params.kappa))


def signed_power(base, p):
    """sign(base) * |base|**p, so 0 stays 0 for p > 0."""
    return np.copysign(np.power(np.abs(base), p), base)


# the criteria whose formula reads the hull area (arXiv 1902.09630)
HULL_CRITERIA = (CriterionId.GIOU, CriterionId.GSIOU)


def from_areas(cid: CriterionId, geometry, a, b, params: CriterionParams = DEFAULT_PARAMS):
    """Criterion values of a and b given geometry = areas(a, b, hull), with
    the hull if cid is in HULL_CRITERIA. NWD reads only a and b, so its
    geometry may be None. Many criteria can share one areas call."""
    if not isinstance(cid, CriterionId):
        raise ValueError(f"unknown criterion {cid!r}")
    if cid is CriterionId.NWD:
        # exp(-W2 / C), W2 the 2-Wasserstein distance between the Gaussians
        # N([x, y], diag(w^2/4, h^2/4)) fitted on the boxes (arXiv 2110.13389)
        dx, dy = a[0] - b[0], a[1] - b[1]
        dw, dh = (a[2] - b[2]) / 2, (a[3] - b[3]) / 2
        with np.errstate(over="ignore"):  # W2 / C -> inf is the exact limit: exp(-inf) = 0
            scaled = -np.sqrt(dx * dx + dy * dy + (dw * dw + dh * dh)) / params.nwd_constant
        return np.exp(scaled)
    inter, union, hull = geometry
    value = inter / union
    if cid in HULL_CRITERIA:  # GIoU
        value = value - (hull - union) / hull
    if cid is CriterionId.ALPHA_IOU:  # arXiv 2110.13675
        return signed_power(value, params.alpha)
    if cid in (CriterionId.SIOU, CriterionId.GSIOU):
        return signed_power(value, exponent(a, b, params))
    return value


def kernel(cid: CriterionId, a, b, params: CriterionParams = DEFAULT_PARAMS):
    """Criterion values on broadcastable center-form components a and b."""
    geometry = None if cid is CriterionId.NWD else areas(a, b, hull=cid in HULL_CRITERIA)
    return from_areas(cid, geometry, a, b, params)


def boxes_array(boxes: Iterable[Box]) -> np.ndarray:
    """Center-form (N, 4) float array of the boxes' (x, y, w, h)."""
    return np.array([b.components() for b in boxes], dtype=float).reshape(-1, 4)


def _components(boxes) -> np.ndarray:
    boxes = np.asarray(boxes, dtype=float)
    if boxes.ndim == 0 or boxes.shape[-1] != 4:
        raise ValueError(f"boxes must have shape (..., 4), got {boxes.shape}")
    return np.moveaxis(boxes, -1, 0)


def elementwise(cid: CriterionId, a, b, params: CriterionParams = DEFAULT_PARAMS) -> np.ndarray:
    """Criterion between center-form (..., 4) box arrays a and b, which
    broadcast against each other."""
    return kernel(cid, _components(a), _components(b), params)


def pairwise(cid: CriterionId, a, b, params: CriterionParams = DEFAULT_PARAMS) -> np.ndarray:
    """N x M matrix of the criterion between every row of the center-form
    (N, 4) array a and every row of the (M, 4) array b."""
    a, b = _components(a), _components(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("pairwise takes (N, 4) and (M, 4) box arrays")
    return kernel(cid, a[:, :, None], b[:, None, :], params)


# Scalar API: the kernel on each box's own floats.


def evaluate(cid: CriterionId, b1: Box, b2: Box, params: CriterionParams = DEFAULT_PARAMS) -> float:
    """Uniform dispatch over the criterion family, for one pair of boxes.

    Bit-equal to elementwise and pairwise, which score many pairs per call
    at a small fraction of this call's cost per pair.
    """
    return float(kernel(cid, b1.components(), b2.components(), params))


def exponent_p(b1: Box, b2: Box, params: CriterionParams) -> float:
    """Scale-adaptive exponent p = 1 - gamma * exp(-sqrt(w1h1 + w2h2)/(sqrt(2) kappa))."""
    return float(exponent(b1.components(), b2.components(), params))


def iou(b1: Box, b2: Box) -> float:
    """Intersection over union, in [0, 1]."""
    return evaluate(CriterionId.IOU, b1, b2)


def giou(b1: Box, b2: Box) -> float:
    """Generalized IoU: IoU - (hull - union)/hull, in (-1, 1]."""
    return evaluate(CriterionId.GIOU, b1, b2)


def siou(b1: Box, b2: Box, params: CriterionParams) -> float:
    """Scale-adaptive IoU: IoU**p, in [0, 1]."""
    return evaluate(CriterionId.SIOU, b1, b2, params)


def gsiou(b1: Box, b2: Box, params: CriterionParams) -> float:
    """Signed-power extension of GIoU: sign(g) * |g|**p, in (-1, 1]."""
    return evaluate(CriterionId.GSIOU, b1, b2, params)


def alpha_iou(b1: Box, b2: Box, params: CriterionParams) -> float:
    """IoU**alpha with a constant exponent, in [0, 1]."""
    return evaluate(CriterionId.ALPHA_IOU, b1, b2, params)


def nwd(b1: Box, b2: Box, params: CriterionParams) -> float:
    """Normalized Wasserstein distance exp(-W2 / C), in (0, 1]."""
    return evaluate(CriterionId.NWD, b1, b2, params)


def value_range(cid: CriterionId) -> tuple[float, float]:
    """Theoretical range of a criterion's values."""
    if cid in HULL_CRITERIA:
        return (-1.0, 1.0)
    return (0.0, 1.0)
