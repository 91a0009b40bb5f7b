"""Criterion losses 1 - C, their analytic gradients, and the reweighting ratios.

Gradients are taken with respect to the predicted box only (the ground truth
is held constant, as in training). For SIoU/GSIoU the exponent p depends on
the predicted box size; the default differentiates through that dependency,
while detach_p=True holds p constant, matching the fixed-p reading of the
loss/gradient reweighting analysis. Both modes are checked against central
finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .criteria import (
    CriterionId,
    CriterionParams,
    FLOAT_MAX,
    POSITIVE,
    boxes_array,
    check_range,
    exponent_p,
    kernel,
    signed_power,
)
from .errors import NonDifferentiablePoint
from .geometry import Box

_EDGE_TOL = 1e-12
_ZERO = (0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class BoxGradient:
    """Partial derivatives of a scalar with respect to (x, y, w, h) of the
    predicted box."""

    d_x: float
    d_y: float
    d_w: float
    d_h: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.d_x, self.d_y, self.d_w, self.d_h)


def _axis_partials(name: str, c1: float, s1: float, c2: float, s2: float):
    """Along one axis, from each box's centre and size: the overlap extent, its
    partials w.r.t. b1's centre and size, then the same for the hull extent.
    Each follows from which side of a min/max is b1's; where an edge of b1
    meets one of b2 that side is ambiguous, a kink, which raises."""
    lo1, hi1, lo2, hi2 = c1 - s1 / 2, c1 + s1 / 2, c2 - s2 / 2, c2 + s2 / 2
    for e1 in (lo1, hi1):
        for e2 in (lo2, hi2):
            if abs(e1 - e2) < _EDGE_TOL:
                raise NonDifferentiablePoint(f"{name} edges coincide at {e1}; perturb the configuration")
    in_hi, in_lo = (1.0 if hi1 < hi2 else 0.0), (1.0 if lo1 > lo2 else 0.0)
    out_hi, out_lo = (1.0 if hi1 > hi2 else 0.0), (1.0 if lo1 < lo2 else 0.0)
    return (
        min(hi1, hi2) - max(lo1, lo2), in_hi - in_lo, 0.5 * (in_hi + in_lo),
        max(hi1, hi2) - min(lo1, lo2), out_hi - out_lo, 0.5 * (out_hi + out_lo),
    )


def _area_partials(b1: Box, b2: Box):
    """Intersection, union, hull areas and their partials w.r.t. (x1, y1, w1, h1),
    each a 4-tuple. A kink raises, vertical edges (x) checked before horizontal."""
    iw, diw_dx, diw_dw, hw, dhw_dx, dhw_dw = _axis_partials("vertical", b1.x, b1.w, b2.x, b2.w)
    ih, dih_dy, dih_dh, hh, dhh_dy, dhh_dh = _axis_partials("horizontal", b1.y, b1.h, b2.y, b2.h)
    if iw > 0 and ih > 0:
        inter = iw * ih
        d_inter = (diw_dx * ih, dih_dy * iw, diw_dw * ih, dih_dh * iw)
    else:
        inter, d_inter = 0.0, _ZERO
    union = b1.w * b1.h + b2.w * b2.h - inter
    d_union = tuple(a - i for a, i in zip((0.0, 0.0, b1.h, b1.w), d_inter))
    hull = hw * hh
    d_hull = (dhw_dx * hh, dhh_dy * hw, dhw_dw * hh, dhh_dh * hw)
    return inter, d_inter, union, d_union, hull, d_hull


def _quotient(num: float, d_num, den: float, d_den):
    """num / den and its partials, by the quotient rule. Past den ~ 1.34e154,
    den * den overflows; there the rule divides by den twice instead."""
    q, den2 = num / den, den * den
    if den2 == math.inf:
        return q, tuple((dn - q * dd) / den for dn, dd in zip(d_num, d_den))
    return q, tuple((dn * den - num * dd) / den2 for dn, dd in zip(d_num, d_den))


def _exponent_partials(b1: Box, b2: Box, p: float, params: CriterionParams):
    """Partials of the exponent p w.r.t. (x1, y1, w1, h1)."""
    s = math.sqrt(b1.w * b1.h + b2.w * b2.h)
    # dp/dw1 = gamma * e / (sqrt(2) kappa) * ds/dw1, ds/dw1 = h1/(2s), gamma * e = 1 - p
    c = (1.0 - p) / (math.sqrt(2.0) * params.kappa)
    return (0.0, 0.0, c * b1.h / (2 * s), c * b1.w / (2 * s))


def _signed_power_partials(base: float, d_base, p: float, d_p, cusp_at_zero: bool):
    """Partials of sign(base) * |base|**p. At base = 0: 0 for p > 1 or an IoU
    base (flat there); a GIoU base with p <= 1 has a cusp there, which raises."""
    if base == 0.0:
        if p > 1.0 or not cusp_at_zero:
            return _ZERO
        raise NonDifferentiablePoint("GSIoU with p <= 1 has a cusp at GIoU = 0")
    size = abs(base)
    mag = size**p
    signed_log = math.copysign(mag, base) * math.log(size)
    if p < 1.0:  # |b|**(p-1) may overflow where p * |b|**(p-1) * g does not
        return tuple(mag * p * (g / size) + signed_log * gp for g, gp in zip(d_base, d_p))
    f = p * size ** (p - 1.0)  # |b|**p may underflow where this does not
    return tuple(f * g + signed_log * gp for g, gp in zip(d_base, d_p))


def _criterion_gradient(cid: CriterionId, b1: Box, b2: Box, params: CriterionParams, detach_p: bool):
    """Gradient of the criterion value w.r.t. (x1, y1, w1, h1), one chain-rule
    step per step of criteria.kernel."""
    if not isinstance(cid, CriterionId):
        raise ValueError(f"unknown criterion {cid!r}")
    if cid is CriterionId.NWD:
        dx, dy = b1.x - b2.x, b1.y - b2.y
        dw, dh = (b1.w - b2.w) / 2, (b1.h - b2.h) / 2
        w2 = math.sqrt(dx * dx + dy * dy + dw * dw + dh * dh)
        if w2 < _EDGE_TOL:
            raise NonDifferentiablePoint("Wasserstein distance vanishes (identical boxes)")
        c = params.nwd_constant
        scale = -math.exp(-w2 / c) / (c * w2)
        return (scale * dx, scale * dy, scale * dw / 2, scale * dh / 2)

    inter, d_inter, union, d_union, hull, d_hull = _area_partials(b1, b2)
    value, d_value = _quotient(inter, d_inter, union, d_union)
    giou_base = cid in (CriterionId.GIOU, CriterionId.GSIOU)
    if giou_base:  # GIoU = IoU - (hull - union)/hull, rounded as the kernel does; d(union/hull) is its partial
        _, d_ratio = _quotient(union, d_union, hull, d_hull)
        value, d_value = value - (hull - union) / hull, tuple(a + b for a, b in zip(d_value, d_ratio))
    if cid is CriterionId.ALPHA_IOU:
        return _signed_power_partials(value, d_value, params.alpha, _ZERO, False)
    if cid in (CriterionId.SIOU, CriterionId.GSIOU):
        p = exponent_p(b1, b2, params)
        d_p = _ZERO if detach_p else _exponent_partials(b1, b2, p, params)
        return _signed_power_partials(value, d_value, p, d_p, giou_base)
    return d_value


def loss_gradient(
    cid: CriterionId,
    b1: Box,
    b2: Box,
    params: CriterionParams,
    detach_p: bool = False,
) -> BoxGradient:
    """Analytic gradient of 1 - C with respect to the predicted box b1.

    Raises NonDifferentiablePoint when an edge of b1 coincides with an edge
    of b2 (within 1e-12); callers may perturb and retry.
    """
    g = _criterion_gradient(cid, b1, b2, params, detach_p)
    return BoxGradient(-g[0], -g[1], -g[2], -g[3])


def finite_difference_gradient(
    cid: CriterionId,
    b1: Box,
    b2: Box,
    params: CriterionParams,
    step: float = 1e-4,
    detach_p: bool = False,
) -> BoxGradient:
    """Central-difference gradient of the loss, the verification oracle.

    With detach_p=True the exponent is frozen at its value for (b1, b2)
    while the box is perturbed, matching loss_gradient's detached mode.
    """
    check_range("step", step, POSITIVE)
    origin = b1.components()
    probes = [  # +step then -step along x, y, w, h; each a valid Box
        Box(*(v + (delta if i == axis else 0.0) for i, v in enumerate(origin)))
        for axis in range(4)
        for delta in (step, -step)
    ]
    base_id = cid
    if detach_p and cid in (CriterionId.SIOU, CriterionId.GSIOU):
        base_id = CriterionId.IOU if cid is CriterionId.SIOU else CriterionId.GIOU
    values = kernel(base_id, boxes_array(probes).T, b2.components(), params)
    if base_id is not cid:  # the exponent frozen at its value for (b1, b2)
        values = signed_power(values, exponent_p(b1, b2, params))
    loss = 1.0 - values
    return BoxGradient(*((loss[0::2] - loss[1::2]) / (2 * step)).tolist())


def _check_reweight_args(iou_value: float, p: float) -> None:
    check_range("iou_value", iou_value, POSITIVE, math.nextafter(1.0, 0.0))
    check_range("p", p, POSITIVE, FLOAT_MAX)


def reweight_loss_ratio(iou_value: float, p: float) -> float:
    """Loss reweighting ratio (1 - u**p) / (1 - u) for u in (0, 1) and finite p > 0."""
    _check_reweight_args(iou_value, p)
    return (1.0 - iou_value**p) / (1.0 - iou_value)


def reweight_gradient_ratio(iou_value: float, p: float) -> float:
    """Gradient reweighting ratio p * u**(p-1) for u in (0, 1) and finite p > 0.
    Raises ValueError when the ratio is too large for a float."""
    _check_reweight_args(iou_value, p)
    try:
        return p * iou_value ** (p - 1.0)
    except OverflowError:  # p < 1: u**(p-1) overflows, its square root does not
        half = iou_value ** ((p - 1.0) / 2)
        return check_range("gradient ratio p * u**(p-1)", p * half * half, POSITIVE, FLOAT_MAX)
