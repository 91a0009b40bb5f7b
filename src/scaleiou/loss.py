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
    boxes_array,
    elementwise,
    evaluate,
    exponent_p,
    signed_power,
)
from .errors import NonDifferentiablePoint
from .geometry import Box

_EDGE_TOL = 1e-12


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


def loss_value(cid: CriterionId, b1: Box, b2: Box, params: CriterionParams) -> float:
    """1 - C(b1, b2)."""
    return 1.0 - evaluate(cid, b1, b2, params)


def _check_differentiable(b1: Box, b2: Box) -> None:
    # Kinks of the intersection/hull min/max terms sit exactly where an edge
    # of b1 coincides with an edge of b2 (on either axis).
    for name, edges1, edges2 in (
        ("vertical", (b1.x_min, b1.x_max), (b2.x_min, b2.x_max)),
        ("horizontal", (b1.y_min, b1.y_max), (b2.y_min, b2.y_max)),
    ):
        for e1 in edges1:
            for e2 in edges2:
                if abs(e1 - e2) < _EDGE_TOL:
                    raise NonDifferentiablePoint(
                        f"{name} edges coincide at {e1}; perturb the configuration"
                    )


def _axis_partials(lo1: float, hi1: float, lo2: float, hi2: float):
    """Along one axis: the overlap extent, its partials w.r.t. b1's center and
    size, then the same for the hull extent. Each partial follows from which
    side of the min/max belongs to b1."""
    in_hi, in_lo = (1.0 if hi1 < hi2 else 0.0), (1.0 if lo1 > lo2 else 0.0)
    out_hi, out_lo = (1.0 if hi1 > hi2 else 0.0), (1.0 if lo1 < lo2 else 0.0)
    return (
        min(hi1, hi2) - max(lo1, lo2), in_hi - in_lo, 0.5 * (in_hi + in_lo),
        max(hi1, hi2) - min(lo1, lo2), out_hi - out_lo, 0.5 * (out_hi + out_lo),
    )


def _area_partials(b1: Box, b2: Box):
    """Intersection, union, hull areas and their partials w.r.t. (x1, y1, w1, h1).

    Each gradient is a 4-tuple. Assumes _check_differentiable passed, so all
    min/max selections are strict.
    """
    iw, diw_dx, diw_dw, hw, dhw_dx, dhw_dw = _axis_partials(b1.x_min, b1.x_max, b2.x_min, b2.x_max)
    ih, dih_dy, dih_dh, hh, dhh_dy, dhh_dh = _axis_partials(b1.y_min, b1.y_max, b2.y_min, b2.y_max)
    if iw > 0 and ih > 0:
        inter = iw * ih
        d_inter = (diw_dx * ih, dih_dy * iw, diw_dw * ih, dih_dh * iw)
    else:
        inter, d_inter = 0.0, (0.0, 0.0, 0.0, 0.0)
    union = b1.w * b1.h + b2.w * b2.h - inter
    d_union = tuple(a - i for a, i in zip((0.0, 0.0, b1.h, b1.w), d_inter))
    hull = hw * hh
    d_hull = (dhw_dx * hh, dhh_dy * hw, dhw_dw * hh, dhh_dh * hw)
    return inter, d_inter, union, d_union, hull, d_hull


def _exponent_partials(b1: Box, b2: Box, p: float, params: CriterionParams):
    """Partials of the exponent p w.r.t. (x1, y1, w1, h1)."""
    s = math.sqrt(b1.w * b1.h + b2.w * b2.h)
    # dp/dw1 = gamma * e / (sqrt(2) kappa) * ds/dw1, ds/dw1 = h1/(2s), gamma * e = 1 - p
    c = (1.0 - p) / (math.sqrt(2.0) * params.kappa)
    return (0.0, 0.0, c * b1.h / (2 * s), c * b1.w / (2 * s))


def _criterion_gradient(
    cid: CriterionId, b1: Box, b2: Box, params: CriterionParams, detach_p: bool
):
    """Gradient of the criterion value w.r.t. (x1, y1, w1, h1)."""
    if cid is CriterionId.NWD:
        dx, dy = b1.x - b2.x, b1.y - b2.y
        dw, dh = (b1.w - b2.w) / 2, (b1.h - b2.h) / 2
        w2 = math.sqrt(dx * dx + dy * dy + dw * dw + dh * dh)
        if w2 < _EDGE_TOL:
            raise NonDifferentiablePoint("Wasserstein distance vanishes (identical boxes)")
        c = params.nwd_constant
        scale = -math.exp(-w2 / c) / (c * w2)
        return (scale * dx, scale * dy, scale * dw / 2, scale * dh / 2)

    _check_differentiable(b1, b2)
    inter, d_inter, union, d_union, hull, d_hull = _area_partials(b1, b2)

    u = inter / union
    d_u = tuple(
        (di * union - inter * du) / (union * union) for di, du in zip(d_inter, d_union)
    )

    if cid is CriterionId.IOU:
        return d_u

    if cid is CriterionId.ALPHA_IOU:
        if u == 0.0:
            return (0.0, 0.0, 0.0, 0.0)  # IoU is flat on the disjoint interior
        f = params.alpha * u ** (params.alpha - 1)
        return tuple(f * g for g in d_u)

    # GIoU = IoU - 1 + union/hull
    d_g = tuple(
        du + (dun * hull - union * dh) / (hull * hull)
        for du, dun, dh in zip(d_u, d_union, d_hull)
    )
    if cid is CriterionId.GIOU:
        return d_g

    p = exponent_p(b1, b2, params)
    d_p = (0.0, 0.0, 0.0, 0.0) if detach_p else _exponent_partials(b1, b2, p, params)

    if cid is CriterionId.SIOU:
        if u == 0.0:
            return (0.0, 0.0, 0.0, 0.0)
        val = u**p
        return tuple(val * (p / u * gu + math.log(u) * gp) for gu, gp in zip(d_u, d_p))

    if cid is CriterionId.GSIOU:
        g = u - 1.0 + union / hull
        if g == 0.0:
            if p > 1.0:
                return (0.0, 0.0, 0.0, 0.0)
            raise NonDifferentiablePoint("GSIoU with p <= 1 has a cusp at GIoU = 0")
        mag = abs(g) ** p
        return tuple(
            p * abs(g) ** (p - 1) * gg + math.copysign(mag, g) * math.log(abs(g)) * gp
            for gg, gp in zip(d_g, d_p)
        )

    raise ValueError(f"unknown criterion {cid!r}")


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
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")

    frozen_p = None
    if detach_p and cid in (CriterionId.SIOU, CriterionId.GSIOU):
        frozen_p = exponent_p(b1, b2, params)
        base_id = CriterionId.IOU if cid is CriterionId.SIOU else CriterionId.GIOU

    def at(dx=0.0, dy=0.0, dw=0.0, dh=0.0):
        moved = Box(b1.x + dx, b1.y + dy, b1.w + dw, b1.h + dh)
        if frozen_p is not None:
            base = elementwise(base_id, boxes_array([moved]), boxes_array([b2]))
            return 1.0 - float(signed_power(base, frozen_p)[0])
        return loss_value(cid, moved, b2, params)

    return BoxGradient(
        (at(dx=step) - at(dx=-step)) / (2 * step),
        (at(dy=step) - at(dy=-step)) / (2 * step),
        (at(dw=step) - at(dw=-step)) / (2 * step),
        (at(dh=step) - at(dh=-step)) / (2 * step),
    )


def reweight_loss_ratio(iou_value: float, p: float) -> float:
    """Loss reweighting ratio (1 - u**p) / (1 - u) for u in (0, 1)."""
    if not 0.0 < iou_value < 1.0:
        raise ValueError(f"iou_value must be strictly inside (0, 1), got {iou_value}")
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    return (1.0 - iou_value**p) / (1.0 - iou_value)


def reweight_gradient_ratio(iou_value: float, p: float) -> float:
    """Gradient reweighting ratio p * u**(p-1) for u in (0, 1)."""
    if not 0.0 < iou_value < 1.0:
        raise ValueError(f"iou_value must be strictly inside (0, 1), got {iou_value}")
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    return p * iou_value ** (p - 1.0)
