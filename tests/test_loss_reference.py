"""loss.py against a frozen copy of its earlier, hand-expanded gradient code.

The reference below kept a separate kink scan, one signed-power derivative
per criterion and eight scalar kernel calls per finite-difference gradient.
The gradients now follow criteria.kernel step by step; IoU, GIoU, NWD and
the finite-difference oracle must match the reference bit for bit, and the
powered criteria to within rounding of the rearranged power rule. One line
of the reference follows the kernel: its GSIoU base is IoU - (hull -
union)/hull, the value criteria.giou returns.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scaleiou import (
    Box,
    CriterionId,
    CriterionParams,
    EVALUATION_PRESET,
    LOSS_PRESET,
    NonDifferentiablePoint,
    finite_difference_gradient,
    loss_gradient,
    reweight_gradient_ratio,
)
from scaleiou.criteria import boxes_array, elementwise, evaluate, exponent_p, giou, signed_power

EXACT = (CriterionId.IOU, CriterionId.GIOU, CriterionId.NWD)
# times max |gradient| plus the exponent's share (see exponent_share): the
# powered criteria round the same terms in another order
POWER_TOL = 1e-15


# --- reference: the earlier loss.py gradient and finite-difference code ---

def _ref_check_differentiable(b1, b2):
    for name, edges1, edges2 in (
        ("vertical", (b1.x_min, b1.x_max), (b2.x_min, b2.x_max)),
        ("horizontal", (b1.y_min, b1.y_max), (b2.y_min, b2.y_max)),
    ):
        for e1 in edges1:
            for e2 in edges2:
                if abs(e1 - e2) < 1e-12:
                    raise NonDifferentiablePoint(
                        f"{name} edges coincide at {e1}; perturb the configuration"
                    )


def _ref_axis_partials(lo1, hi1, lo2, hi2):
    in_hi, in_lo = (1.0 if hi1 < hi2 else 0.0), (1.0 if lo1 > lo2 else 0.0)
    out_hi, out_lo = (1.0 if hi1 > hi2 else 0.0), (1.0 if lo1 < lo2 else 0.0)
    return (
        min(hi1, hi2) - max(lo1, lo2), in_hi - in_lo, 0.5 * (in_hi + in_lo),
        max(hi1, hi2) - min(lo1, lo2), out_hi - out_lo, 0.5 * (out_hi + out_lo),
    )


def _ref_area_partials(b1, b2):
    iw, diw_dx, diw_dw, hw, dhw_dx, dhw_dw = _ref_axis_partials(b1.x_min, b1.x_max, b2.x_min, b2.x_max)
    ih, dih_dy, dih_dh, hh, dhh_dy, dhh_dh = _ref_axis_partials(b1.y_min, b1.y_max, b2.y_min, b2.y_max)
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


def _ref_exponent_partials(b1, b2, p, params):
    s = math.sqrt(b1.w * b1.h + b2.w * b2.h)
    c = (1.0 - p) / (math.sqrt(2.0) * params.kappa)
    return (0.0, 0.0, c * b1.h / (2 * s), c * b1.w / (2 * s))


def _ref_criterion_gradient(cid, b1, b2, params, detach_p):
    if cid is CriterionId.NWD:
        dx, dy = b1.x - b2.x, b1.y - b2.y
        dw, dh = (b1.w - b2.w) / 2, (b1.h - b2.h) / 2
        w2 = math.sqrt(dx * dx + dy * dy + dw * dw + dh * dh)
        if w2 < 1e-12:
            raise NonDifferentiablePoint("Wasserstein distance vanishes (identical boxes)")
        c = params.nwd_constant
        scale = -math.exp(-w2 / c) / (c * w2)
        return (scale * dx, scale * dy, scale * dw / 2, scale * dh / 2)

    _ref_check_differentiable(b1, b2)
    inter, d_inter, union, d_union, hull, d_hull = _ref_area_partials(b1, b2)
    u = inter / union
    d_u = tuple((di * union - inter * du) / (union * union) for di, du in zip(d_inter, d_union))
    if cid is CriterionId.IOU:
        return d_u
    if cid is CriterionId.ALPHA_IOU:
        if u == 0.0:
            return (0.0, 0.0, 0.0, 0.0)
        f = params.alpha * u ** (params.alpha - 1)
        return tuple(f * g for g in d_u)
    d_g = tuple(
        du + (dun * hull - union * dh) / (hull * hull)
        for du, dun, dh in zip(d_u, d_union, d_hull)
    )
    if cid is CriterionId.GIOU:
        return d_g
    p = exponent_p(b1, b2, params)
    d_p = (0.0, 0.0, 0.0, 0.0) if detach_p else _ref_exponent_partials(b1, b2, p, params)
    if cid is CriterionId.SIOU:
        if u == 0.0:
            return (0.0, 0.0, 0.0, 0.0)
        val = u**p
        return tuple(val * (p / u * gu + math.log(u) * gp) for gu, gp in zip(d_u, d_p))
    g = u - (hull - union) / hull  # the GIoU base as criteria.kernel rounds it
    if g == 0.0:
        if p > 1.0:
            return (0.0, 0.0, 0.0, 0.0)
        raise NonDifferentiablePoint("GSIoU with p <= 1 has a cusp at GIoU = 0")
    mag = abs(g) ** p
    return tuple(
        p * abs(g) ** (p - 1) * gg + math.copysign(mag, g) * math.log(abs(g)) * gp
        for gg, gp in zip(d_g, d_p)
    )


def ref_loss_gradient(cid, b1, b2, params, detach_p=False):
    g = _ref_criterion_gradient(cid, b1, b2, params, detach_p)
    return (-g[0], -g[1], -g[2], -g[3])


def ref_finite_difference_gradient(cid, b1, b2, params, step=1e-4, detach_p=False):
    frozen_p = None
    if detach_p and cid in (CriterionId.SIOU, CriterionId.GSIOU):
        frozen_p = exponent_p(b1, b2, params)
        base_id = CriterionId.IOU if cid is CriterionId.SIOU else CriterionId.GIOU

    def at(dx=0.0, dy=0.0, dw=0.0, dh=0.0):
        moved = Box(b1.x + dx, b1.y + dy, b1.w + dw, b1.h + dh)
        if frozen_p is not None:
            base = elementwise(base_id, boxes_array([moved]), boxes_array([b2]))
            return 1.0 - float(signed_power(base, frozen_p)[0])
        return 1.0 - evaluate(cid, moved, b2, params)

    return (
        (at(dx=step) - at(dx=-step)) / (2 * step),
        (at(dy=step) - at(dy=-step)) / (2 * step),
        (at(dw=step) - at(dw=-step)) / (2 * step),
        (at(dh=step) - at(dh=-step)) / (2 * step),
    )


# --- pair strategies ---

# quarter-unit grid: edges coincide exactly, so kinks are hit, not just neared
GRID = st.integers(-400, 400).map(lambda k: k / 4)
GRID_SIZE = st.integers(1, 400).map(lambda k: k / 4)
COORD = st.floats(-200.0, 200.0)
SIZE = st.floats(1e-3, 200.0)


def box(coord, size):
    return st.builds(Box, coord, coord, size, size)


@st.composite
def disjoint_pair(draw):
    b1 = draw(box(COORD, SIZE))
    w2, h2 = draw(SIZE), draw(SIZE)
    gap = draw(st.floats(1e-3, 100.0))
    sx, sy = draw(st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)]))
    x2 = b1.x + sx * ((b1.w + w2) / 2 + gap)
    y2 = b1.y + sy * ((b1.h + h2) / 2 + gap) + (1 - abs(sy)) * draw(st.floats(-50.0, 50.0))
    return b1, Box(x2, y2, w2, h2)


@st.composite
def nested_pair(draw):
    outer = draw(box(COORD, SIZE))
    # down to an area ratio of 1e-18, where GIoU = IoU - 1 + 1 rounds to 0
    kw, kh = draw(st.floats(1e-9, 0.99)), draw(st.floats(1e-9, 0.99))
    w, h = outer.w * kw, outer.h * kh
    x = outer.x + draw(st.floats(-0.49, 0.49)) * (outer.w - w)
    y = outer.y + draw(st.floats(-0.49, 0.49)) * (outer.h - h)
    inner = Box(x, y, w, h)
    return (inner, outer) if draw(st.booleans()) else (outer, inner)


PAIRS = st.one_of(
    st.tuples(box(COORD, SIZE), box(COORD, SIZE)),  # smooth: edges almost never meet
    st.tuples(box(GRID, GRID_SIZE), box(GRID, GRID_SIZE)),  # kinked, and identical boxes
    disjoint_pair(),
    nested_pair(),
)


def outcome(fn, *args):
    try:
        return tuple(fn(*args))
    except (NonDifferentiablePoint, ValueError) as exc:
        return (type(exc).__name__, str(exc))


def exponent_share(cid, b1, b2, params, detach_p):
    """max_i |b**p * ln|b| * dp/dtheta_i|, b the IoU or GIoU base: the part of
    a powered gradient that comes through the exponent. Near the nested,
    concentric pairs it cancels the base's part, so a rounding of either part
    is measured against both, not against their difference."""
    if cid is CriterionId.ALPHA_IOU or detach_p:
        return 0.0
    base = abs(evaluate(CriterionId.IOU if cid is CriterionId.SIOU else CriterionId.GIOU, b1, b2))
    if base == 0.0:
        return 0.0
    p = exponent_p(b1, b2, params)
    return base**p * abs(math.log(base)) * max(map(abs, _ref_exponent_partials(b1, b2, p, params)))


@settings(max_examples=300, deadline=None, derandomize=True)
@example((Box(250, 250, 1e-6, 1e-6), Box(250, 250, 500, 500)), LOSS_PRESET, False)  # GIoU 4e-18, p > 1
@example((Box.from_corner(-2, -2, 4, 7), Box.from_corner(0, 0, 1, 7)), LOSS_PRESET, False)  # GIoU 0, p > 1
@given(PAIRS, st.sampled_from([EVALUATION_PRESET, LOSS_PRESET]), st.booleans())
def test_gradients_match_reference(pair, params, detach_p):
    b1, b2 = pair
    for cid in CriterionId:
        ref = outcome(ref_loss_gradient, cid, b1, b2, params, detach_p)
        new = outcome(lambda *a: loss_gradient(*a).as_tuple(), cid, b1, b2, params, detach_p)
        if cid in EXACT or isinstance(ref[0], str) or isinstance(new[0], str):
            assert new == ref, cid
        else:
            scale = max(map(abs, ref)) + exponent_share(cid, b1, b2, params, detach_p)
            assert max(abs(a - b) for a, b in zip(new, ref)) <= POWER_TOL * scale, cid
        fd = outcome(lambda *a: finite_difference_gradient(*a).as_tuple(), cid, b1, b2, params, 1e-4, detach_p)
        assert fd == outcome(ref_finite_difference_gradient, cid, b1, b2, params, 1e-4, detach_p), cid


# IoU 1e-310: a 1e-5 box centred in a 1e150 one
TINY, HUGE = Box(0, 0, 1e-5, 1e-5), Box(0, 0, 1e150, 1e150)


@pytest.mark.parametrize("params", [EVALUATION_PRESET, LOSS_PRESET])
def test_extreme_pair_siou_finite(params):
    g = loss_gradient(CriterionId.SIOU, TINY, HUGE, params).as_tuple()
    assert all(math.isfinite(v) for v in g)  # NaN before: p / u overflowed to inf, times 0


def test_extreme_pair_alpha_iou_finite():
    # OverflowError before: u**(alpha - 1) = 1e-310**(-0.999)
    g = loss_gradient(CriterionId.ALPHA_IOU, TINY, HUGE, CriterionParams(alpha=1e-3)).as_tuple()
    assert all(math.isfinite(v) for v in g)


@pytest.mark.parametrize("params", [EVALUATION_PRESET, LOSS_PRESET])
def test_extreme_pair_gsiou_finite(params):
    # GIoU here is the IoU 1e-310: the hull and the union round to the same area
    g = loss_gradient(CriterionId.GSIOU, TINY, HUGE, params).as_tuple()
    assert all(math.isfinite(v) for v in g)


def test_tiny_nested_box_gsiou_finite():
    # the kernel's GIoU is 4.0e-18 here; a base of IoU - 1 + union/hull rounded it to 0, a cusp
    b1, b2 = Box(250, 250, 1e-6, 1e-6), Box(250, 250, 500, 500)
    assert giou(b1, b2) > 0
    g = loss_gradient(CriterionId.GSIOU, b1, b2, EVALUATION_PRESET).as_tuple()
    assert all(math.isfinite(v) for v in g) and g != (0.0, 0.0, 0.0, 0.0)


def test_gsiou_cusp_raises_where_giou_is_zero():
    # IoU 5/30 = (hull - union)/hull 6/36 exactly, so GIoU is 0 in every rounding
    b1, b2 = Box.from_corner(-2, -2, 4, 7), Box.from_corner(0, 0, 1, 7)
    assert giou(b1, b2) == 0.0
    with pytest.raises(NonDifferentiablePoint, match="cusp at GIoU = 0"):
        loss_gradient(CriterionId.GSIOU, b1, b2, EVALUATION_PRESET)
    assert loss_gradient(CriterionId.GSIOU, b1, b2, LOSS_PRESET).as_tuple() == (0.0,) * 4  # p > 1: flat


def test_gradient_ratio_where_the_power_alone_overflows():
    # 5e-324**(1e-300 - 1) overflows, but p * u**(p - 1) = p / u * u**p = p / u here
    assert reweight_gradient_ratio(5e-324, 1e-300) == pytest.approx(1e-300 / 5e-324, rel=1e-15)


def test_gradient_ratio_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        reweight_gradient_ratio(5e-324, 1e-10)  # about 2e313


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(5e-324, math.nextafter(1.0, 0.0)), st.floats(5e-324, 1e300))
def test_gradient_ratio_keeps_its_bits(u, p):
    try:
        direct = p * u ** (p - 1.0)
    except OverflowError:
        try:
            ratio = reweight_gradient_ratio(u, p)
        except ValueError as exc:
            assert "out of range" in str(exc)
        else:
            assert math.isfinite(ratio) and ratio > 0
    else:
        assert reweight_gradient_ratio(u, p) == direct
