"""Closed-form GIoU density and quadrature moments for the shifted-square model.

Setting: two same-size squares of width omega, the predicted one shifted
horizontally by X ~ N(0, sigma^2). Each criterion reduces to a function of the
scalar shift,

    IoU(x)   = max(0, (omega - |x|) / (omega + |x|))
    GIoU(x)  = (omega - |x|) / (omega + |x|)
    SIoU(x)  = IoU(x)**p,  GSIoU(x) = sign(GIoU) * |GIoU|**p

which gives the GIoU density below. Moments E[C(X)^k] are evaluated by
adaptive quadrature of `criteria.kernel` on the two squares, the function the
Monte Carlo sampler scores, so this module writes no criterion formula. The
quadrature is QUADPACK's G7K15 rule on numpy arrays: each refinement round
scores the nodes of every open interval in one kernel call, so the module
needs no scipy. It is the oracle the sampler is checked against; the formulas
above are checked against it in the tests. The GIoU density uses the 4*omega
prefactor; the testable normalization (integral = 1) pins that choice.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .criteria import CriterionId, CriterionParams, DEFAULT_PARAMS, FLOAT_MAX, HULL_CRITERIA
from .criteria import check_count, check_range, check_size, exponent, kernel
from .errors import QuadratureNonConvergence
from .stats import ShiftModel, derive_seed, summarize_criteria

# Gaussian mass beyond 12 sigma is < 1e-30; criteria are bounded by 1, so
# truncating the tail there is exact at the working tolerance.
TAIL_SIGMAS = 12.0
QUAD_ABS_TOL = 1e-10
QUAD_LIMIT = 400
# largest accepted error estimate of one half-line integral; a moment doubles it
QUAD_MAX_ERROR = 1e-8

# QUADPACK qk15 (Piessens et al., 1983): the 15-point Kronrod rule on [-1, 1]
# and its embedded 7-point Gauss rule, listed from the node at 1 to the centre
_KRONROD_X = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
)
_KRONROD_W = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
_GAUSS_W = (
    0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327,
)


def _mirrored(half, sign=1.0):
    """The rule's 15 values in ascending node order from its 8 listed ones: the
    first 7, times sign, at the negative nodes, then all 8 in reverse."""
    return np.array([sign * v for v in half[:-1]] + list(half[::-1]))


_NODES = _mirrored(_KRONROD_X, -1.0)
_KRONROD_WEIGHTS = _mirrored(_KRONROD_W)
_GAUSS_WEIGHTS = _mirrored(_GAUSS_W)
_EPS = np.finfo(float).eps

_MOMENT_CRITERIA = (
    CriterionId.IOU,
    CriterionId.GIOU,
    CriterionId.SIOU,
    CriterionId.GSIOU,
)


@dataclass(frozen=True)
class TheorySetup:
    """Width, noise level, and criterion parameters of the theoretical model.
    sigma is a normal float, so the Gaussian factor 1 / (sqrt(2 pi) sigma)
    stays finite."""

    omega: float
    sigma: float
    params: CriterionParams = field(default=DEFAULT_PARAMS)

    def __post_init__(self):
        check_size("omega", self.omega, self.omega)
        check_range("sigma", self.sigma, sys.float_info.min)
        check_range("sigma / omega", self.a, 0.0, FLOAT_MAX)

    @property
    def a(self) -> float:
        """Dimensionless noise ratio sigma / omega."""
        return self.sigma / self.omega

    @property
    def p(self) -> float:
        """Scale-adaptive exponent of two omega-width squares, the one the
        kernel raises their IoU and GIoU to: 1 - gamma * exp(-omega / kappa)
        up to rounding."""
        square = (0.0, 0.0, self.omega, self.omega)
        return float(exponent(square, square, self.params))


def giou_pdf(z: float, setup: TheorySetup) -> float:
    """Density of GIoU under the shifted-square model, for z strictly in (-1, 1)."""
    if not -1.0 < z < 1.0:
        raise ValueError(f"giou_pdf is defined on the open interval (-1, 1), got z={z}")
    omega, sigma = setup.omega, setup.sigma
    t = omega * (1.0 - z) / (sigma * (1.0 + z))
    return (
        4.0 * omega / ((1.0 + z) ** 2 * math.sqrt(2.0 * math.pi) * sigma)
        * math.exp(-0.5 * t * t)
    )


def _check_moment_criterion(cid: CriterionId) -> None:
    if cid not in _MOMENT_CRITERIA:
        name = cid.value if isinstance(cid, CriterionId) else cid
        raise ValueError(f"no theoretical moment for criterion {name!r}")


def _kronrod15(f, a, b):
    """QUADPACK qk15 on each interval [a[i], b[i]]: the 15-point Kronrod value and
    its resasc error estimate, from one call of f on every interval's nodes."""
    centre, half = (a + b) / 2, (b - a) / 2
    fx = f(centre[:, None] + half[:, None] * _NODES)
    # weights applied by multiply and sum, so the bits depend on numpy alone, not BLAS
    kronrod = (fx * _KRONROD_WEIGHTS).sum(axis=1)
    gauss = (fx * _GAUSS_WEIGHTS).sum(axis=1)
    resabs = (np.abs(fx) * _KRONROD_WEIGHTS).sum(axis=1) * half
    resasc = (np.abs(fx - kronrod[:, None] / 2) * _KRONROD_WEIGHTS).sum(axis=1) * half
    err = np.abs((kronrod - gauss) * half)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where(resasc > 0.0, scaled, err)
    return kronrod * half, np.maximum(err, 50.0 * _EPS * resabs)


def _quad(f, lo, hi, points=()):
    """Integral of the array function f over [lo, hi], broken at points.

    Each round applies G7K15 to every open interval at once. An interval is
    accepted when its error estimate is at most QUAD_ABS_TOL times its share
    of [lo, hi], or when it is too narrow to bisect in floating point; the
    others are bisected. Near a singularity, rounding noise can keep many tiny
    intervals above their share: where bisecting would take the partition
    past QUAD_LIMIT intervals, the partition is kept as it stands if its
    summed error estimate is at most QUAD_ABS_TOL. Otherwise, and for a summed
    estimate above QUAD_MAX_ERROR, QuadratureNonConvergence is raised.
    """
    edges = np.array([lo, *points, hi], dtype=float)
    a, b = edges[:-1], edges[1:]
    values, errors = [], []
    while a.size:
        value, err = _kronrod15(f, a, b)
        mid = (a + b) / 2
        done = (err <= QUAD_ABS_TOL * (b - a) / (hi - lo)) | (mid <= a) | (mid >= b)
        if len(values) + a.size + (~done).sum() > QUAD_LIMIT:
            estimate = math.fsum(errors) + math.fsum(err)
            if not estimate <= QUAD_ABS_TOL:
                raise QuadratureNonConvergence(
                    f"quadrature on [{lo:g}, {hi:g}] needs more than {QUAD_LIMIT} intervals; "
                    f"error estimate {estimate:.3e}"
                )
            done[:] = True
        values.extend(value[done])
        errors.extend(err[done])
        a, b, mid = a[~done], b[~done], mid[~done]
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
    estimate = math.fsum(errors)
    if not estimate <= QUAD_MAX_ERROR:
        raise QuadratureNonConvergence(
            f"quadrature error estimate {estimate:.3e} above tolerance on [{lo:g}, {hi:g}]"
        )
    return math.fsum(values)


def theoretical_moment(cid: CriterionId, order: int, setup: TheorySetup) -> float:
    """E[C(X)^order] for order in {1, 2} by adaptive quadrature of each half
    line: absolute tolerance QUAD_ABS_TOL (1e-10), largest accepted error
    estimate QUAD_MAX_ERROR (1e-8), each doubled for the moment.

    The IoU/SIoU atom at zero (non-overlap clipped to 0) contributes nothing
    to either moment, so only the continuous part is integrated.
    """
    check_count("order", order, 1, 2)
    _check_moment_criterion(cid)
    omega, sigma = setup.omega, setup.sigma
    square = (0.0, 0.0, omega, omega)
    norm = 1.0 / (math.sqrt(2.0 * math.pi) * sigma)

    def integrand(x):
        value = kernel(cid, (x, 0.0, omega, omega), square, setup.params)
        return value**order * norm * np.exp(-0.5 * (x / sigma) ** 2)

    if cid not in HULL_CRITERIA:
        # the criterion is identically 0 beyond omega; the truncated Gaussian tail
        # beyond 12 sigma carries negligible mass
        hi = min(omega, TAIL_SIGMAS * sigma)
        points = ()
    else:
        hi = TAIL_SIGMAS * sigma
        points = (omega,) if omega < hi else ()
    # symmetric in the shift, so integrate the positive half and double
    return 2.0 * _quad(integrand, 0.0, hi, points=points)


def moment_consistency_report(
    setups: Sequence[TheorySetup],
    criteria: Sequence[CriterionId] = _MOMENT_CRITERIA,
    n: int = 1_000_000,
    seed: int = 0,
) -> list[dict]:
    """Paired quadrature/Monte Carlo moments with z-scores; |z| > 4 is flagged.
    With every sample equal (std_error 0), z is 0 if the Monte Carlo mean is
    within the quadrature's error bound of the quadrature value, else inf.

    One `summarize_criteria` draw per setup feeds every criterion and both
    moment orders, reduced chunk by chunk. Setup i draws from the sub-seed
    `derive_seed(seed, i)`, as `moments` does per omega, so no two setups
    score the same shifts. A criterion without a theoretical moment is
    rejected before any draw.
    """
    for cid in criteria:
        _check_moment_criterion(cid)
    rows = []
    for i, setup in enumerate(setups):
        model = ShiftModel(sigma_base=setup.sigma)
        drawn = summarize_criteria(criteria, setup.omega, model, n, derive_seed(seed, i), setup.params, orders=(1, 2))
        for cid, summaries in zip(criteria, drawn):
            for order, mc in zip((1, 2), summaries):
                theory = theoretical_moment(cid, order, setup)
                if mc.std_error > 0:
                    z = (mc.mean - theory) / mc.std_error
                else:
                    z = 0.0 if abs(mc.mean - theory) <= 2 * QUAD_MAX_ERROR else float("inf")
                rows.append(
                    {
                        "criterion": cid.value,
                        "omega": setup.omega,
                        "sigma": setup.sigma,
                        "a": setup.a,
                        "order": order,
                        "theory": theory,
                        "mc": mc.mean,
                        "std_error": mc.std_error,
                        "z_score": z,
                        "flagged": abs(z) > 4.0,
                    }
                )
    return rows
