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
quadrature is the oracle the sampler is checked against; the formulas above
are checked against it in the tests. The GIoU density uses the 4*omega
prefactor; the testable normalization (integral = 1) pins that choice.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .criteria import CriterionId, CriterionParams, DEFAULT_PARAMS, FLOAT_MAX, check_range, check_size, exponent, kernel
from .errors import QuadratureNonConvergence
from .stats import ShiftModel, derive_seed, summarize_criteria

# Gaussian mass beyond 12 sigma is < 1e-30; criteria are bounded by 1, so
# truncating the tail there is exact at the working tolerance.
TAIL_SIGMAS = 12.0
QUAD_ABS_TOL = 1e-10
QUAD_LIMIT = 400
# largest accepted error estimate of one half-line integral; a moment doubles it
QUAD_MAX_ERROR = 1e-8

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


def _quad(f, lo, hi, points=None):
    from scipy.integrate import quad  # imported on use, so commands without quadrature skip scipy

    value, err, *rest = quad(
        f, lo, hi, points=points, epsabs=QUAD_ABS_TOL, epsrel=0.0,
        limit=QUAD_LIMIT, full_output=True,
    )
    if len(rest) > 1:  # scipy appends a message on failure
        raise QuadratureNonConvergence(rest[1])
    if err > QUAD_MAX_ERROR:
        raise QuadratureNonConvergence(
            f"quadrature error estimate {err:.3e} above tolerance on [{lo}, {hi}]"
        )
    return value


def theoretical_moment(cid: CriterionId, order: int, setup: TheorySetup) -> float:
    """E[C(X)^order] for order in {1, 2} by adaptive quadrature (abs tol 1e-8).

    The IoU/SIoU atom at zero (non-overlap clipped to 0) contributes nothing
    to either moment, so only the continuous part is integrated.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    _check_moment_criterion(cid)
    omega, sigma = setup.omega, setup.sigma
    square = (0.0, 0.0, omega, omega)
    norm = 1.0 / (math.sqrt(2.0 * math.pi) * sigma)

    def integrand(x):
        value = float(kernel(cid, (x, 0.0, omega, omega), square, setup.params))
        return value**order * norm * math.exp(-0.5 * (x / sigma) ** 2)

    if cid in (CriterionId.IOU, CriterionId.SIOU):
        # the criterion is identically 0 beyond omega; the truncated Gaussian tail
        # beyond 12 sigma carries negligible mass
        hi = min(omega, TAIL_SIGMAS * sigma)
        points = None
    else:
        hi = TAIL_SIGMAS * sigma
        points = [omega] if omega < hi else None
    # symmetric in the shift, so integrate the positive half and double
    return 2.0 * _quad(integrand, 0.0, hi, points=points)


def theoretical_variance(cid: CriterionId, setup: TheorySetup) -> float:
    """E[Z^2] - E[Z]^2."""
    m1 = theoretical_moment(cid, 1, setup)
    m2 = theoretical_moment(cid, 2, setup)
    return m2 - m1 * m1


def moment_consistency_report(
    setups: Sequence[TheorySetup],
    criteria: Sequence[CriterionId] = _MOMENT_CRITERIA,
    n: int = 1_000_000,
    seed: int = 0,
    n_threads: Optional[int] = None,
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
        drawn = summarize_criteria(
            criteria, setup.omega, model, n, derive_seed(seed, i), setup.params, n_threads, orders=(1, 2)
        )
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
