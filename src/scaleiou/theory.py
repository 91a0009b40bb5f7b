"""Closed-form GIoU density and quadrature moments for the shifted-square model.

Setting: two same-size squares of width omega, the predicted one shifted
horizontally by X ~ N(0, sigma^2). Each criterion reduces to a function of the
scalar shift,

    IoU(x)   = max(0, (omega - |x|) / (omega + |x|))
    GIoU(x)  = (omega - |x|) / (omega + |x|)
    SIoU(x)  = IoU(x)**p,  GSIoU(x) = sign(GIoU) * |GIoU|**p

and moments E[C(X)^k] are evaluated by adaptive quadrature of these
one-dimensional integrals. This is the oracle the Monte Carlo sampler is
checked against. The GIoU density uses the 4*omega prefactor; the testable
normalization (integral = 1) pins that choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.integrate import quad

from .criteria import CriterionId, CriterionParams, DEFAULT_PARAMS, exponent_p
from .errors import QuadratureNonConvergence
from .geometry import Box
from .stats import ShiftModel, simulate_criterion

# Gaussian mass beyond 12 sigma is < 1e-30; criteria are bounded by 1, so
# truncating the tail there is exact at the working tolerance.
TAIL_SIGMAS = 12.0
QUAD_ABS_TOL = 1e-10
QUAD_LIMIT = 400

_MOMENT_CRITERIA = (
    CriterionId.IOU,
    CriterionId.GIOU,
    CriterionId.SIOU,
    CriterionId.GSIOU,
)


@dataclass(frozen=True)
class TheorySetup:
    """Width, noise level, and criterion parameters of the theoretical model."""

    omega: float
    sigma: float
    params: CriterionParams = field(default=DEFAULT_PARAMS)

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError(f"omega must be > 0, got {self.omega}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")

    @property
    def a(self) -> float:
        """Dimensionless noise ratio sigma / omega."""
        return self.sigma / self.omega

    @property
    def p(self) -> float:
        """Scale-adaptive exponent of two omega-width squares, the one the
        Monte Carlo sampler uses: 1 - gamma * exp(-omega / kappa) up to rounding."""
        square = Box(0.0, 0.0, self.omega, self.omega)
        return exponent_p(square, square, self.params)


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


def _profile(cid: CriterionId, setup: TheorySetup):
    """The criterion as a function of a non-negative horizontal shift."""
    omega = setup.omega
    if cid is CriterionId.IOU:
        return lambda x: max(0.0, (omega - x) / (omega + x))
    if cid is CriterionId.GIOU:
        return lambda x: (omega - x) / (omega + x)
    p = setup.p
    if cid is CriterionId.SIOU:
        return lambda x: max(0.0, (omega - x) / (omega + x)) ** p
    if cid is CriterionId.GSIOU:

        def gsiou_profile(x):
            g = (omega - x) / (omega + x)
            return math.copysign(abs(g) ** p, g) if g != 0 else 0.0

        return gsiou_profile
    raise ValueError(f"no theoretical moment for criterion {cid!r}")


def _quad(f, lo, hi, points=None):
    value, err, *rest = quad(
        f, lo, hi, points=points, epsabs=QUAD_ABS_TOL, epsrel=0.0,
        limit=QUAD_LIMIT, full_output=True,
    )
    if len(rest) > 1:  # scipy appends a message on failure
        raise QuadratureNonConvergence(rest[1])
    if err > 1e-8:
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
    profile = _profile(cid, setup)
    omega, sigma = setup.omega, setup.sigma
    norm = 1.0 / (math.sqrt(2.0 * math.pi) * sigma)

    def integrand(x):
        return profile(x) ** order * norm * math.exp(-0.5 * (x / sigma) ** 2)

    if cid in (CriterionId.IOU, CriterionId.SIOU):
        # profile is identically 0 beyond omega; the truncated Gaussian tail
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
    n_threads: int = 1,
) -> list[dict]:
    """Paired quadrature/Monte Carlo moments with z-scores; |z| > 4 is flagged.

    One simulation per (criterion, setup) feeds both moment orders.
    """
    rows = []
    for setup in setups:
        model = ShiftModel(sigma_base=setup.sigma)
        for cid in criteria:
            samples = simulate_criterion(
                cid, setup.omega, model, n, seed, setup.params, n_threads
            )
            for order in (1, 2):
                theory = theoretical_moment(cid, order, setup)
                powered = samples if order == 1 else samples * samples
                mc = float(np.mean(powered))
                se = float(np.std(powered, ddof=1)) / math.sqrt(n)
                z = (mc - theory) / se if se > 0 else float("inf")
                rows.append(
                    {
                        "criterion": cid.value,
                        "omega": setup.omega,
                        "sigma": setup.sigma,
                        "a": setup.a,
                        "order": order,
                        "theory": theory,
                        "mc": mc,
                        "std_error": se,
                        "z_score": z,
                        "flagged": abs(z) > 4.0,
                    }
                )
    return rows
