"""Shift-response curves and Monte Carlo analysis of criteria under detector noise.

The randomized model: a predicted square of width omega is offset from a
ground-truth square of width size_ratio * omega by a shift drawn from
N(0, sigma(omega)^2), applied horizontally or to both axes (diagonal).
sigma(omega) = sigma_base + sigma_slope * omega covers both the fixed and the
affine inaccuracy settings.

Sampling is chunked with counter-based sub-seeds, so serial and parallel runs
produce bit-identical sample streams, and two criteria simulated with the
same (seed, model, n, omega) see exactly the same shift sequence.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np
from scipy.stats import gaussian_kde

from .criteria import CriterionId, CriterionParams, DEFAULT_PARAMS, exponent, kernel, signed_power
from .errors import InsufficientSamples

CHUNK_SIZE = 1 << 16


class ShiftDirection(Enum):
    HORIZONTAL = "horizontal"
    DIAGONAL = "diagonal"


@dataclass(frozen=True)
class ShiftModel:
    """Stochastic detector-inaccuracy model."""

    direction: ShiftDirection = ShiftDirection.HORIZONTAL
    sigma_base: float = 16.0
    sigma_slope: float = 0.0
    size_ratio: float = 1.0

    def __post_init__(self):
        if self.sigma_base <= 0:
            raise ValueError(f"sigma_base must be > 0, got {self.sigma_base}")
        if self.sigma_slope < 0:
            raise ValueError(f"sigma_slope must be >= 0, got {self.sigma_slope}")
        if self.size_ratio <= 0:
            raise ValueError(f"size_ratio must be > 0, got {self.size_ratio}")

    def sigma(self, omega: float) -> float:
        return self.sigma_base + self.sigma_slope * omega


@dataclass(frozen=True)
class DistributionSummary:
    """Per-omega sample statistics."""

    omega: float
    mean: float
    std_dev: float
    std_error: float
    n_samples: int


def criterion_on_shifts(
    cid: CriterionId,
    omega: float,
    dx: np.ndarray,
    dy: np.ndarray,
    size_ratio: float = 1.0,
    params: CriterionParams = DEFAULT_PARAMS,
) -> np.ndarray:
    """Criterion between a predicted square of width omega offset by (dx, dy)
    and a ground-truth square of width size_ratio * omega at the origin."""
    w1 = float(omega)
    w2 = float(size_ratio) * w1
    return kernel(cid, (dx, dy, w1, w1), (0.0, 0.0, w2, w2), params)


def shift_curve(
    cid: CriterionId,
    omega: float,
    shifts: Sequence[float],
    direction: ShiftDirection = ShiftDirection.HORIZONTAL,
    size_ratio: float = 1.0,
    params: CriterionParams = DEFAULT_PARAMS,
) -> list[tuple[float, float]]:
    """Deterministic response curve: criterion value per shift magnitude."""
    if omega <= 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    eps = np.asarray(shifts, dtype=float)
    if np.any(eps < 0):
        raise ValueError("shifts must be non-negative")
    dx = eps
    dy = eps if direction is ShiftDirection.DIAGONAL else np.zeros_like(eps)
    values = criterion_on_shifts(cid, omega, dx, dy, size_ratio, params)
    return list(zip(eps.tolist(), values.tolist()))


def _chunk_seeds(seed: int, n: int):
    n_chunks = (n + CHUNK_SIZE - 1) // CHUNK_SIZE
    sizes = [CHUNK_SIZE] * (n_chunks - 1) + [n - CHUNK_SIZE * (n_chunks - 1)]
    return [(np.random.SeedSequence([seed, i]), sz) for i, sz in enumerate(sizes)]


def sample_shifts(omega: float, model: ShiftModel, n: int, seed: int, n_threads: int = 1) -> np.ndarray:
    """Draw n shifts from N(0, sigma(omega)^2), chunked for reproducible parallelism."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    sigma = model.sigma(omega)

    def draw(item):
        ss, size = item
        return np.random.default_rng(ss).normal(0.0, sigma, size)

    chunks = _chunk_seeds(seed, n)
    n_workers = min(n_threads, len(chunks), os.cpu_count() or 1)
    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            parts = list(pool.map(draw, chunks))
    else:
        parts = [draw(c) for c in chunks]
    return np.concatenate(parts)


def simulate_criterion(
    cid: CriterionId,
    omega: float,
    model: ShiftModel,
    n: int,
    seed: int,
    params: CriterionParams = DEFAULT_PARAMS,
    n_threads: int = 1,
) -> np.ndarray:
    """n i.i.d. draws of the criterion under the shift model.

    Deterministic given (seed, model, n, omega); the shift sequence does not
    depend on the criterion, so criteria can be compared sample-by-sample.
    """
    shifts = sample_shifts(omega, model, n, seed, n_threads)
    dy = shifts if model.direction is ShiftDirection.DIAGONAL else np.zeros_like(shifts)
    return criterion_on_shifts(cid, omega, shifts, dy, model.size_ratio, params)


def summarize(samples: np.ndarray, omega: float = float("nan")) -> DistributionSummary:
    """Mean, unbiased standard deviation, and standard error of a sample set."""
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n < 2:
        raise InsufficientSamples(f"need at least 2 samples, got {n}")
    std = float(np.std(samples, ddof=1))
    return DistributionSummary(
        omega=omega,
        mean=float(np.mean(samples)),
        std_dev=std,
        std_error=std / math.sqrt(n),
        n_samples=n,
    )


class PdfMethod(Enum):
    HISTOGRAM = "histogram"
    GAUSSIAN_KDE = "kde"


def silverman_bandwidth(samples: np.ndarray) -> float:
    """Silverman's rule of thumb: 0.9 * min(std, IQR/1.34) * n**(-1/5)."""
    std = float(np.std(samples))
    q75, q25 = np.percentile(samples, [75, 25])
    spread = min(std, (q75 - q25) / 1.34)
    if spread <= 0:
        spread = max(std, 1e-12)
    return 0.9 * spread * samples.size ** (-0.2)


def empirical_pdf(
    samples: np.ndarray,
    method: PdfMethod = PdfMethod.HISTOGRAM,
    bandwidth: Optional[float] = None,
    bounds: Optional[tuple[float, float]] = None,
    bins: int = 64,
    grid_size: int = 256,
) -> list[tuple[float, float]]:
    """Density estimate on a uniform grid; the trapezoid integral is ~1.

    bounds defaults to the sample range; pass value_range(cid) to pin the
    criterion's theoretical range. The KDE grid is widened by 4 bandwidths
    beyond the bounds so leaked boundary mass still integrates to ~1.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size < 10:
        raise InsufficientSamples(f"need at least 10 samples, got {samples.size}")
    if bounds is None:
        bounds = (float(samples.min()), float(samples.max()))
    lo, hi = bounds

    if method is PdfMethod.HISTOGRAM:
        counts, edges = np.histogram(samples, bins=bins, range=(lo, hi))
        widths = np.diff(edges)
        density = counts / (samples.size * widths)
        centers = (edges[:-1] + edges[1:]) / 2
        return list(zip(centers.tolist(), density.tolist()))

    if method is PdfMethod.GAUSSIAN_KDE:
        bw = silverman_bandwidth(samples) if bandwidth is None else bandwidth
        std = float(np.std(samples))
        if std <= 0:
            raise InsufficientSamples("KDE needs non-constant samples")
        kde = gaussian_kde(samples, bw_method=bw / std)
        grid = np.linspace(lo - 4 * bw, hi + 4 * bw, grid_size)
        density = kde(grid)
        return list(zip(grid.tolist(), density.tolist()))

    raise ValueError(f"unknown pdf method {method!r}")


def derive_seed(master_seed: int, index: int) -> int:
    """Counter-based sub-seed split, stable across evaluation order."""
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1)[0])


def moment_curve(
    cid: CriterionId,
    omegas: Sequence[float],
    model: ShiftModel,
    n: int,
    seed: int,
    params: CriterionParams = DEFAULT_PARAMS,
    n_threads: int = 1,
) -> list[DistributionSummary]:
    """One DistributionSummary per omega, with per-omega sub-seeds derived
    from the master seed by counter."""
    if len(omegas) == 0:
        raise ValueError("omega grid must be non-empty")
    out = []
    for i, omega in enumerate(omegas):
        samples = simulate_criterion(
            cid, omega, model, n, derive_seed(seed, i), params, n_threads
        )
        out.append(summarize(samples, omega=omega))
    return out


@dataclass(frozen=True)
class BoxSamplerConfig:
    """Random-box distribution for the order-preservation check: square boxes,
    centers uniform in a field, widths log-uniform."""

    field_size: float = 512.0
    width_min: float = 4.0
    width_max: float = 256.0


@dataclass(frozen=True)
class OrderPreservationCounts:
    """Outcome of the order-preservation sampler.

    A triple is *aligned* when its smaller-IoU pair also has the
    smaller-or-equal average area. On an IoU tie, (b1,b2) counts as the
    smaller-IoU pair, as in the preservation check itself.
    """

    n_triples: int
    preserved: int
    n_aligned: int
    aligned_preserved: int


def order_preservation_counts(
    params: CriterionParams,
    n_triples: int,
    seed: int,
    sampler: BoxSamplerConfig = BoxSamplerConfig(),
) -> OrderPreservationCounts:
    """Count random box triples (b1, b2, b3) on which SIoU ranks the pairs
    (b1,b2) / (b1,b3) in the same order as IoU, overall and on the aligned
    subset.

    Triples where both IoUs are exactly zero are resampled (the ordering is
    vacuous there). For gamma <= 0 the exponent p >= 1 shrinks as the boxes
    grow, so every aligned triple is preserved; on the remaining triples the
    smaller-IoU pair has the smaller exponent and the order can flip.
    """
    if n_triples < 1:
        raise ValueError(f"n_triples must be >= 1, got {n_triples}")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    preserved = 0
    n_aligned = 0
    aligned_preserved = 0
    collected = 0
    while collected < n_triples:
        batch = min(4 * (n_triples - collected) + 1024, 1 << 20)
        xs = rng.uniform(0, sampler.field_size, (3, batch))
        ys = rng.uniform(0, sampler.field_size, (3, batch))
        ws = np.exp(
            rng.uniform(math.log(sampler.width_min), math.log(sampler.width_max), (3, batch))
        )
        b1, b2, b3 = ((xs[k], ys[k], ws[k], ws[k]) for k in range(3))
        u12 = kernel(CriterionId.IOU, b1, b2)
        u13 = kernel(CriterionId.IOU, b1, b3)
        keep = ~((u12 == 0) & (u13 == 0))
        u12, u13 = u12[keep], u13[keep]
        xs, ys, ws = xs[:, keep], ys[:, keep], ws[:, keep]
        b1, b2, b3 = ((xs[k], ys[k], ws[k], ws[k]) for k in range(3))
        s12 = signed_power(u12, exponent(b1, b2, params))
        s13 = signed_power(u13, exponent(b1, b3, params))
        lo_is_12 = u12 <= u13
        s_lo = np.where(lo_is_12, s12, s13)
        s_hi = np.where(lo_is_12, s13, s12)
        ok = s_lo <= s_hi + 1e-12
        a1, a2, a3 = ws * ws
        tau12, tau13 = a1 + a2, a1 + a3
        aligned = np.where(lo_is_12, tau12 <= tau13, tau13 <= tau12)
        take = min(ok.size, n_triples - collected)
        ok, aligned = ok[:take], aligned[:take]
        preserved += int(np.count_nonzero(ok))
        n_aligned += int(np.count_nonzero(aligned))
        aligned_preserved += int(np.count_nonzero(ok & aligned))
        collected += take
    return OrderPreservationCounts(n_triples, preserved, n_aligned, aligned_preserved)


def order_preservation_rate(
    params: CriterionParams,
    n_triples: int,
    seed: int,
    sampler: BoxSamplerConfig = BoxSamplerConfig(),
) -> float:
    """Fraction of random box triples on which SIoU ranks the pairs (b1,b2) /
    (b1,b3) in the same order as IoU; see `order_preservation_counts`. For
    gamma <= 0 the rate can fall below 1."""
    counts = order_preservation_counts(params, n_triples, seed, sampler)
    return counts.preserved / counts.n_triples
