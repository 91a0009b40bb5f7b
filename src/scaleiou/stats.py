"""Shift-response curves and Monte Carlo analysis of criteria under detector noise.

The randomized model: a predicted square of width omega is offset from a
ground-truth square of width size_ratio * omega by a shift drawn from
N(0, sigma(omega)^2), applied horizontally or to both axes (diagonal).
sigma(omega) = sigma_base + sigma_slope * omega covers both the fixed and the
affine inaccuracy settings.

Sampling is chunked with counter-based sub-seeds, so the samples do not
depend on how many threads draw them, and two criteria simulated with the
same (seed, model, n, omega) see exactly the same shift sequence. One chunk
driver, `_map_chunks`, runs a function on each seeded chunk in a thread pool
and yields the results in chunk order. Each chunk is drawn, scored for every
requested criterion from one `criteria.areas` call, and reduced inside its
worker: `summarize_criteria` merges per-chunk (count, mean, M2) left to right
(Chan, Golub & LeVeque 1979) and `simulate_histogram` adds per-chunk counts on
fixed edges. So `moments`, `theory --check-mc` and `simulate` hold about one
chunk per thread, not the whole draw. `simulate_criteria` concatenates the
scored chunks for callers that need every sample. `order-check` draws random
box triples from the same driver, in chunk order without a set end, and stops
once it has counted n; so every draw is the same for any thread count.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, Sequence

import numpy as np

from .criteria import CriterionId, CriterionParams, DEFAULT_PARAMS, FLOAT_MAX, HULL_CRITERIA, POSITIVE
from .criteria import areas, check_count, check_range, check_size, from_areas, kernel, value_range
from .errors import InsufficientSamples

CHUNK_SIZE = 1 << 16
# Upper bounds of a requested count: Monte Carlo samples or random triples,
# and histogram or curve points. The streamed reductions hold about one chunk
# per thread whatever the count; only the callers that keep every sample
# (`simulate_criteria`, `simulate --pdf kde`) grow with it.
MAX_SAMPLES = 10**8
MAX_GRID = 10**6
# fewest samples of a summary (an unbiased std) and of a density estimate
MIN_SUMMARY_SAMPLES = 2
MIN_PDF_SAMPLES = 10


class ShiftDirection(Enum):
    HORIZONTAL = "horizontal"
    DIAGONAL = "diagonal"


@dataclass(frozen=True)
class ShiftModel:
    """Stochastic detector-inaccuracy model; sigma(omega) and the ground-truth
    width size_ratio * omega are range-checked where they are used."""

    direction: ShiftDirection = ShiftDirection.HORIZONTAL
    sigma_base: float = 16.0
    sigma_slope: float = 0.0
    size_ratio: float = 1.0

    def __post_init__(self):
        check_range("sigma_base", self.sigma_base, POSITIVE)
        check_range("sigma_slope", self.sigma_slope, 0.0, FLOAT_MAX)
        check_range("size_ratio", self.size_ratio, POSITIVE, FLOAT_MAX)

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


def _squares(omega: float, dx, dy, size_ratio: float):
    """Center-form components of a predicted square of width omega offset by
    (dx, dy) and a ground-truth square of width size_ratio * omega at the
    origin; both widths must pass the box size rule."""
    w1 = float(omega)
    w2 = float(size_ratio) * w1
    check_size("omega", w1, w1)
    check_size("size_ratio * omega", w2, w2)
    return (dx, dy, w1, w1), (0.0, 0.0, w2, w2)


def criterion_on_shifts(
    cid: CriterionId,
    omega: float,
    dx: np.ndarray,
    dy: np.ndarray | float,
    size_ratio: float = 1.0,
    params: CriterionParams = DEFAULT_PARAMS,
) -> np.ndarray:
    """Criterion between a predicted square of width omega offset by (dx, dy)
    and a ground-truth square of width size_ratio * omega at the origin.
    dx and dy broadcast, so horizontal shifts pass dy = 0.0 and the y extent
    is computed once."""
    return kernel(cid, *_squares(omega, dx, dy, size_ratio), params)


def shift_curve(
    cid: CriterionId,
    omega: float,
    shifts: Sequence[float],
    direction: ShiftDirection = ShiftDirection.HORIZONTAL,
    size_ratio: float = 1.0,
    params: CriterionParams = DEFAULT_PARAMS,
) -> list[tuple[float, float]]:
    """Deterministic response curve: criterion value per shift magnitude."""
    eps = np.asarray(shifts, dtype=float)
    check_range("shifts", float(np.min(eps, initial=0.0)), 0.0)  # NaN propagates to min and max
    check_range("shifts", float(np.max(eps, initial=0.0)), 0.0)
    dy = eps if direction is ShiftDirection.DIAGONAL else 0.0
    values = criterion_on_shifts(cid, omega, eps, dy, size_ratio, params)
    return list(zip(eps.tolist(), values.tolist()))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _map_chunks(fn, n: Optional[int], seed: int, n_threads: Optional[int] = None) -> Iterator:
    """fn applied to each chunk (SeedSequence([seed, i]), size) of n samples, or with
    n None to CHUNK_SIZE chunks without end, yielded in chunk order. The chunks run on
    one thread per usable CPU, capped by the chunk count (and by n_threads, which only
    the benchmark's `simulate_criterion` call passes), at most 4 per thread ahead of
    the caller; without end, where the caller may stop at any chunk, 1 per thread until
    the first result. When the caller stops, every chunk not yet started is cancelled."""
    if n_threads is not None:
        check_count("n_threads", n_threads, 1)
    indices = itertools.count() if n is None else range(-(-n // CHUNK_SIZE))
    chunks = ((np.random.SeedSequence([seed, i]), CHUNK_SIZE if n is None else min(CHUNK_SIZE, n - i * CHUNK_SIZE))
              for i in indices)
    n_workers = min(_usable_cpus(), n_threads or math.inf, math.inf if n is None else len(indices))
    if n_workers <= 1:
        yield from map(fn, chunks)
        return
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        ahead = deque(pool.submit(fn, c) for c in itertools.islice(chunks, (1 if n is None else 4) * n_workers))
        try:
            while ahead:
                result = ahead.popleft().result()
                ahead.extend(pool.submit(fn, c) for c in itertools.islice(chunks, 4 * n_workers - len(ahead)))
                yield result
        finally:
            for future in ahead:
                future.cancel()


def _shift_draw(omega: float, model: ShiftModel, n: int, seed: int):
    """Check the draw's inputs; return the function that draws one seeded chunk of
    shifts from N(0, sigma(omega)^2)."""
    check_count("n", n, 1, MAX_SAMPLES)
    sigma = check_range(f"sigma(omega) at omega={omega!r}", model.sigma(omega), POSITIVE)
    check_count("seed", seed, 0)

    def draw(item):
        ss, size = item
        return np.random.default_rng(ss).normal(0.0, sigma, size)

    return draw


def sample_shifts(omega: float, model: ShiftModel, n: int, seed: int) -> np.ndarray:
    """Draw n shifts from N(0, sigma(omega)^2) in seeded chunks, the same for any thread
    count, on the pool of `_map_chunks`: one thread per usable CPU, capped by the chunk count."""
    return np.concatenate(list(_map_chunks(_shift_draw(omega, model, n, seed), n, seed)))


def _scorer(
    cids: Sequence[CriterionId],
    omega: float,
    model: ShiftModel,
    n: int,
    seed: int,
    params: CriterionParams,
):
    """Check the inputs of a draw and of both squares; return the function that
    draws one chunk and yields each criterion's values on it, in cids order, from
    one `areas` result, with the hull only if a criterion reads it."""
    draw = _shift_draw(omega, model, n, seed)
    _squares(omega, 0.0, 0.0, model.size_ratio)
    diagonal = model.direction is ShiftDirection.DIAGONAL
    needs_areas = any(cid is not CriterionId.NWD for cid in cids)
    hull = any(cid in HULL_CRITERIA for cid in cids)

    def score(item) -> Iterator[np.ndarray]:
        shifts = draw(item)
        a, b = _squares(omega, shifts, shifts if diagonal else 0.0, model.size_ratio)
        geometry = areas(a, b, hull=hull) if needs_areas else None
        return (from_areas(cid, geometry, a, b, params) for cid in cids)

    return score


def simulate_criteria(
    cids: Sequence[CriterionId],
    omega: float,
    model: ShiftModel,
    n: int,
    seed: int,
    params: CriterionParams = DEFAULT_PARAMS,
    n_threads: Optional[int] = None,
) -> list[np.ndarray]:
    """n i.i.d. draws of each criterion in cids under the shift model, one
    array per entry of cids, in order and repeats included.

    Deterministic given (seed, model, n, omega). Every criterion is scored
    on the same shift sequence, and each chunk of it on one `areas` result,
    inside the chunk's worker; so criteria can be compared sample-by-sample.
    The arrays hold every sample: a reduction that needs only moments or
    counts is streamed by `summarize_criteria` or `simulate_histogram`.
    n_threads is as in `simulate_criterion`.
    """
    score = _scorer(cids, omega, model, n, seed, params)
    columns = zip(*_map_chunks(lambda item: list(score(item)), n, seed, n_threads))
    return [np.concatenate(parts) for parts in columns]


def simulate_criterion(
    cid: CriterionId,
    omega: float,
    model: ShiftModel,
    n: int,
    seed: int,
    params: CriterionParams = DEFAULT_PARAMS,
    n_threads: Optional[int] = None,
) -> np.ndarray:
    """n i.i.d. draws of the criterion under the shift model: the samples
    `simulate_criteria` gives it in any list of criteria. n_threads caps the pool
    of `_map_chunks` and changes no sample; only the benchmark passes it, until
    the benchmark reads the program's own spans."""
    return simulate_criteria([cid], omega, model, n, seed, params, n_threads)[0]


def _need_samples(n: int, minimum: int) -> None:
    if n < minimum:
        raise InsufficientSamples(f"need at least {minimum} samples, got {n}")


def _moments(samples: np.ndarray) -> tuple[int, float, float]:
    """(count, mean, sum of squared deviations from the mean) of a non-empty
    float array, each as `np.mean` and `np.std` compute it."""
    n = samples.size
    mean = float(np.sum(samples)) / n
    deviations = samples - mean
    deviations *= deviations
    return n, mean, float(np.sum(deviations))


def _merged_summary(parts: Sequence[tuple[int, float, float]], omega: float) -> DistributionSummary:
    """Summary of the union of sample sets given by their `_moments`, merged left
    to right by the pairwise update of Chan, Golub & LeVeque (1979). One part is
    not merged, so its summary is bit-equal to `np.mean` and `np.std(ddof=1)`."""
    n, mean, m2 = parts[0]
    for n_b, mean_b, m2_b in parts[1:]:
        total = n + n_b
        delta = mean_b - mean
        mean += delta * n_b / total
        m2 += m2_b + delta * delta * n * n_b / total
        n = total
    _need_samples(n, MIN_SUMMARY_SAMPLES)
    std = math.sqrt(m2 / (n - 1))
    return DistributionSummary(omega=omega, mean=mean, std_dev=std, std_error=std / math.sqrt(n), n_samples=n)


def summarize(samples: np.ndarray, omega: float = float("nan")) -> DistributionSummary:
    """Mean, unbiased standard deviation, and standard error of a sample set."""
    samples = np.asarray(samples, dtype=float)
    _need_samples(samples.size, MIN_SUMMARY_SAMPLES)
    return _merged_summary([_moments(samples)], omega)


def summarize_criteria(
    cids: Sequence[CriterionId],
    omega: float,
    model: ShiftModel,
    n: int,
    seed: int,
    params: CriterionParams = DEFAULT_PARAMS,
    orders: Sequence[int] = (1,),
) -> list[list[DistributionSummary]]:
    """For each entry of cids, one summary per order of the samples
    `simulate_criteria` draws: of the values for order 1, of their squares for
    order 2. Each chunk is scored and reduced in its worker and the chunks are
    merged in chunk order, so the result is the same for any thread count and
    memory holds about one chunk per thread."""
    for order in orders:
        check_count("order", order, 1, 2)
    score = _scorer(cids, omega, model, n, seed, params)

    def reduce(item):
        return [[_moments(values if order == 1 else values * values) for order in orders]
                for values in score(item)]

    chunks = list(_map_chunks(reduce, n, seed))
    return [[_merged_summary([chunk[i][k] for chunk in chunks], omega) for k in range(len(orders))]
            for i in range(len(cids))]


class PdfMethod(Enum):
    HISTOGRAM = "histogram"
    GAUSSIAN_KDE = "kde"


def _histogram_density(counts: np.ndarray, edges: np.ndarray, n: int) -> list[tuple[float, float]]:
    """(bin centre, counts / (n * bin width)) per bin of n samples; samples
    outside the edges count in n only."""
    density = counts / (n * np.diff(edges))
    centers = (edges[:-1] + edges[1:]) / 2
    return list(zip(centers.tolist(), density.tolist()))


def simulate_histogram(
    cid: CriterionId,
    omega: float,
    model: ShiftModel,
    n: int,
    seed: int,
    params: CriterionParams = DEFAULT_PARAMS,
    bins: int = 64,
) -> list[tuple[float, float]]:
    """The histogram density of `empirical_pdf` on value_range(cid) of the
    samples `simulate_criterion` draws, with the same bits for any n: each
    chunk is scored and binned in its worker on the same fixed edges, and the
    integer counts are added."""
    check_count("bins", bins, 1, MAX_GRID)
    score = _scorer([cid], omega, model, n, seed, params)
    _need_samples(n, MIN_PDF_SAMPLES)
    bounds = value_range(cid)

    def count(item):
        (values,) = score(item)
        return np.histogram(values, bins=bins, range=bounds)

    chunks = list(_map_chunks(count, n, seed))
    return _histogram_density(sum(counts for counts, _ in chunks), chunks[0][1], n)


def silverman_bandwidth(samples: np.ndarray) -> float:
    """Silverman's rule of thumb: 0.9 * min(std, IQR/1.34) * n**(-1/5)."""
    std = float(np.std(samples))
    q75, q25 = np.percentile(samples, [75, 25])
    spread = min(std, (q75 - q25) / 1.34)
    if spread <= 0:
        spread = max(std, 1e-12)
    return 0.9 * spread * samples.size ** (-0.2)


def gaussian_kde(samples: np.ndarray, points: np.ndarray, factor: float) -> np.ndarray:
    """The Gaussian kernel density of the samples at each point, as
    scipy.stats.gaussian_kde(samples, bw_method=factor)(points) computes it
    to about 1e-13 relative: the kernel variance is the sample covariance with
    weights 1/n, times factor squared; samples and points are scaled by the
    kernel's inverse standard deviation, and each density is the sum of the
    kernels, times the normalisation, over n: one point at a time, in one
    reused array of n floats.
    """
    n = samples.size
    width = math.sqrt(float(np.cov(samples, aweights=np.full(n, 1.0 / n)))) * factor  # the kernel's std
    if not width > 0 or math.isinf(1 / width):
        raise InsufficientSamples("KDE bandwidth is below the float range")
    scale = 1 / width
    centres, at = samples * scale, points * scale
    sums, kernel = np.empty(at.size), np.empty(n)
    for i, point in enumerate(at):
        np.subtract(point, centres, out=kernel)
        np.square(kernel, out=kernel)
        kernel *= -0.5
        np.exp(kernel, out=kernel)
        sums[i] = kernel.sum()
    return sums * (scale / math.sqrt(2 * math.pi) / n)


def empirical_pdf(
    samples: np.ndarray,
    method: PdfMethod = PdfMethod.HISTOGRAM,
    bounds: Optional[tuple[float, float]] = None,
    bins: int = 64,
) -> list[tuple[float, float]]:
    """Density estimate on a uniform grid; the trapezoid integral is ~1.

    bounds defaults to the sample range; pass value_range(cid) to pin the
    criterion's theoretical range. The KDE (`gaussian_kde`) uses Silverman's
    bandwidth on a 256-point grid, widened by 4 bandwidths beyond the bounds
    so leaked boundary mass still integrates to ~1.
    """
    samples = np.asarray(samples, dtype=float)
    _need_samples(samples.size, MIN_PDF_SAMPLES)
    if bounds is None:
        bounds = (float(samples.min()), float(samples.max()))
    lo, hi = bounds

    if method is PdfMethod.HISTOGRAM:
        check_count("bins", bins, 1, MAX_GRID)
        counts, edges = np.histogram(samples, bins=bins, range=(lo, hi))
        return _histogram_density(counts, edges, samples.size)

    if method is PdfMethod.GAUSSIAN_KDE:
        bw = silverman_bandwidth(samples)
        std = float(np.std(samples))
        if std <= 0:
            raise InsufficientSamples("KDE needs non-constant samples")
        grid = np.linspace(lo - 4 * bw, hi + 4 * bw, 256)
        return list(zip(grid.tolist(), gaussian_kde(samples, grid, bw / std).tolist()))

    raise ValueError(f"unknown pdf method {method!r}")


def derive_seed(master_seed: int, index: int) -> int:
    """Counter-based sub-seed split, stable across evaluation order."""
    check_count("seed", master_seed, 0)
    check_count("index", index, 0)
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1)[0])


def moment_curves(
    cids: Sequence[CriterionId],
    omegas: Sequence[float],
    model: ShiftModel,
    n: int,
    seed: int,
    params: CriterionParams = DEFAULT_PARAMS,
) -> list[list[DistributionSummary]]:
    """For each entry of cids, one DistributionSummary per omega. Each omega
    gets a sub-seed derived from the master seed by counter, and one
    `summarize_criteria` draw shared by every criterion."""
    if len(omegas) == 0:
        raise ValueError("omega grid must be non-empty")
    per_omega = []
    for i, omega in enumerate(omegas):
        summaries = summarize_criteria(cids, omega, model, n, derive_seed(seed, i), params)
        per_omega.append([summary for (summary,) in summaries])
    return [list(curve) for curve in zip(*per_omega)]


def moment_curve(
    cid: CriterionId,
    omegas: Sequence[float],
    model: ShiftModel,
    n: int,
    seed: int,
    params: CriterionParams = DEFAULT_PARAMS,
) -> list[DistributionSummary]:
    """One DistributionSummary per omega: `moment_curves` of one criterion."""
    return moment_curves([cid], omegas, model, n, seed, params)[0]


# random boxes of the order-preservation check: square, centers uniform in a
# field, widths log-uniform
ORDER_FIELD_SIZE = 512.0
ORDER_WIDTH_MIN = 4.0
ORDER_WIDTH_MAX = 256.0


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


def _order_chunk(params: CriterionParams):
    """The function that draws one seeded chunk of random box triples (x, then y,
    then log-width, each of shape (3, size)) and returns, for its triples with a
    nonzero IoU in draw order, whether SIoU keeps their IoU order and whether
    they are aligned."""
    log_lo, log_hi = math.log(ORDER_WIDTH_MIN), math.log(ORDER_WIDTH_MAX)

    def score(item):
        ss, size = item
        rng = np.random.default_rng(ss)
        xs = rng.uniform(0, ORDER_FIELD_SIZE, (3, size))
        ys = rng.uniform(0, ORDER_FIELD_SIZE, (3, size))
        ws = np.exp(rng.uniform(log_lo, log_hi, (3, size)))
        b1, b2, b3 = ((xs[k], ys[k], ws[k], ws[k]) for k in range(3))
        u12 = kernel(CriterionId.IOU, b1, b2)
        u13 = kernel(CriterionId.IOU, b1, b3)
        counted = np.flatnonzero((u12 != 0) | (u13 != 0))
        lo_is_12 = u12[counted] <= u13[counted]
        xs, ys, ws = xs[:, counted], ys[:, counted], ws[:, counted]
        b1, b2, b3 = ((xs[k], ys[k], ws[k], ws[k]) for k in range(3))
        s12 = kernel(CriterionId.SIOU, b1, b2, params)
        s13 = kernel(CriterionId.SIOU, b1, b3, params)
        preserved = np.where(lo_is_12, s12 <= s13 + 1e-12, s13 <= s12 + 1e-12)
        a1, a2, a3 = ws * ws
        aligned = np.where(lo_is_12, a1 + a2 <= a1 + a3, a1 + a3 <= a1 + a2)
        return preserved, aligned

    return score


def order_preservation_counts(
    params: CriterionParams,
    n_triples: int,
    seed: int,
) -> OrderPreservationCounts:
    """Count random box triples (b1, b2, b3) on which SIoU ranks the pairs
    (b1,b2) / (b1,b3) in the same order as IoU, overall and on the aligned
    subset.

    Triples where both IoUs are exactly zero are skipped, since the ordering
    is vacuous there. The triples are drawn in seeded chunks of CHUNK_SIZE,
    chunk i from SeedSequence([seed, i]), by the chunk driver in chunk order,
    and the stream stops once n_triples are counted: of the triples with a
    nonzero IoU, the first n_triples in chunk order, and in draw order within
    a chunk, count. So the counts do not depend on the thread count, and each
    thread holds about one chunk whatever n_triples is. For gamma <= 0 the
    exponent p >= 1 shrinks as the boxes grow, so every aligned triple is
    preserved; on the remaining triples the smaller-IoU pair has the smaller
    exponent and the order can flip.
    """
    check_count("n_triples", n_triples, 1, MAX_SAMPLES)
    check_count("seed", seed, 0)
    preserved = n_aligned = aligned_preserved = 0
    needed = n_triples
    with closing(_map_chunks(_order_chunk(params), None, seed)) as chunks:
        for ok, aligned in chunks:
            ok, aligned = ok[:needed], aligned[:needed]
            preserved += int(np.count_nonzero(ok))
            n_aligned += int(np.count_nonzero(aligned))
            aligned_preserved += int(np.count_nonzero(ok & aligned))
            needed -= ok.size
            if needed == 0:
                break
    return OrderPreservationCounts(n_triples, preserved, n_aligned, aligned_preserved)


def order_preservation_rate(
    params: CriterionParams,
    n_triples: int,
    seed: int,
) -> float:
    """Fraction of random box triples on which SIoU ranks the pairs (b1,b2) /
    (b1,b3) in the same order as IoU; see `order_preservation_counts`. For
    gamma <= 0 the rate can fall below 1."""
    counts = order_preservation_counts(params, n_triples, seed)
    return counts.preserved / counts.n_triples
