"""Rank correlation, per-group means, relative gaps, and one-way ANOVA for
human rating data.

Ratings are ordinal (1..5) with heavy ties, so the Kendall correlation is the
tie-corrected tau-b. The relative gap of a criterion in size class s at
rating r is measured against the mean cell value across the three size
classes at that rating, so the gaps at each rating sum to zero.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .criteria import CriterionId, CriterionParams, DEFAULT_PARAMS, check_count, elementwise
from .errors import DegenerateInput, EmptyCell, InsufficientSamples, QuadratureNonConvergence
from .geometry import Box, InvalidRow, SizeClass, box_rule_probes, check_rows, size_indices

AGE_BUCKETS = ((10, 25), (25, 40), (40, 65))  # half-open (lo, hi] tertiles
# the groups of each grouping; a row's group is its position here
_GROUPS = {
    "size": tuple(s.value for s in SizeClass),
    "context": ("without-context", "with-context"),
    "expertise": ("inexperienced", "expert"),
    "age": tuple(f"({lo}, {hi}]" for lo, hi in AGE_BUCKETS),
}


@dataclass(frozen=True, eq=False)
class RatingTable:
    """Rating data as numpy columns, one row per participant answer: a 1..5
    rating of how well the proposal box covers the object annotated by the
    gt box. rating is (N,) int; gt and proposal are center-form (N, 4);
    context, expertise (1 or 0) and age are (N,) float, NaN where absent.
    The rating follows check_count and each box the Box rule.
    """

    rating: np.ndarray
    gt: np.ndarray
    proposal: np.ndarray
    context: np.ndarray
    expertise: np.ndarray
    age: np.ndarray

    def __post_init__(self):
        if {len(getattr(self, f.name)) for f in fields(self)} != {len(self)}:
            raise ValueError("the columns of a RatingTable differ in length")
        # each rule is an interval on the rating or on a box rule probe
        check_rows(len(self), [self.rating, *box_rule_probes(self.gt), *box_rule_probes(self.proposal)],
                   self._check_row)

    def _check_row(self, i: int) -> None:
        try:
            check_rating_row(Box, self.rating[i], self.gt[i].tolist(), self.proposal[i].tolist())
        except ValueError as exc:
            raise InvalidRow(i, exc) from exc

    def __len__(self) -> int:
        return len(self.rating)


def check_rating_row(make_box, rating, gt, proposal) -> None:
    """The rule of one rating row, in order: make_box(*gt) and then
    make_box(*proposal) build a Box, and the rating is an integer in 1..5.
    make_box is Box for center-form fields and Box.from_corner for corner
    form. A ValueError names the first rule broken, and the box that breaks it
    as "invalid gt box: ..." or "invalid proposal box: ..."."""
    for name, box in (("gt", gt), ("proposal", proposal)):
        try:
            make_box(*box)
        except ValueError as exc:
            raise ValueError(f"invalid {name} box: {exc}") from exc
    check_count("rating", rating, 1, 5)


def kendall_tau(x: Sequence[float], y: Sequence[float]) -> float:
    """Tie-corrected Kendall rank correlation (tau-b, Knight 1966).

    Exact integer pair counts, then the three float steps of
    scipy.stats.kendalltau(x, y, variant="b"), so the value is bit-identical
    to scipy's statistic; NaN in either input gives NaN, as there. Fewer
    than 2 pairs is InsufficientSamples.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise InsufficientSamples(f"need at least 2 pairs, got {x.size}")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise DegenerateInput("all values tied in one of the inputs")
    if np.isnan(x).any() or np.isnan(y).any():
        return math.nan
    order = np.lexsort((y, x))  # by x, ties in x by y
    x, y = x[order], y[order]
    x_starts = np.r_[True, x[1:] != x[:-1]]
    tot = x.size * (x.size - 1) // 2
    xtie = _tied_pairs(x_starts)
    y_sorted = np.sort(y)
    ytie = _tied_pairs(np.r_[True, y_sorted[1:] != y_sorted[:-1]])
    ntie = _tied_pairs(x_starts | np.r_[True, y[1:] != y[:-1]])  # tied in both
    con_minus_dis = tot - xtie - ytie + ntie - 2 * _inversions(y)
    tau = con_minus_dis / np.sqrt(tot - xtie) / np.sqrt(tot - ytie)
    return float(np.minimum(1.0, max(-1.0, tau)))


def _tied_pairs(run_starts: np.ndarray) -> int:
    """Pairs within the runs of a sorted array, each run's first element marked True."""
    lengths = np.diff(np.flatnonzero(np.r_[run_starts, True]))
    return int((lengths * (lengths - 1) // 2).sum())


def _inversions(values: np.ndarray) -> int:
    """Pairs i < j with values[i] > values[j], by a bottom-up merge count: at
    width w, each element of a right half counts the larger elements of its
    left half. Stable ranks make equal values no inversion."""
    n = values.size
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(values, kind="stable")] = np.arange(n)
    position = np.arange(n)
    count, width = 0, 1
    while width < n:
        block = position // (2 * width)
        right = (position // width) % 2 == 1
        key = block * n + rank  # ranks offset per block, so one sorted array serves all blocks
        left = np.sort(key[~right])
        block_end = np.searchsorted(left, (block[right] + 1) * n)
        not_larger = np.searchsorted(left, key[right], side="right")
        count += int((block_end - not_larger).sum())
        width *= 2
    return count


def criterion_values(
    table: RatingTable,
    cid: CriterionId,
    params: CriterionParams = DEFAULT_PARAMS,
) -> np.ndarray:
    """The criterion between each row's proposal and ground-truth box."""
    return elementwise(cid, table.proposal, table.gt, params)


def relative_gap_from_means(
    cell_means: dict[tuple[SizeClass, int], float],
) -> dict[tuple[SizeClass, int], float]:
    """Relative gap of each (size, rating) cell mean against the cross-size
    mean at that rating. Requires all three sizes per rating."""
    ratings = sorted({r for _, r in cell_means})
    missing = [
        (s, r) for r in ratings for s in SizeClass if (s, r) not in cell_means
    ]
    if missing:
        raise EmptyCell(missing)
    gaps = {}
    for r in ratings:
        level = sum(cell_means[(s, r)] for s in SizeClass) / len(SizeClass)
        for s in SizeClass:
            gaps[(s, r)] = (cell_means[(s, r)] - level) / level
    return gaps


def relative_gap(
    table: RatingTable,
    cid: CriterionId,
    params: CriterionParams = DEFAULT_PARAMS,
) -> dict[tuple[SizeClass, int], float]:
    """Per-(size, rating) relative gaps of the criterion's cell means.

    Raises EmptyCell listing any (size, rating) cell with no records among
    the ratings present in the data.
    """
    cell = 6 * size_indices(table.gt) + table.rating
    sums = np.zeros(18)
    np.add.at(sums, cell, criterion_values(table, cid, params))  # row by row, left to right
    counts = np.bincount(cell, minlength=18)
    sizes = list(SizeClass)
    means = {(sizes[c // 6], c % 6): float(sums[c] / counts[c]) for c in np.flatnonzero(counts).tolist()}
    return relative_gap_from_means(means)


def group_records(table: RatingTable, grouping: str) -> dict[str, np.ndarray]:
    """Row indices of each non-empty group, keys in sorted order.

    grouping is one of "size", "context", "expertise", "age". Rows whose
    grouping field is absent are skipped.
    """
    if grouping == "size":
        codes = size_indices(table.gt)
    elif grouping == "age":
        codes = np.full(len(table), -1)
        for k, (lo, hi) in enumerate(AGE_BUCKETS):
            codes[(lo < table.age) & (table.age <= hi)] = k
    elif grouping in ("context", "expertise"):
        flag = getattr(table, grouping)
        codes = np.where(np.isnan(flag), -1, flag != 0)
    else:
        raise ValueError(f"unknown grouping {grouping!r}")
    groups = {name: np.flatnonzero(codes == k) for k, name in enumerate(_GROUPS[grouping])}
    return {name: groups[name] for name in sorted(groups) if groups[name].size}


def group_means(
    table: RatingTable,
    grouping: str,
    cid: CriterionId,
    params: CriterionParams = DEFAULT_PARAMS,
) -> list[dict]:
    """Mean rating and mean criterion value per group (see group_records)."""
    values = criterion_values(table, cid, params)
    return [
        {
            "group": key,
            "n": len(index),
            "mean_rating": sum(table.rating[index].tolist()) / len(index),
            "mean_criterion": sum(values[index].tolist()) / len(index),
        }
        for key, index in group_records(table, grouping).items()
    ]


def one_way_anova(groups: Sequence[Sequence[float]]) -> tuple[float, float]:
    """Classical one-way ANOVA: F with (k-1, N-k) degrees of freedom and its
    upper tail p-value, `f_tail(F, k-1, N-k)`. Fewer than 2 groups, or a
    group of fewer than 2 samples, is InsufficientSamples."""
    if len(groups) < 2:
        raise InsufficientSamples(f"need at least 2 groups, got {len(groups)}")
    arrays = [np.asarray(g, dtype=float) for g in groups]
    for i, g in enumerate(arrays):
        if g.size < 2:
            raise InsufficientSamples(f"group {i} needs at least 2 samples, got {g.size}")
    grand = np.concatenate(arrays).mean()
    ss_between = sum(g.size * (g.mean() - grand) ** 2 for g in arrays)
    ss_within = sum(float(np.sum((g - g.mean()) ** 2)) for g in arrays)
    df_between = len(arrays) - 1
    df_within = sum(g.size for g in arrays) - len(arrays)
    if ss_within == 0:
        raise DegenerateInput("zero within-group variance in every group")
    f_stat = float((ss_between / df_between) / (ss_within / df_within))
    return f_stat, f_tail(f_stat, df_between, df_within)


def f_tail(f_stat: float, dfn: float, dfd: float) -> float:
    """P(F > f_stat) for an F variable with (dfn, dfd) degrees of freedom, both
    positive, with the special values of scipy.special.fdtrc: 1 at 0, 0 at
    inf, NaN at NaN or below 0.

    It is the regularised incomplete beta I_x(dfd/2, dfn/2) at
    x = dfd/(dfd + dfn f_stat), computed directly, not as one minus the lower
    tail, so a small p-value keeps its relative digits. Against fdtrc it is
    within 1e-12 relative on dfn 1-9, dfd 3-8,000; the continued fraction
    loses digits as dfd grows, to about 2e-11 at dfd = 1e6.
    """
    if not (dfn > 0 and dfd > 0):
        raise ValueError(f"degrees of freedom must be positive, got ({dfn}, {dfd})")
    ratio = dfn * f_stat / dfd  # (1 - x) / x
    if not ratio >= 0:
        return math.nan
    if ratio == 0:
        return 1.0
    if math.isinf(ratio):
        return 0.0
    a, b = dfd / 2, dfn / 2
    # x^a (1-x)^b / B(a, b), from logarithms that keep their digits
    front = math.exp(-a * math.log1p(ratio) - b * math.log1p(1 / ratio) - _log_beta(a, b))
    x = 1 / (1 + ratio)
    if x < (a + 1) / (a + b + 2):  # the side of the switch point where the fraction converges fast
        return front * _beta_fraction(a, b, x) / a
    return 1 - front * _beta_fraction(b, a, ratio / (1 + ratio)) / b


_FRACTION_TERMS = 10_000
_TINY = 1e-300  # Lentz's stand-in for a zero denominator


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) (DLMF 8.17.22) by the modified
    Lentz method, as in Press et al., Numerical Recipes, 6.4."""

    def nonzero(value):
        return value if abs(value) >= _TINY else _TINY

    c, d = 1.0, 1 / nonzero(1 - (a + b) * x / (a + 1))
    fraction = d
    for m in range(1, _FRACTION_TERMS):
        for coefficient in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1 / nonzero(1 + coefficient * d)
            c = nonzero(1 + coefficient / c)
            fraction *= d * c
        if abs(d * c - 1) <= sys.float_info.epsilon:
            return fraction
    raise QuadratureNonConvergence(f"the incomplete beta fraction at a={a}, b={b}, x={x} "
                                   f"did not converge in {_FRACTION_TERMS} terms")


# Stirling's series of ln Γ(x) - ((x - 1/2) ln x - x + ln(2π)/2): B_2k / (2k (2k - 1)) / x^(2k-1);
# from x = 10 on, these eight terms are exact to double precision
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)
_STIRLING_FROM = 10.0


def _stirling_correction(x: float) -> float:
    total = 0.0
    for coefficient in reversed(_STIRLING):
        total = total / (x * x) + coefficient
    return total / x


def _log_beta(a: float, b: float) -> float:
    """ln B(a, b) for a, b > 0. Where an argument is large, the large terms
    of ln Γ cancel in closed form, so the result keeps its digits (the
    approach of DiDonato & Morris 1992, ACM TOMS 708)."""
    p, q = min(a, b), max(a, b)
    if q < _STIRLING_FROM:
        return math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)
    correction = _stirling_correction(q) - _stirling_correction(p + q)
    if p < _STIRLING_FROM:  # ln Γ(p) + ln(Γ(q) / Γ(p + q))
        return math.lgamma(p) + correction - (q - 0.5) * math.log1p(p / q) - p * math.log(p + q) + p
    return (0.5 * math.log(2 * math.pi) - 0.5 * math.log(q) + _stirling_correction(p) + correction
            - (p - 0.5) * math.log1p(q / p) - q * math.log1p(p / q))
