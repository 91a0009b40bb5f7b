"""Rank correlation, per-group means, relative gaps, and one-way ANOVA for
human rating data.

Ratings are ordinal (1..5) with heavy ties, so the Kendall correlation is the
tie-corrected tau-b. The relative gap of a criterion in size class s at
rating r is measured against the mean cell value across the three size
classes at that rating, so the gaps at each rating sum to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .criteria import CriterionId, CriterionParams, DEFAULT_PARAMS, check_count, elementwise
from .errors import DegenerateInput, EmptyCell
from .geometry import Box, InvalidRow, SizeClass, box_rule_probes, check_rows, size_index

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
            Box(*self.gt[i].tolist())
            Box(*self.proposal[i].tolist())
            check_count("rating", self.rating[i], 1, 5)
        except ValueError as exc:
            raise InvalidRow(i, exc) from exc

    def __len__(self) -> int:
        return len(self.rating)


def kendall_tau(x: Sequence[float], y: Sequence[float]) -> float:
    """Tie-corrected Kendall rank correlation (tau-b, Knight 1966).

    Exact integer pair counts, then the three float steps of
    scipy.stats.kendalltau(x, y, variant="b"), so the value is bit-identical
    to scipy's statistic; NaN in either input gives NaN, as there.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise ValueError(f"need at least 2 pairs, got {x.size}")
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
    cell = 6 * size_index(np.sqrt(table.gt[:, 2] * table.gt[:, 3])) + table.rating
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
        codes = size_index(np.sqrt(table.gt[:, 2] * table.gt[:, 3]))
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
    """Classical one-way ANOVA: F with (k-1, N-k) degrees of freedom and the
    F-distribution tail p-value."""
    if len(groups) < 2:
        raise ValueError(f"need at least 2 groups, got {len(groups)}")
    arrays = [np.asarray(g, dtype=float) for g in groups]
    for i, g in enumerate(arrays):
        if g.size < 2:
            raise ValueError(f"group {i} needs at least 2 samples, got {g.size}")
    grand = np.concatenate(arrays).mean()
    ss_between = sum(g.size * (g.mean() - grand) ** 2 for g in arrays)
    ss_within = sum(float(np.sum((g - g.mean()) ** 2)) for g in arrays)
    df_between = len(arrays) - 1
    df_within = sum(g.size for g in arrays) - len(arrays)
    if ss_within == 0:
        raise DegenerateInput("zero within-group variance in every group")
    f_stat = (ss_between / df_between) / (ss_within / df_within)
    from scipy.special import fdtrc  # the F tail that scipy.stats.f.sf calls, without scipy.stats

    p_value = float(fdtrc(df_between, df_within, f_stat))
    return float(f_stat), p_value
