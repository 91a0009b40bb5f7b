"""Rank correlation, per-group means, relative gaps, and one-way ANOVA for
human rating data.

Ratings are ordinal (1..5) with heavy ties, so the Kendall correlation is the
tie-corrected tau-b. The relative gap of a criterion in size class s at
rating r is measured against the mean cell value across the three size
classes at that rating, so the gaps at each rating sum to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import stats as sp_stats

from .criteria import CriterionId, CriterionParams, DEFAULT_PARAMS, boxes_array, check_range, elementwise
from .errors import DegenerateInput, EmptyCell
from .geometry import Box, SizeClass, size_class

AGE_BUCKETS = ((10, 25), (25, 40), (40, 65))  # half-open (lo, hi] tertiles


@dataclass(frozen=True)
class RatingRecord:
    """One participant answer: a 1..5 rating of how well proposal_box covers
    the object annotated by gt_box."""

    rating: int
    gt_box: Box
    proposal_box: Box
    context: Optional[bool] = None
    expertise: Optional[bool] = None
    age: Optional[int] = None

    def __post_init__(self):
        check_range("rating", self.rating, 1, 5)


def kendall_tau(x: Sequence[float], y: Sequence[float]) -> float:
    """Tie-corrected Kendall rank correlation (tau-b)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise ValueError(f"need at least 2 pairs, got {x.size}")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise DegenerateInput("all values tied in one of the inputs")
    return float(sp_stats.kendalltau(x, y, variant="b").statistic)


def criterion_values(
    records: Sequence[RatingRecord],
    cid: CriterionId,
    params: CriterionParams = DEFAULT_PARAMS,
) -> list[float]:
    proposals = boxes_array(r.proposal_box for r in records)
    gts = boxes_array(r.gt_box for r in records)
    return elementwise(cid, proposals, gts, params).tolist()


def criterion_rating_correlation(
    records: Sequence[RatingRecord],
    cid: CriterionId,
    params: CriterionParams = DEFAULT_PARAMS,
) -> float:
    """Kendall tau-b between per-record criterion values and ratings."""
    if len(records) < 2:
        raise ValueError(f"need at least 2 records, got {len(records)}")
    return kendall_tau(criterion_values(records, cid, params), [r.rating for r in records])


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
    records: Sequence[RatingRecord],
    cid: CriterionId,
    params: CriterionParams = DEFAULT_PARAMS,
) -> dict[tuple[SizeClass, int], float]:
    """Per-(size, rating) relative gaps of the criterion's cell means.

    Raises EmptyCell listing any (size, rating) cell with no records among
    the ratings present in the data.
    """
    sums: dict[tuple[SizeClass, int], float] = {}
    counts: dict[tuple[SizeClass, int], int] = {}
    for record, value in zip(records, criterion_values(records, cid, params)):
        key = (size_class(record.gt_box), record.rating)
        sums[key] = sums.get(key, 0.0) + value
        counts[key] = counts.get(key, 0) + 1
    means = {key: sums[key] / counts[key] for key in sums}
    return relative_gap_from_means(means)


def _group_key(record: RatingRecord, grouping: str):
    if grouping == "size":
        return size_class(record.gt_box).value
    if grouping == "context":
        return "with-context" if record.context else "without-context"
    if grouping == "expertise":
        return "expert" if record.expertise else "inexperienced"
    if grouping == "age":
        if record.age is None:
            return None
        for lo, hi in AGE_BUCKETS:
            if lo < record.age <= hi:
                return f"({lo}, {hi}]"
        return None
    raise ValueError(f"unknown grouping {grouping!r}")


def group_records(records: Sequence[RatingRecord], grouping: str) -> dict[str, list[int]]:
    """Indices of the records in each group, keys in sorted order.

    grouping is one of "size", "context", "expertise", "age". Records whose
    grouping field is absent are skipped.
    """
    groups: dict[str, list[int]] = {}
    for i, record in enumerate(records):
        key = _group_key(record, grouping)
        if key is not None:
            groups.setdefault(key, []).append(i)
    return {key: groups[key] for key in sorted(groups)}


def group_means(
    records: Sequence[RatingRecord],
    grouping: str,
    cid: CriterionId,
    params: CriterionParams = DEFAULT_PARAMS,
) -> list[dict]:
    """Mean rating and mean criterion value per group (see group_records)."""
    values = criterion_values(records, cid, params)
    return [
        {
            "group": key,
            "n": len(index),
            "mean_rating": sum(records[i].rating for i in index) / len(index),
            "mean_criterion": sum(values[i] for i in index) / len(index),
        }
        for key, index in group_records(records, grouping).items()
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
    p_value = float(sp_stats.f.sf(f_stat, df_between, df_within))
    return float(f_stat), p_value
