"""rating.py and io.load_ratings against a frozen copy of their earlier,
record-based code.

The reference below kept one record per CSV row, with two Box objects, and
turned the records back into arrays for every analysis. Rating data is now
one columnar RatingTable. On valid CSVs whose flags are all present (the one
input where the two read the data the same way: the reference counted an
absent flag as False), every analysis must match the reference bit for bit:
criterion values, Kendall tau, group means for all four groupings, relative
gaps (or the same EmptyCell), and the ANOVA's F statistic and errors, for
all six criteria. The reference took its ANOVA p-value from scipy; the
library's f_tail is compared with it by a relative bound (see
tests/test_rating.py, P_VALUE_REL).
"""

import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sp_stats

from scaleiou import (Box, CriterionId, CriterionParams, DegenerateInput, EmptyCell, InsufficientSamples, SizeClass,
                      kendall_tau)
from scaleiou.criteria import boxes_array, check_range, elementwise
from scaleiou.io import load_ratings
from scaleiou.rating import (
    criterion_values,
    group_means,
    group_records,
    one_way_anova,
    relative_gap,
    relative_gap_from_means,
)
from tests.test_rating import p_value_close

GROUPINGS = ("size", "context", "expertise", "age")


# --- reference: the earlier record-based loader and analyses ---

@dataclass(frozen=True)
class _RefRecord:
    rating: int
    gt_box: Box
    proposal_box: Box
    context: Optional[bool] = None
    expertise: Optional[bool] = None
    age: Optional[int] = None

    def __post_init__(self):
        check_range("rating", self.rating, 1, 5)


def _ref_load_ratings(path):
    with open(path, newline="") as fh:
        records = []
        for row in csv.DictReader(fh):
            gt = Box.from_corner(float(row["gt_x"]), float(row["gt_y"]), float(row["gt_w"]), float(row["gt_h"]))
            proposal = Box.from_corner(float(row["px"]), float(row["py"]), float(row["pw"]), float(row["ph"]))

            def optional(name, convert):
                raw = row.get(name)
                return None if raw is None or raw == "" else convert(raw)

            records.append(_RefRecord(
                int(row["rating"]), gt, proposal,
                context=optional("context", lambda v: v.strip().lower() in ("1", "true", "yes")),
                expertise=optional("expertise", lambda v: v.strip().lower() in ("1", "true", "yes")),
                age=optional("age", int),
            ))
    return records


def _ref_size_class(b):
    s = math.sqrt(b.w * b.h)
    if s <= 32.0:
        return SizeClass.SMALL
    if s <= 96.0:
        return SizeClass.MEDIUM
    return SizeClass.LARGE


def _ref_criterion_values(records, cid, params):
    proposals = boxes_array(r.proposal_box for r in records)
    gts = boxes_array(r.gt_box for r in records)
    return elementwise(cid, proposals, gts, params).tolist()


def _ref_kendall_tau(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.size < 2:
        raise InsufficientSamples(f"need at least 2 pairs, got {x.size}")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise DegenerateInput("all values tied in one of the inputs")
    return float(sp_stats.kendalltau(x, y, variant="b").statistic)


def _ref_relative_gap(records, cid, params):
    sums, counts = {}, {}
    for record, value in zip(records, _ref_criterion_values(records, cid, params)):
        key = (_ref_size_class(record.gt_box), record.rating)
        sums[key] = sums.get(key, 0.0) + value
        counts[key] = counts.get(key, 0) + 1
    return relative_gap_from_means({key: sums[key] / counts[key] for key in sums})


def _ref_group_key(record, grouping):
    if grouping == "size":
        return _ref_size_class(record.gt_box).value
    if grouping == "context":
        return "with-context" if record.context else "without-context"
    if grouping == "expertise":
        return "expert" if record.expertise else "inexperienced"
    if record.age is None:
        return None
    for lo, hi in ((10, 25), (25, 40), (40, 65)):
        if lo < record.age <= hi:
            return f"({lo}, {hi}]"
    return None


def _ref_group_records(records, grouping):
    groups = {}
    for i, record in enumerate(records):
        key = _ref_group_key(record, grouping)
        if key is not None:
            groups.setdefault(key, []).append(i)
    return {key: groups[key] for key in sorted(groups)}


def _ref_group_means(records, grouping, cid, params):
    values = _ref_criterion_values(records, cid, params)
    return [
        {
            "group": key,
            "n": len(index),
            "mean_rating": sum(records[i].rating for i in index) / len(index),
            "mean_criterion": sum(values[i] for i in index) / len(index),
        }
        for key, index in _ref_group_records(records, grouping).items()
    ]


def _ref_one_way_anova(groups):
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
    f_stat = (ss_between / df_between) / (ss_within / df_within)
    return float(f_stat), float(sp_stats.f.sf(f_stat, df_between, df_within))


def _ref_anova(records, grouping):
    groups = _ref_group_records(records, grouping)
    return _ref_one_way_anova([[records[i].rating for i in index] for index in groups.values()])


# --- the property ---

def outcome(call):
    """repr of the result, which tells every float bit and -0.0 apart, or the
    raised error's type and message."""
    try:
        return repr(call())
    except (InsufficientSamples, DegenerateInput, EmptyCell) as exc:
        return f"{type(exc).__name__}: {exc}"


def anova_outcome(call):
    """outcome of an ANOVA with the p-value left out of the repr; the p-value
    itself, or None after an error."""
    try:
        f_stat, p_value = call()
    except (InsufficientSamples, DegenerateInput, EmptyCell) as exc:
        return f"{type(exc).__name__}: {exc}", None
    return repr(f_stat), p_value


HEADER = ["rating", "gt_x", "gt_y", "gt_w", "gt_h", "px", "py", "pw", "ph", "context", "expertise", "age"]
FLAGS = ["1", "0", "true", "false", "yes", "no", " TRUE ", "No"]
# widths around the size-class edges: sqrt(16 * 64) = 32 and sqrt(48 * 192) = 96
SIDES = st.one_of(st.floats(0.5, 300.0), st.sampled_from([16.0, 32.0, 48.0, 64.0, 96.0, 192.0, 96.00000000000001]))
COORDINATES = st.floats(-1e3, 1e3)


@st.composite
def rating_rows(draw):
    gt = [draw(COORDINATES), draw(COORDINATES), draw(SIDES), draw(SIDES)]
    near = st.floats(-1.0, 1.0).map(lambda t: t * gt[2])
    proposal = draw(st.one_of(
        st.tuples(near, near, SIDES, SIDES).map(lambda p: [gt[0] + p[0], gt[1] + p[1], p[2], p[3]]),
        st.just(list(gt)),
        st.tuples(COORDINATES, COORDINATES, SIDES, SIDES).map(list),
    ))
    age = draw(st.one_of(st.just(""), st.integers(-5, 90).map(str), st.sampled_from(["10", "25", "40", "65"])))
    return [draw(st.integers(1, 5)), *gt, *proposal, draw(st.sampled_from(FLAGS)), draw(st.sampled_from(FLAGS)), age]


@st.composite
def rating_csvs(draw):
    rows = draw(st.lists(rating_rows(), min_size=0, max_size=30))
    if draw(st.booleans()):  # one row in every (size class, rating) cell, so the gaps are defined
        planted = [[r, 0.0, 0.0, side, side, 1.0, 0.0, side, side, "1", "0", "30"]
                   for side in (8.0, 50.0, 150.0) for r in range(1, 6)]
        rows = draw(st.permutations(planted + rows))
    return rows


@settings(max_examples=80, deadline=None, derandomize=True)
@given(rating_csvs(), st.sampled_from([CriterionParams(), CriterionParams(gamma=-3.0, kappa=16.0)]))
def test_rating_analyses_match_reference(tmp_path_factory, rows, params):
    path = tmp_path_factory.mktemp("ratings") / "ratings.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HEADER)
        writer.writerows([repr(v) if isinstance(v, float) else v for v in row] for row in rows)
    records, table = _ref_load_ratings(path), load_ratings(str(path))

    assert table.rating.tolist() == [r.rating for r in records]
    assert repr(table.gt.tolist()) == repr([[r.gt_box.x, r.gt_box.y, r.gt_box.w, r.gt_box.h] for r in records])
    assert repr(table.proposal.tolist()) == repr(
        [[r.proposal_box.x, r.proposal_box.y, r.proposal_box.w, r.proposal_box.h] for r in records])
    for grouping in GROUPINGS:
        groups = {key: index.tolist() for key, index in group_records(table, grouping).items()}
        assert groups == _ref_group_records(records, grouping)
        (got, p_value), (want, reference) = (
            anova_outcome(lambda: one_way_anova([table.rating[index] for index in group_records(table, grouping).values()])),
            anova_outcome(lambda: _ref_anova(records, grouping)))
        assert got == want
        assert (p_value is None) == (reference is None)
        if reference is not None:
            assert p_value_close(p_value, reference)
    for cid in CriterionId:
        assert repr(criterion_values(table, cid, params).tolist()) == repr(_ref_criterion_values(records, cid, params))
        assert outcome(lambda: kendall_tau(criterion_values(table, cid, params), table.rating)) == outcome(
            lambda: _ref_kendall_tau(_ref_criterion_values(records, cid, params), [r.rating for r in records]))
        assert outcome(lambda: relative_gap(table, cid, params)) == outcome(
            lambda: _ref_relative_gap(records, cid, params))
        for grouping in GROUPINGS:
            assert outcome(lambda: group_means(table, grouping, cid, params)) == outcome(
                lambda: _ref_group_means(records, grouping, cid, params))

