import importlib.util
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sp_stats
from scipy.special import fdtrc

from scaleiou import (
    Box,
    CriterionId,
    CriterionParams,
    DegenerateInput,
    EmptyCell,
    InsufficientSamples,
    RatingTable,
    SizeClass,
    criterion_values,
    group_means,
    kendall_tau,
    one_way_anova,
    relative_gap,
)
from scaleiou.criteria import boxes_array
from scaleiou.io import load_ratings
from scaleiou.rating import InvalidRow, f_tail, group_records, relative_gap_from_means

SMALL = Box(0, 0, 16, 16)
MEDIUM = Box(0, 0, 64, 64)
LARGE = Box(0, 0, 128, 128)


def table(*rows):
    """A RatingTable of (rating, gt, proposal[, context, expertise, age])
    rows of Boxes and optional fields; None or a left-out field is absent."""
    rows = [tuple(row) + (None,) * (6 - len(row)) for row in rows]

    def optional(k):
        return np.array([math.nan if row[k] is None else float(row[k]) for row in rows])

    return RatingTable(np.array([row[0] for row in rows]), boxes_array(row[1] for row in rows),
                       boxes_array(row[2] for row in rows), optional(3), optional(4), optional(5))


def flagless(rating, gt, proposal):
    """A RatingTable of the given columns, with every optional field absent."""
    absent = np.full(len(rating), math.nan)
    return RatingTable(np.array(rating), np.array(gt, dtype=float), np.array(proposal, dtype=float),
                       absent, absent, absent)


def tau_b_oracle(x, y):
    """Quadratic-time tau-b: explicit pair counting with tie corrections."""
    n = len(x)
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx, dy = x[i] - x[j], y[i] - y[j]
            if dx == 0 and dy == 0:
                continue
            if dx == 0:
                ties_x += 1
            elif dy == 0:
                ties_y += 1
            elif dx * dy > 0:
                concordant += 1
            else:
                discordant += 1
    n0 = n * (n - 1) / 2
    denom = math.sqrt((n0 - _tie_term(x)) * (n0 - _tie_term(y)))
    return (concordant - discordant) / denom


def _tie_term(values):
    from collections import Counter

    return sum(c * (c - 1) / 2 for c in Counter(values).values())


class TestKendallTau:
    def test_hand_case(self):
        assert kendall_tau([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(2 / 3, abs=1e-12)

    def test_self_correlation(self):
        assert kendall_tau([3, 1, 4, 1, 5], [3, 1, 4, 1, 5]) == pytest.approx(1.0, abs=1e-12)

    def test_reversal(self):
        assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rnd = random.Random(17)
        x = [rnd.random() for _ in range(50)]
        y = [rnd.random() for _ in range(50)]
        base = kendall_tau(x, y)
        assert kendall_tau([math.exp(v) for v in x], y) == pytest.approx(base, abs=1e-12)
        assert kendall_tau(x, [v**3 for v in y]) == pytest.approx(base, abs=1e-12)

    def test_matches_pair_counting_oracle(self):
        rnd = random.Random(23)
        for _ in range(20):
            x = [rnd.randint(1, 5) for _ in range(40)]
            y = [rnd.random() for _ in range(40)]
            assert kendall_tau(x, y) == pytest.approx(tau_b_oracle(x, y), abs=1e-12)

    def test_independent_inputs_near_zero(self):
        rng = np.random.default_rng(3)
        x = rng.integers(1, 6, 1000)
        y = rng.random(1000)
        assert abs(kendall_tau(x, y)) < 0.1

    def test_degenerate_all_tied(self):
        with pytest.raises(DegenerateInput):
            kendall_tau([2, 2, 2], [1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kendall_tau([1, 2], [1, 2, 3])

    def test_nan_gives_nan_as_scipy(self):
        assert math.isnan(kendall_tau([1, math.nan, 3], [1, 2, 3]))
        assert math.isnan(scipy_tau_b([1, math.nan, 3], [1, 2, 3]))


class TestCriterionCorrelation:
    def records_with_signal(self):
        rnd = random.Random(7)
        records = []
        for _ in range(120):
            gt = rnd.choice([SMALL, MEDIUM, LARGE])
            offset = rnd.uniform(0, gt.w * 0.6)
            proposal = Box(gt.x + offset, gt.y, gt.w, gt.h)
            quality = 1 - offset / gt.w
            rating = max(1, min(5, 1 + round(4 * quality + rnd.uniform(-0.5, 0.5))))
            records.append((rating, gt, proposal))
        return table(*records)

    def test_positive_for_overlap_driven_ratings(self):
        records = self.records_with_signal()
        tau = kendall_tau(criterion_values(records, CriterionId.IOU), records.rating)
        assert tau > 0.5

    def test_gamma_zero_matches_iou(self):
        records = self.records_with_signal()
        tau_iou = kendall_tau(criterion_values(records, CriterionId.IOU), records.rating)
        tau_siou = kendall_tau(
            criterion_values(records, CriterionId.SIOU, CriterionParams(gamma=0.0)), records.rating
        )
        assert tau_siou == pytest.approx(tau_iou, abs=1e-12)


class TestRelativeGap:
    def test_published_small_medium_large_pattern(self):
        # Cell means at the lowest rating: small objects are scored lower,
        # large objects higher, than the cross-size level.
        means = {
            (SizeClass.SMALL, 1): 0.214,
            (SizeClass.MEDIUM, 1): 0.223,
            (SizeClass.LARGE, 1): 0.245,
        }
        gaps = relative_gap_from_means(means)
        assert gaps[(SizeClass.SMALL, 1)] < 0 < gaps[(SizeClass.LARGE, 1)]

    def test_rows_sum_to_zero(self):
        means = {
            (s, r): 0.1 + 0.05 * i + 0.15 * r
            for r in (1, 2, 3)
            for i, s in enumerate(SizeClass)
        }
        gaps = relative_gap_from_means(means)
        for r in (1, 2, 3):
            assert sum(gaps[(s, r)] for s in SizeClass) == pytest.approx(0.0, abs=1e-12)

    def test_missing_cell_raises(self):
        means = {(SizeClass.SMALL, 1): 0.2, (SizeClass.LARGE, 1): 0.3}
        with pytest.raises(EmptyCell) as excinfo:
            relative_gap_from_means(means)
        assert (SizeClass.MEDIUM, 1) in excinfo.value.missing

    def test_from_records(self):
        records = []
        for gt, v in ((SMALL, 0.2), (MEDIUM, 0.25), (LARGE, 0.3)):
            # identical proposal offsets per size give deterministic cell means
            records.append((1, gt, Box(gt.x + gt.w * (1 - v) / (1 + v), gt.y, gt.w, gt.h)))
        gaps = relative_gap(table(*records), CriterionId.IOU)
        assert set(gaps) == {(s, 1) for s in SizeClass}
        assert gaps[(SizeClass.SMALL, 1)] < 0 < gaps[(SizeClass.LARGE, 1)]


class TestGroupMeans:
    RECORDS = table(
        (5, SMALL, SMALL, True, True, 20),
        (3, MEDIUM, Box(10, 0, 64, 64), False, True, 30),
        (1, LARGE, Box(60, 0, 128, 128), False, False, 50),
        (2, LARGE, Box(80, 0, 128, 128), True, False),
    )

    def test_size_grouping(self):
        rows = group_means(self.RECORDS, "size", CriterionId.IOU)
        by_group = {r["group"]: r for r in rows}
        assert by_group["small"]["mean_rating"] == 5
        assert by_group["small"]["mean_criterion"] == 1.0
        assert by_group["large"]["n"] == 2
        assert by_group["large"]["mean_rating"] == 1.5

    def test_age_grouping_skips_missing(self):
        rows = group_means(self.RECORDS, "age", CriterionId.IOU)
        assert sum(r["n"] for r in rows) == 3
        assert {r["group"] for r in rows} == {"(10, 25]", "(25, 40]", "(40, 65]"}

    def test_context_grouping(self):
        rows = group_means(self.RECORDS, "context", CriterionId.IOU)
        assert {r["group"] for r in rows} == {"with-context", "without-context"}

    def test_unknown_grouping(self):
        with pytest.raises(ValueError):
            group_means(self.RECORDS, "height", CriterionId.IOU)


class TestAnova:
    def test_hand_case(self):
        f_stat, p_value = one_way_anova([[1, 2, 3], [2, 3, 4], [3, 4, 5]])
        assert f_stat == pytest.approx(3.0, abs=1e-9)
        assert 0 < p_value < 1

    def test_matches_scipy(self):
        rng = np.random.default_rng(11)
        groups = [rng.normal(loc, 1.0, 30) for loc in (0.0, 0.2, 0.5)]
        from scipy.stats import f_oneway

        f_stat, p_value = one_way_anova(groups)
        ref = f_oneway(*groups)
        assert f_stat == pytest.approx(ref.statistic, rel=1e-12)
        assert p_value == pytest.approx(ref.pvalue, rel=1e-9)

    def test_identical_groups_f_zero(self):
        f_stat, _ = one_way_anova([[1, 2, 3], [1, 2, 3]])
        assert f_stat == 0.0

    def test_degenerate_no_within_variance(self):
        with pytest.raises(DegenerateInput):
            one_way_anova([[1, 1], [2, 2]])

    def test_too_few_groups(self):
        with pytest.raises(InsufficientSamples):
            one_way_anova([[1, 2, 3]])


class TestRatingTable:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            table((0, SMALL, SMALL))
        with pytest.raises(ValueError):
            table((6, SMALL, SMALL))

    @pytest.mark.parametrize("first, later", [(2e150, 3e150), (2e150, math.nan), (math.nan, -3e150)])
    def test_names_the_first_row_that_breaks_a_rule(self, first, later):
        # the extremes of y lie on row 3; the error names row 1
        gt = [(0, 0, 16, 16)] * 5
        gt[1], gt[3] = (0, first, 16, 16), (0, later, 16, 16)
        with pytest.raises(InvalidRow) as info:
            flagless([3] * 5, gt, [(1, 0, 16, 16)] * 5)
        assert info.value.row == 1
        assert str(info.value.reason).startswith("invalid gt box: box field 'y' out of range")

    def test_area_extremes_are_probed(self):
        # row 1's w and h lie strictly inside their columns' ranges, but its area rounds to 0
        gt = [(0, 0, 16, 16), (0, 0, 1e-162, 1e-162), (0, 0, 1e-300, 1e150), (0, 0, 1e150, 1e-300)]
        with pytest.raises(InvalidRow) as info:
            flagless([3] * 4, gt, [(0, 0, 16, 16)] * 4)
        assert info.value.row == 1
        assert str(info.value.reason).startswith("invalid gt box: box size (area) out of range")

    def test_rule_order_within_a_row(self):
        # as Box.from_corner ran before the rating check: gt, proposal, rating
        nan_box = (0, 0, math.nan, 16)
        for rating, gt, proposal, message in ((0, nan_box, nan_box, "invalid gt box: box size"),
                                              (0, (0, 0, 16, 16), nan_box, "invalid proposal box: box size"),
                                              (0, (0, 0, 16, 16), (0, 0, 16, 16), "rating")):
            with pytest.raises(InvalidRow) as info:
                flagless([3, rating], [(0, 0, 16, 16), gt], [(0, 0, 16, 16), proposal])
            assert info.value.row == 1
            assert str(info.value.reason).startswith(f"{message} out of range")

    @pytest.mark.parametrize("gt, message", [
        ((0, math.nan, 16, 16), "box field 'y' out of range"),
        ((0, 0, 1e-200, 1e-200), "box size (area) out of range"),
        ((0, 0, 16, math.inf), "box size out of range"),
        ((-2e150, 0, 16, 16), "box field 'x' out of range"),
    ])
    def test_box_rule_is_the_box_rule(self, gt, message):
        rows = [(0, 0, 16, 16)] * 3 + [gt] + [(0, 0, 16, 16)] * 2
        with pytest.raises(InvalidRow) as info:
            flagless([3] * 6, rows, [(1, 0, 16, 16)] * 6)
        assert info.value.row == 3
        with pytest.raises(ValueError) as box_error:
            Box(*gt)
        assert str(info.value.reason) == f"invalid gt box: {box_error.value}"
        assert str(info.value.reason).startswith(f"invalid gt box: {message}")

    def test_columns(self):
        t = table((5, SMALL, MEDIUM, True, None, 30), (1, LARGE, LARGE))
        assert len(t) == 2
        assert t.rating.tolist() == [5, 1]
        assert t.gt.shape == t.proposal.shape == (2, 4)
        assert t.proposal[0].tolist() == [0, 0, 64, 64]
        assert t.context[0] == 1.0 and t.age[0] == 30.0
        assert np.isnan(t.expertise).all() and np.isnan(t.age[1])
        
    def test_empty_table(self):
        t = flagless(np.zeros(0, dtype=int), np.zeros((0, 4)), np.zeros((0, 4)))
        assert len(t) == 0
        assert relative_gap(t, CriterionId.IOU) == {}
        assert group_means(t, "age", CriterionId.IOU) == []

    @pytest.mark.parametrize("rating, shown", [(2.5, "2.5"), (3.0, "3.0"), (True, "True"), (np.int64(7), "7")])
    def test_rating_is_an_integer_in_one_to_five(self, rating, shown):
        # a float or boolean column is rejected whatever its values; a numpy value prints as its Python value
        with pytest.raises(InvalidRow) as info:
            flagless([rating] * 2, [(0, 0, 16, 16)] * 2, [(1, 0, 16, 16)] * 2)
        assert info.value.row == 0
        assert str(info.value.reason) == f"rating out of range: must be an integer in [1, 5], got {shown}"

    def test_column_length_mismatch(self):
        with pytest.raises(ValueError):
            flagless([3, 4], [(0, 0, 4, 4)], [(0, 0, 4, 4)] * 2)


# --- kendall_tau and one_way_anova against the scipy functions they replace

ORDINAL = st.integers(1, 5)
# one_way_anova's p-value is f_tail, which cannot keep scipy's last bits: it is
# compared with scipy's by this relative bound, plus an absolute floor of
# 1e-300. The largest distance f_tail reaches on the grids below is 6.4e-13.
P_VALUE_REL = 1e-12


def p_value_close(p_value, reference):
    return abs(p_value - reference) <= P_VALUE_REL * max(abs(p_value), abs(reference)) + 1e-300


@st.composite
def heavily_tied(draw, n):
    """n floats drawn from a pool of at most 8 values, or n ratings 1..5."""
    if draw(st.booleans()):
        return draw(st.lists(ORDINAL, min_size=n, max_size=n))
    pool = draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8))
    return draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))


@st.composite
def tied_columns(draw):
    n = draw(st.integers(2, 300))
    return draw(heavily_tied(n)), draw(heavily_tied(n))


def scipy_tau_b(x, y):
    return float(sp_stats.kendalltau(x, y, variant="b").statistic)


def scipy_anova_p(groups, f_stat):
    return float(sp_stats.f.sf(f_stat, len(groups) - 1, sum(map(len, groups)) - len(groups)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tied_columns())
def test_kendall_tau_is_scipys_tau_b(columns):
    x, y = columns
    if len(set(x)) == 1 or len(set(y)) == 1:
        with pytest.raises(DegenerateInput):
            kendall_tau(x, y)
    else:
        assert kendall_tau(x, y) == scipy_tau_b(x, y)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.lists(ORDINAL, min_size=2, max_size=60),
                          st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=60)),
                min_size=2, max_size=5))
def test_anova_p_is_scipys_f_sf(groups):
    try:
        f_stat, p_value = one_way_anova(groups)
    except DegenerateInput:
        return
    assert p_value_close(p_value, scipy_anova_p(groups, f_stat))


def test_bench_table_matches_scipy(tmp_path):
    spec = importlib.util.spec_from_file_location("gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    table = load_ratings(gen.write_pair_inputs(1, tmp_path)["ratings"])
    assert len(table) == 8000
    for cid in CriterionId:
        values = criterion_values(table, cid)
        assert kendall_tau(values, table.rating) == scipy_tau_b(values, table.rating), cid
    for grouping in ("size", "context", "expertise", "age"):
        groups = [table.rating[index] for index in group_records(table, grouping).values()]
        f_stat, p_value = one_way_anova(groups)
        assert p_value_close(p_value, scipy_anova_p(groups, f_stat)), grouping


# --- f_tail against scipy.special.fdtrc

GRID_DFD = sorted(set(np.geomspace(3, 8000, 40).astype(int).tolist()))


def test_f_tail_matches_fdtrc_on_a_grid():
    """dfn 1-9, dfd 3-8,000 and F from 1e-6 to 1e4: p from about 1 down to
    below 1e-300, where the floor takes over."""
    fs = np.geomspace(1e-6, 1e4, 60)
    for dfn in range(1, 10):
        for dfd in GRID_DFD:
            for f, reference in zip(fs.tolist(), fdtrc(dfn, dfd, fs).tolist()):
                assert p_value_close(f_tail(f, dfn, dfd), reference), (dfn, dfd, f)


@pytest.mark.parametrize("target", [1e-30, 1e-100, 1e-200, 1e-295])
def test_f_tail_keeps_its_digits_in_the_far_tail(target):
    """The F at which fdtrc is the target, found by bisection on log10 F. The
    grid stops at 1e-295: below it fdtrc itself drifts as it nears underflow
    (1.1e-8 relative at 1e-300, dfn 8, dfd 50, against a 40-digit reference)."""
    dfn, dfd = (a.ravel() for a in np.meshgrid(np.arange(1, 10), [3, 10, 50, 300, 2000, 8000]))
    lo, hi = np.zeros(dfn.size), np.full(dfn.size, 300.0)
    for _ in range(60):
        mid = (lo + hi) / 2
        above = fdtrc(dfn, dfd, 10.0 ** mid) > target
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    for n, d, f in zip(dfn.tolist(), dfd.tolist(), (10.0 ** lo).tolist()):
        reference = float(fdtrc(n, d, f))
        assert target / 10 < reference < target * 10
        assert p_value_close(f_tail(f, n, d), reference), (n, d, f)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 50), st.integers(1, 10**6), st.floats(0, 1e6), st.floats(0, 1e6))
def test_f_tail_is_a_tail_probability(dfn, dfd, f1, f2):
    """p is in [0, 1] and does not increase with F, up to the rounding that
    P_VALUE_REL bounds (no float implementation is monotone to the last bit)."""
    lo, hi = sorted((f1, f2))
    p_lo, p_hi = f_tail(lo, dfn, dfd), f_tail(hi, dfn, dfd)
    assert 0 <= p_hi <= 1 and 0 <= p_lo <= 1
    assert p_hi <= p_lo * (1 + P_VALUE_REL) + 1e-300


def test_f_tail_special_values():
    assert f_tail(0.0, 2, 10) == 1.0 == float(fdtrc(2, 10, 0.0))
    assert f_tail(5e-324, 2, 10) == 1.0 == float(fdtrc(2, 10, 5e-324))
    assert f_tail(math.inf, 2, 10) == 0.0 == float(fdtrc(2, 10, math.inf))
    assert f_tail(1e308, 9, 3) == 0.0 == float(fdtrc(9, 3, 1e308))
    assert math.isnan(f_tail(math.nan, 2, 10)) and math.isnan(fdtrc(2, 10, math.nan))
    assert math.isnan(f_tail(-1.0, 2, 10)) and math.isnan(fdtrc(2, 10, -1.0))
    with pytest.raises(ValueError, match="degrees of freedom"):
        f_tail(1.0, 0, 10)
