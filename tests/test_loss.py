import math

import numpy as np
import pytest

from scaleiou import (
    Box,
    CriterionId,
    CriterionParams,
    LOSS_PRESET,
    NonDifferentiablePoint,
    evaluate,
    finite_difference_gradient,
    loss_gradient,
    reweight_gradient_ratio,
    reweight_loss_ratio,
)
from tests.conftest import random_smooth_pair

GRAD_IDS = [CriterionId.IOU, CriterionId.GIOU, CriterionId.SIOU, CriterionId.GSIOU]


def rel_error(analytic, fd):
    a = np.array(analytic.as_tuple())
    f = np.array(fd.as_tuple())
    scale = max(np.max(np.abs(f)), np.max(np.abs(a)))
    if scale == 0:
        return 0.0
    return float(np.max(np.abs(a - f)) / max(scale, 1e-6))


class TestLossValue:
    def test_identical_boxes_zero_loss(self):
        b = Box(3, 4, 20, 30)
        params = CriterionParams(gamma=-1, kappa=20)
        for cid in CriterionId:
            assert 1.0 - evaluate(cid, b, b, params) == 0.0


class TestGradients:
    def test_criterion_that_is_not_a_criterion_id(self):
        with pytest.raises(ValueError, match="^unknown criterion 'iou'$"):
            loss_gradient("iou", Box(0, 0, 4, 4), Box(1, 0, 4, 4), LOSS_PRESET)

    def test_identical_boxes_raise(self):
        b = Box(0, 0, 10, 10)
        with pytest.raises(NonDifferentiablePoint):
            loss_gradient(CriterionId.IOU, b, b, LOSS_PRESET)

    def test_coinciding_edge_raises(self):
        b1 = Box(0, 0, 10, 10)
        b2_touching = Box(6, 1, 2.0, 4.0)  # left edge exactly on b1's right edge
        assert abs(b2_touching.x_min - b1.x_max) < 1e-12
        with pytest.raises(NonDifferentiablePoint):
            loss_gradient(CriterionId.IOU, b1, b2_touching, LOSS_PRESET)
        loss_gradient(CriterionId.IOU, b1, Box(3.5, 1, 2, 4), LOSS_PRESET)  # interior is fine

    def test_shifted_square_iou_sign(self):
        # prediction to the right of the target: moving further right raises the loss
        g = loss_gradient(CriterionId.IOU, Box(5, 0.5, 10, 8), Box(0, 0, 10, 10), LOSS_PRESET)
        assert g.d_x > 0

    def test_fd_identical_boxes_near_zero(self):
        b = Box(0, 0, 10, 10)
        g = finite_difference_gradient(CriterionId.IOU, b, b, LOSS_PRESET, step=1e-4)
        assert abs(g.d_x) < 1e-9
        assert abs(g.d_y) < 1e-9

    @pytest.mark.parametrize("cid", GRAD_IDS + [CriterionId.ALPHA_IOU, CriterionId.NWD])
    def test_matches_finite_differences(self, cid, rng):
        params = LOSS_PRESET
        worst = 0.0
        for _ in range(200):
            b1, b2 = random_smooth_pair(rng)
            analytic = loss_gradient(cid, b1, b2, params)
            fd = finite_difference_gradient(cid, b1, b2, params, step=1e-4)
            worst = max(worst, rel_error(analytic, fd))
        assert worst < 1e-5

    @pytest.mark.parametrize("cid", [CriterionId.SIOU, CriterionId.GSIOU])
    def test_detached_p_matches_frozen_fd(self, cid, rng):
        params = LOSS_PRESET
        worst = 0.0
        for _ in range(200):
            b1, b2 = random_smooth_pair(rng)
            analytic = loss_gradient(cid, b1, b2, params, detach_p=True)
            fd = finite_difference_gradient(cid, b1, b2, params, step=1e-4, detach_p=True)
            worst = max(worst, rel_error(analytic, fd))
        assert worst < 1e-5

    def test_detached_p_differs_from_full(self, rng):
        # the exponent path contributes through d_w/d_h, so the modes disagree there
        params = LOSS_PRESET
        found = False
        for _ in range(50):
            b1, b2 = random_smooth_pair(rng)
            full = loss_gradient(CriterionId.SIOU, b1, b2, params)
            detached = loss_gradient(CriterionId.SIOU, b1, b2, params, detach_p=True)
            assert full.d_x == detached.d_x  # x does not enter p
            if abs(full.d_w - detached.d_w) > 1e-9:
                found = True
        assert found

    def test_step_halving_quadratic(self, rng):
        cid = CriterionId.SIOU
        for _ in range(10):
            b1, b2 = random_smooth_pair(rng)
            analytic = np.array(loss_gradient(cid, b1, b2, LOSS_PRESET).as_tuple())
            errs = []
            for step in (1e-2, 5e-3):
                fd = np.array(
                    finite_difference_gradient(cid, b1, b2, LOSS_PRESET, step=step).as_tuple()
                )
                errs.append(np.max(np.abs(fd - analytic)))
            if errs[0] > 1e-10:  # skip configurations with flat curvature
                assert errs[1] < errs[0] / 2.5

    @pytest.mark.parametrize("cid", GRAD_IDS)
    def test_huge_union_stays_finite(self, cid):
        # union ~ 1e300: its square overflows, and the quotient rule must not
        # turn that into NaN (first pair) or a flushed -0.0 (second pair)
        gt = Box(0, 0, 1e150, 1e150)
        inside = Box(3, 2, 1e149, 1e149)
        grad = loss_gradient(cid, inside, gt, LOSS_PRESET)
        assert all(math.isfinite(g) for g in grad.as_tuple())
        fd = finite_difference_gradient(cid, inside, gt, LOSS_PRESET, step=1e-6 * inside.w)
        assert grad.as_tuple() == pytest.approx(fd.as_tuple(), rel=1e-6)
        assert grad.d_w == pytest.approx(-1e-151, rel=1e-6)
        tiny = loss_gradient(cid, Box(0, 0, 1e-5, 1e-5), gt, LOSS_PRESET)
        assert all(math.isfinite(g) for g in tiny.as_tuple())
        assert tiny.d_w == tiny.d_h == pytest.approx(-1e-305, rel=1e-6)


class TestReweightRatios:
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 4.0])
    def test_limits_at_one(self, p):
        u = 1 - 1e-8
        assert abs(reweight_loss_ratio(u, p) - p) < 1e-5
        assert abs(reweight_gradient_ratio(u, p) - p) < 1e-6

    def test_known_values(self):
        assert reweight_loss_ratio(0.5, 2.0) == pytest.approx(1.5, rel=1e-12)
        assert reweight_loss_ratio(0.5, 1.0) == 1.0
        assert reweight_gradient_ratio(0.5, 2.0) == pytest.approx(1.0, rel=1e-12)
        assert reweight_gradient_ratio(0.7, 1.0) == 1.0

    @pytest.mark.parametrize("p,expect_increasing", [(0.5, False), (2.0, True)])
    def test_monotone_in_iou(self, p, expect_increasing):
        grid = [0.01 * i for i in range(1, 100)]
        for ratio in (reweight_loss_ratio, reweight_gradient_ratio):
            values = [ratio(u, p) for u in grid]
            diffs = np.diff(values)
            if expect_increasing:
                assert np.all(diffs >= -1e-12)
            else:
                assert np.all(diffs <= 1e-12)

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                reweight_loss_ratio(bad, 2.0)
            with pytest.raises(ValueError):
                reweight_gradient_ratio(bad, 2.0)
