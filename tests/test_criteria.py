import math

import pytest

from scaleiou import (
    Box,
    CriterionId,
    CriterionParams,
    alpha_iou,
    evaluate,
    exponent_p,
    giou,
    gsiou,
    iou,
    nwd,
    siou,
)
from scaleiou.criteria import from_areas
from tests.conftest import random_box

ALL_IDS = list(CriterionId)


def test_params_validation():
    with pytest.raises(ValueError):
        CriterionParams(gamma=1.5)
    with pytest.raises(ValueError):
        CriterionParams(kappa=0)
    with pytest.raises(ValueError):
        CriterionParams(alpha=-1)
    with pytest.raises(ValueError):
        CriterionParams(nwd_constant=0)


def test_criterion_that_is_not_a_criterion_id():
    box = (0.0, 0.0, 4.0, 4.0)
    with pytest.raises(ValueError, match="^unknown criterion 'iou'$"):
        from_areas("iou", None, box, box)


class TestIoU:
    def test_known_values(self):
        b = Box(0, 0, 10, 10)
        assert iou(b, b) == 1.0
        assert iou(b, Box(20, 0, 10, 10)) == 0.0
        assert iou(b, Box(5, 0, 10, 10)) == pytest.approx(1 / 3, abs=1e-15)


class TestGIoU:
    def test_known_values(self):
        b = Box(0, 0, 10, 10)
        assert giou(b, b) == 1.0
        assert giou(b, Box(5, 0, 10, 10)) == pytest.approx(1 / 3, abs=1e-15)
        # disjoint: 0 - (300 - 200)/300; also the 1-D shifted-square form
        # (omega - shift)/(omega + shift) = -10/30
        assert giou(b, Box(20, 0, 10, 10)) == pytest.approx(-1 / 3, abs=1e-15)


class TestExponent:
    def test_gamma_zero_gives_one(self, rng):
        params = CriterionParams(gamma=0.0, kappa=50.0)
        for _ in range(20):
            assert exponent_p(random_box(rng), random_box(rng), params) == 1.0

    def test_scalar_evaluations(self):
        b = Box(0, 0, 32, 32)
        p = exponent_p(b, b, CriterionParams(gamma=0.5, kappa=64))
        assert p == pytest.approx(1 - 0.5 * math.exp(-math.sqrt(2048) / (math.sqrt(2) * 64)), rel=1e-12)
        assert p == pytest.approx(0.69673, abs=5e-6)
        b8 = Box(0, 0, 8, 8)
        p = exponent_p(b8, b8, CriterionParams(gamma=-3, kappa=16))
        assert p == pytest.approx(1 + 3 * math.exp(-0.5), rel=1e-12)
        assert p == pytest.approx(2.81959, abs=5e-6)

    def test_large_boxes_approach_one(self):
        params = CriterionParams(gamma=-3, kappa=16)
        b = Box(0, 0, 4000, 4000)
        assert exponent_p(b, b, params) == pytest.approx(1.0, abs=1e-12)


class TestSIoU:
    def test_endpoints_preserved(self, rng):
        params = CriterionParams(gamma=-2.5, kappa=30.0)
        b = Box(0, 0, 10, 10)
        assert siou(b, b, params) == 1.0
        assert siou(b, Box(50, 0, 10, 10), params) == 0.0

    def test_power_value(self):
        params = CriterionParams(gamma=-3, kappa=16)
        b1 = Box(0, 0, 8, 8)
        b2 = Box(4, 0, 8, 8)
        assert iou(b1, b2) == pytest.approx(1 / 3)
        p = exponent_p(b1, b2, params)
        assert siou(b1, b2, params) == pytest.approx((1 / 3) ** p, rel=1e-12)

    def test_kappa_to_zero_recovers_iou(self, rng):
        params = CriterionParams(gamma=0.9, kappa=1e-9)
        for _ in range(50):
            b1 = random_box(rng)
            b2 = random_box(rng)
            assert abs(siou(b1, b2, params) - iou(b1, b2)) < 1e-6

    def test_scaling_to_infinity_recovers_iou(self, rng):
        params = CriterionParams(gamma=0.9, kappa=64.0)
        k = 1e6
        for _ in range(50):
            b1 = random_box(rng)
            b2 = random_box(rng)
            assert abs(siou(b1.scaled(k), b2.scaled(k), params) - iou(b1, b2)) < 1e-4


class TestGSIoU:
    def test_sign_matches_giou(self, rng):
        params = CriterionParams(gamma=0.5, kappa=64.0)
        for _ in range(200):
            b1 = random_box(rng)
            b2 = random_box(rng)
            g = giou(b1, b2)
            v = gsiou(b1, b2, params)
            assert math.copysign(1, v) == math.copysign(1, g) or v == g == 0

    def test_signed_power_value(self):
        params = CriterionParams(gamma=-3, kappa=16)
        b1 = Box(0, 0, 8, 8)
        b2 = Box(16, 0, 8, 8)
        assert giou(b1, b2) == pytest.approx(-1 / 3)
        p = exponent_p(b1, b2, params)
        assert gsiou(b1, b2, params) == pytest.approx(-((1 / 3) ** p), rel=1e-12)

    def test_identical_boxes(self):
        b = Box(3, 4, 12, 5)
        assert gsiou(b, b, CriterionParams(gamma=0.5, kappa=8)) == 1.0


class TestAlphaIoU:
    def test_alpha_one_is_iou(self, rng):
        params = CriterionParams(alpha=1.0)
        for _ in range(50):
            b1 = random_box(rng)
            b2 = random_box(rng)
            assert alpha_iou(b1, b2, params) == pytest.approx(iou(b1, b2), rel=1e-12)

    def test_cube(self):
        # 10x10 squares shifted so IoU = 0.5: overlap w = 20/3
        b1 = Box(0, 0, 10, 10)
        b2 = Box(10 / 3, 0, 10, 10)
        assert iou(b1, b2) == pytest.approx(0.5, rel=1e-12)
        assert alpha_iou(b1, b2, CriterionParams(alpha=3)) == pytest.approx(0.125, rel=1e-9)


class TestNWD:
    def test_identical_boxes(self):
        b = Box(5, 5, 30, 40)
        assert nwd(b, b, CriterionParams(nwd_constant=16)) == 1.0

    def test_pure_shift(self):
        params = CriterionParams(nwd_constant=16.0)
        b1 = Box(0, 0, 10, 10)
        b2 = Box(16, 0, 10, 10)
        assert nwd(b1, b2, params) == pytest.approx(math.exp(-1), rel=1e-12)

    def test_shift_insensitive_to_size(self):
        # same-size pairs shifted equally get equal NWD regardless of width
        params = CriterionParams(nwd_constant=32.0)
        small = nwd(Box(0, 0, 4, 4), Box(3, 0, 4, 4), params)
        large = nwd(Box(0, 0, 128, 128), Box(3, 0, 128, 128), params)
        assert small == pytest.approx(large, rel=1e-12)


class TestDispatchAndInvariants:
    def test_dispatch_matches_direct(self, rng):
        params = CriterionParams(gamma=0.3, kappa=40, alpha=2.0, nwd_constant=24)
        b1, b2 = random_box(rng), random_box(rng)
        assert evaluate(CriterionId.IOU, b1, b2, params) == iou(b1, b2)
        assert evaluate(CriterionId.GIOU, b1, b2, params) == giou(b1, b2)
        assert evaluate(CriterionId.SIOU, b1, b2, params) == siou(b1, b2, params)
        assert evaluate(CriterionId.GSIOU, b1, b2, params) == gsiou(b1, b2, params)
        assert evaluate(CriterionId.ALPHA_IOU, b1, b2, params) == alpha_iou(b1, b2, params)
        assert evaluate(CriterionId.NWD, b1, b2, params) == nwd(b1, b2, params)

    def test_siou_gamma_zero_equals_iou(self, rng):
        params = CriterionParams(gamma=0.0)
        for _ in range(50):
            b1, b2 = random_box(rng), random_box(rng)
            assert evaluate(CriterionId.SIOU, b1, b2, params) == evaluate(
                CriterionId.IOU, b1, b2, params
            )

    @pytest.mark.parametrize("cid", ALL_IDS)
    def test_symmetry(self, cid, rng):
        params = CriterionParams(gamma=0.4, kappa=30)
        for _ in range(50):
            b1, b2 = random_box(rng), random_box(rng)
            assert evaluate(cid, b1, b2, params) == pytest.approx(
                evaluate(cid, b2, b1, params), rel=1e-12, abs=1e-15
            )

    @pytest.mark.parametrize("cid", ALL_IDS)
    def test_ranges(self, cid, rng):
        params = CriterionParams(gamma=0.4, kappa=30)
        for _ in range(100):
            v = evaluate(cid, random_box(rng), random_box(rng), params)
            if cid in (CriterionId.GIOU, CriterionId.GSIOU):
                assert -1 < v <= 1
            elif cid is CriterionId.NWD:
                assert 0 < v <= 1
            else:
                assert 0 <= v <= 1

    @pytest.mark.parametrize("cid", [CriterionId.IOU, CriterionId.GIOU, CriterionId.ALPHA_IOU])
    def test_scale_invariance(self, cid, rng):
        params = CriterionParams(alpha=3.0)
        for _ in range(50):
            b1, b2 = random_box(rng), random_box(rng)
            k = float(rng.uniform(0.01, 100))
            v = evaluate(cid, b1, b2, params)
            vk = evaluate(cid, b1.scaled(k), b2.scaled(k), params)
            assert vk == pytest.approx(v, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("cid", ALL_IDS)
    def test_monotone_under_horizontal_shift(self, cid):
        params = CriterionParams(gamma=0.5, kappa=64)
        prev = None
        for shift in [0.5 * i for i in range(60)]:
            v = evaluate(cid, Box(0, 0, 20, 20), Box(shift, 0, 20, 20), params)
            if prev is not None:
                assert v <= prev + 1e-12
            prev = v
