import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scaleiou import (
    Box,
    SizeClass,
    area,
    intersection_area,
    size_class,
)
from scaleiou.criteria import areas
from scaleiou.geometry import size_indices
from tests.conftest import random_box


def box(x, y, w, h):
    return Box(x, y, w, h)


class TestBoxConstruction:
    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            Box(0, 0, 0, 10)
        with pytest.raises(ValueError):
            Box(0, 0, 10, -1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Box(float("nan"), 0, 10, 10)
        with pytest.raises(ValueError):
            Box(0, float("inf"), 10, 10)

    def test_corner_round_trip(self):
        b = Box.from_corner(3.0, 4.0, 10.0, 6.0)
        assert b.x == 8.0 and b.y == 7.0


class TestAreas:
    def test_area(self):
        assert area(box(0, 0, 10, 10)) == 100
        assert area(box(0, 0, 1, 1)) == 1
        assert area(box(0, 0, 3, 7)) == 21

    def test_intersection(self):
        b = box(0, 0, 10, 10)
        assert intersection_area(b, b) == 100
        assert intersection_area(b, box(20, 0, 10, 10)) == 0
        assert intersection_area(b, box(5, 0, 10, 10)) == 50

    def test_union(self):
        b = box(0, 0, 10, 10).components()
        assert areas(b, b)[1] == 100
        assert areas(b, box(20, 0, 10, 10).components())[1] == 200
        assert areas(b, box(5, 0, 10, 10).components())[1] == 150

    def test_enclosing_hull(self):
        b = box(0, 0, 10, 10).components()
        assert areas(b, b, hull=True)[2] == 100
        assert areas(b, box(5, 0, 10, 10).components(), hull=True)[2] == 150
        assert areas(b, box(20, 0, 10, 10).components(), hull=True)[2] == 300


class TestSizeClass:
    def test_boundaries(self):
        assert size_class(box(0, 0, 32, 32)) is SizeClass.SMALL
        assert size_class(box(0, 0, 96, 96)) is SizeClass.MEDIUM
        assert size_class(box(0, 0, 100, 100)) is SizeClass.LARGE

    def test_non_square(self):
        # sqrt(16 * 64) = 32, still small
        assert size_class(box(0, 0, 16, 64)) is SizeClass.SMALL
        assert size_class(box(0, 0, 16, 65)) is SizeClass.MEDIUM


# sides at and one ulp either side of the bucket edges: a square of side s has sqrt(w * h) == s exactly
EDGE_SIDES = [float(v) for side in (32.0, 96.0, 16.0, 64.0, 48.0, 192.0)
              for v in (np.nextafter(side, 0.0), side, np.nextafter(side, np.inf))]
SIDES = st.one_of(st.sampled_from(EDGE_SIDES), st.floats(1e-3, 1e3))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), SIDES, SIDES), max_size=20))
@example([(0.0, 0.0, side, side) for side in EDGE_SIDES[:6]] + [(0.0, 0.0, 16.0, 64.0), (0.0, 0.0, 48.0, 192.0)])
def test_size_indices_is_size_class_row_by_row(rows):
    boxes = np.array(rows, dtype=float).reshape(-1, 4)
    assert size_indices(boxes).tolist() == [list(SizeClass).index(size_class(Box(*row))) for row in rows]


class TestInvariants:
    def test_random_pairs(self, rng):
        for _ in range(200):
            b1 = random_box(rng)
            b2 = random_box(rng)
            inter = intersection_area(b1, b2)
            assert inter <= min(area(b1), area(b2)) + 1e-12
            assert inter == intersection_area(b2, b1)

    def test_scale_covariance(self, rng):
        for _ in range(50):
            b1 = random_box(rng)
            b2 = random_box(rng)
            k = float(rng.uniform(0.1, 20))
            assert math.isclose(area(b1.scaled(k)), k * k * area(b1), rel_tol=1e-12)
            assert math.isclose(
                intersection_area(b1.scaled(k), b2.scaled(k)),
                k * k * intersection_area(b1, b2),
                rel_tol=1e-9,
                abs_tol=1e-9,
            )
