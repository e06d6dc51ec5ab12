from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macckit import (
    ACHIEVABLE_POINTS_323,
    lower_convex_envelope,
    memory_share,
    optimal_tradeoff_323,
)
from macckit.params import InputTypeError

VERTICES = [(F(0), F(3)), (F(2, 3), F(1)), (F(1), F(1, 3)), (F(3, 2), F(0))]


class TestMemoryShare:
    @pytest.mark.parametrize(
        "M,R", [(F(5, 6), F(2, 3)), (F(2, 3), F(1)), (F(0), F(3)), (F(3, 2), F(0))]
    )
    def test_envelope_values(self, M, R):
        assert memory_share(VERTICES, M) == R

    def test_outside_hull_rejected(self):
        with pytest.raises(ValueError):
            memory_share(VERTICES, F(-1, 10))
        with pytest.raises(ValueError):
            memory_share(VERTICES, F(8, 5))

    def test_point_above_envelope_is_ignored(self):
        padded = VERTICES + [(F(1, 2), F(10))]
        assert lower_convex_envelope(padded) == VERTICES
        assert memory_share(padded, F(1, 2)) == memory_share(VERTICES, F(1, 2))

    def test_collinear_middle_point_is_not_a_vertex(self):
        assert lower_convex_envelope([(0, 2), (1, 1), (2, 0)]) == [(0, 2), (2, 0)]

    def test_dominated_duplicate_memory_keeps_lower_rate(self):
        padded = VERTICES + [(F(2, 3), F(2))]
        assert memory_share(padded, F(2, 3)) == 1

    def test_single_point(self):
        assert memory_share([(F(1), F(2))], 1) == 2
        with pytest.raises(ValueError):
            memory_share([(F(1), F(2))], F(1, 2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            memory_share([], 0)

    def test_inexact_values_refused(self):
        with pytest.raises(InputTypeError):
            memory_share([(0, 3), (1, None)], 0)
        with pytest.raises(InputTypeError):
            optimal_tradeoff_323(True)


class TestOptimalTradeoff323:
    @pytest.mark.parametrize(
        "M,R",
        [
            (F(0), F(3)),
            (F(1, 3), F(2)),
            (F(2, 3), F(1)),
            (F(5, 6), F(2, 3)),
            (F(1), F(1, 3)),
            (F(5, 4), F(1, 6)),
            (F(3, 2), F(0)),
        ],
    )
    def test_piecewise_values(self, M, R):
        assert optimal_tradeoff_323(M) == R

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            optimal_tradeoff_323(F(-1, 2))
        with pytest.raises(ValueError):
            optimal_tradeoff_323(F(2))

    @settings(max_examples=200, deadline=None)
    @given(st.fractions(min_value=0, max_value=F(3, 2), max_denominator=500))
    def test_equals_memory_sharing_of_corner_points(self, m):
        points = [(mem, rate) for mem, rate, _ in ACHIEVABLE_POINTS_323]
        assert optimal_tradeoff_323(m) == memory_share(points, m)


def test_achievable_points_table():
    ids = [scheme_id for _, _, scheme_id in ACHIEVABLE_POINTS_323]
    assert ids == ["zero-memory", "appendix-b", "prior-art", "corner-323"]
    memories = [m for m, _, _ in ACHIEVABLE_POINTS_323]
    assert memories == sorted(memories)
