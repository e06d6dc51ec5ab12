"""Bound-family tests: frozen example values, independent brute-force
oracles, and property tests for the shared structural invariants."""

import dataclasses
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macckit import (
    MaccParams,
    best_lower_bound,
    cutset_bound,
    default_memory_grid,
    hkd2_lemma3_bound,
    hkd_lemma2_bound,
    improved_bound,
    sweep_curve,
    uncoded_threshold_gap,
    uniform_grid,
    verify_dominance,
)
from macckit import bounds
from macckit.bounds import (
    FAMILY_IDS,
    cutset_term,
    evaluate_bound,
    evaluate_witness,
    hkd_lemma2_term,
    improved_term,
)

P323 = MaccParams(3, 2, 3)


# ---------------------------------------------------------------------------
# independent oracles: direct loops over the printed formulas, no shared code
# with the module's term enumeration
# ---------------------------------------------------------------------------


def brute_cutset(params, M):
    K, L, N = params.K, params.L, params.N
    return max(F(s) - F(min(s + L - 1, K)) * M / (N // s) for s in range(1, min(K, N) + 1))


def brute_lemma3(params, M):
    K, L, N = params.K, params.L, params.N
    return max(F(s) - F(s + L - 1) * M / (N // s) for s in range(1, min(K, N) + 1))


def brute_improved(params, M):
    K, L, N = params.K, params.L, params.N
    values = []
    for s in range(1, K + 1):
        p = min(s + L - 1, K)
        for l in range(1, (N + s - 1) // s + 1):
            pos = lambda x: max(0, x)
            values.append(
                F(1, l) * (N - (1 - F(p, K)) * pos(N - l * s) - pos(N - l * K) - p * M)
            )
    return max(values)


def brute_lemma2(params, M, b_max=None):
    K, L, N = params.K, params.L, params.N
    values = []
    for b in range(1, (b_max or N) + 1):
        for t in range(1, K + 1):
            for s in range(1, K // 2 + 1):
                if not L <= s * t <= K // 2:
                    continue
                lam = F(1) if s * t == L else F(1, 2)
                values.append(lam * min(F(s * t - L + 1), F(N, s * b)) - F(t, b) * M)
    return max(values) if values else None


# ---------------------------------------------------------------------------
# cut-set bound
# ---------------------------------------------------------------------------


class TestCutsetBound:
    @pytest.mark.parametrize(
        "M,R,s",
        [(F(0), F(3), 3), (F(2, 3), F(1), 3), (F(1), F(1, 3), 1)],
    )
    def test_323_values(self, M, R, s):
        point = cutset_bound(P323, M)
        assert point.R == R
        assert point.witness == {"s": s}
        assert point.R == brute_cutset(P323, M)

    def test_witness_term_reproduces_value(self):
        point = cutset_bound(P323, F(2, 3))
        assert cutset_term(P323, point.witness["s"], F(2, 3)) == point.R

    def test_can_go_negative(self):
        assert cutset_bound(P323, 3).R < 0

    def test_memory_out_of_range(self):
        with pytest.raises(ValueError):
            cutset_bound(P323, F(-1, 2))
        with pytest.raises(ValueError):
            cutset_bound(P323, 4)

    def test_float_memory_rejected(self):
        with pytest.raises(TypeError):
            cutset_bound(P323, 0.5)


# ---------------------------------------------------------------------------
# improved bound
# ---------------------------------------------------------------------------


class TestImprovedBound:
    def test_restricted_term_s1_l1_is_affine(self):
        # at (s=1, l=1) the (3,2,3) term collapses to 7/3 - 2M
        for M in (F(0), F(1, 7), F(2, 3), F(9, 8), F(3, 2)):
            assert improved_term(P323, 1, 1, M) == F(7, 3) - 2 * M

    def test_restricted_term_s1_lN_zero_at_full_access(self):
        for params in (P323, MaccParams(10, 7, 10), MaccParams(5, 2, 8)):
            M = F(params.N, params.L)
            assert improved_term(params, 1, params.N, M) == 0
            assert improved_bound(params, M).R >= 0

    def test_value_at_5_6(self):
        point = improved_bound(P323, F(5, 6))
        assert point.R == F(2, 3)
        assert point.witness == {"s": 1, "l": 1}
        # losing candidates from full enumeration: 3 - 3M and 1 - 2M/3
        assert 3 - 3 * F(5, 6) == F(1, 2)
        assert 1 - F(2, 3) * F(5, 6) == F(4, 9)

    def test_value_at_zero(self):
        assert improved_bound(P323, 0).R == 3

    @pytest.mark.parametrize("K,L,N", [(3, 2, 3), (4, 1, 6), (7, 3, 5), (6, 6, 9)])
    def test_matches_brute_force(self, K, L, N):
        params = MaccParams(K, L, N)
        for M in (F(0), F(1, 3), F(N, 2 * L), F(N, L)):
            assert improved_bound(params, M).R == brute_improved(params, M)

    def test_term_parameter_validation(self):
        with pytest.raises(ValueError):
            improved_term(P323, 0, 1, 0)
        with pytest.raises(ValueError):
            improved_term(P323, 4, 1, 0)
        with pytest.raises(ValueError):
            improved_term(P323, 1, 4, 0)  # ceil(3/1) = 3


# ---------------------------------------------------------------------------
# prior bounds
# ---------------------------------------------------------------------------


class TestHkdLemma2Bound:
    def test_10_3_10_at_zero(self):
        params = MaccParams(10, 3, 10)
        point = hkd_lemma2_bound(params, 0)
        assert point is not None
        assert point.R == F(3, 2)
        assert point.witness == {"s": 1, "t": 5, "b": 1}
        assert point.R == brute_lemma2(params, F(0))

    def test_inapplicable_when_window_too_wide(self):
        assert hkd_lemma2_bound(MaccParams(10, 7, 10), 0) is None
        assert hkd_lemma2_bound(MaccParams(10, 7, 10), F(1, 2)) is None

    def test_single_term_value(self):
        # st = L gives lambda = 1; deep into the memory range the term is
        # far negative and the max is taken over the full set
        params = MaccParams(10, 3, 10)
        assert hkd_lemma2_term(params, 1, 3, 1, F(10, 3)) == -9
        point = hkd_lemma2_bound(params, F(10, 3))
        assert point is not None
        assert point.R == brute_lemma2(params, F(10, 3))

    def test_b_cap_is_overridable(self):
        params = MaccParams(10, 3, 10)
        for M in (F(0), F(1, 2), F(3)):
            capped = hkd_lemma2_bound(params, M)
            wide = brute_lemma2(params, M, b_max=3 * params.N)
            assert capped is not None and wide is not None
            assert wide == capped.R  # larger b never helps on this instance

    def test_term_outside_set_rejected(self):
        with pytest.raises(ValueError):
            hkd_lemma2_term(MaccParams(10, 3, 10), 1, 6, 1, 0)  # st = 6 > floor(K/2)


class TestHkd2Lemma3Bound:
    def test_323_at_two_thirds(self):
        point = hkd2_lemma3_bound(P323, F(2, 3))
        assert point.R == F(5, 9)
        assert point.witness == {"s": 1}
        # losing terms: s=3 -> 1/3, s=2 -> 0
        assert 3 - F(4) * F(2, 3) / 1 == F(1, 3)
        assert 2 - F(3) * F(2, 3) / 1 == 0

    def test_coincides_with_cutset_at_zero(self):
        assert hkd2_lemma3_bound(P323, 0).R == cutset_bound(P323, 0).R == 3
        big = MaccParams(20, 5, 20)
        assert hkd2_lemma3_bound(big, 0).R == 20


# ---------------------------------------------------------------------------
# best bound and sweeps
# ---------------------------------------------------------------------------


class TestBestLowerBound:
    def test_exact_at_two_thirds(self):
        assert best_lower_bound(P323, F(2, 3)).R == 1

    def test_zero_at_full_memory(self):
        for params in (P323, MaccParams(10, 3, 10), MaccParams(4, 4, 2)):
            point = best_lower_bound(params, params.N)
            assert point.R == 0

    def test_family_witness_at_5_6(self):
        point = best_lower_bound(P323, F(5, 6))
        assert point.R == F(2, 3)
        assert point.witness["family"] == "improved_thm2"

    def test_witness_reevaluation(self):
        for M in (F(0), F(2, 3), F(5, 6), F(3)):
            point = best_lower_bound(P323, M)
            assert evaluate_witness(P323, "best", point.witness, M) == point.R

    def test_registry_order_breaks_ties_between_families(self):
        # at M = 0 three families tie at 3; the first in registry order wins
        assert cutset_bound(P323, 0).R == improved_bound(P323, 0).R == 3
        assert hkd2_lemma3_bound(P323, 0).R == 3
        point = best_lower_bound(P323, 0)
        assert point.R == 3
        assert point.witness == {"family": "cutset_thm1", "s": 3}

    def test_clamped_witness_key_order(self):
        # at M = N all three families are -1; the tie and the clamp together
        assert cutset_bound(P323, 3).R == improved_bound(P323, 3).R == -1
        assert hkd2_lemma3_bound(P323, 3).R == -1
        point = best_lower_bound(P323, 3)
        assert point.R == 0
        assert list(point.witness.items()) == [("family", "cutset_thm1"), ("s", 1), ("clamped", True)]

    @pytest.mark.parametrize("witness", [{"s": 1}, {"family": "best", "s": 1}])
    def test_malformed_witness_refused(self, witness):
        with pytest.raises(bounds.InputError):
            evaluate_witness(P323, "best", witness, 0)


class TestSweepCurve:
    def test_improved_key_points(self):
        curve = sweep_curve(P323, "improved_thm2", [F(0), F(2, 3), F(1), F(3, 2)])
        assert [pt.R for pt in curve.points] == [F(3), F(1), F(1, 3), F(0)]

    def test_endpoint_clamps_to_zero(self):
        for family in ("cutset_thm1", "improved_thm2", "hkd2_lemma3", "best"):
            curve = sweep_curve(P323, family, [F(1), F(3)])
            assert max(curve.points[-1].R, F(0)) == 0

    def test_cutset_dominates_lemma3_pointwise(self):
        params = MaccParams(20, 5, 20)
        grid = uniform_grid(0, 4, 41)
        cut = sweep_curve(params, "cutset_thm1", grid)
        lem = sweep_curve(params, "hkd2_lemma3", grid)
        assert all(a.R >= b.R for a, b in zip(cut.points, lem.points))

    def test_inapplicable_family_yields_empty_curve(self):
        curve = sweep_curve(MaccParams(10, 7, 10), "hkd_lemma2", [F(0), F(1)])
        assert curve.points == ()

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sweep_curve(P323, "best", [])
        with pytest.raises(ValueError):
            sweep_curve(P323, "best", [F(1), F(1)])
        with pytest.raises(ValueError):
            sweep_curve(P323, "nope", [F(0), F(1)])


class TestVerifyDominance:
    def test_323_dense_grid(self):
        report = verify_dominance(P323, uniform_grid(0, F(3, 2), 100))
        assert report.ok

    def test_10_7_10(self):
        params = MaccParams(10, 7, 10)
        report = verify_dominance(params, uniform_grid(0, F(10, 7), 60))
        assert report.ok

    def test_equality_at_zero(self):
        report = verify_dominance(P323, [F(0)])
        entry = report.entries[0]
        assert entry.improved == entry.cutset == min(P323.K, P323.N)
        assert report.ok

    @pytest.mark.parametrize("grid", [[F(1), F(1)], [F(1), F(0)]])
    def test_grid_must_be_strictly_increasing(self, grid):
        with pytest.raises(bounds.InputError):
            verify_dominance(P323, grid)

    def test_points_beyond_full_access_skip_lemma4(self):
        report = verify_dominance(P323, [F(0), F(3, 2), F(2)])
        checked = [e.improved_vs_cutset_checked for e in report.entries]
        assert checked == [True, True, False]

    def test_violations_are_reported_per_point_in_check_order(self, monkeypatch):
        # improved lowered by 1 and lemma3 raised by 1 break both relations
        def shifted(family, delta):
            coeffs = bounds.FAMILIES[family].coeffs

            def shifted_coeffs(params, **witness):
                intercept, slope = coeffs(params, **witness)
                return intercept + delta, slope

            return dataclasses.replace(bounds.FAMILIES[family], coeffs=shifted_coeffs)

        monkeypatch.setitem(bounds.FAMILIES, "improved_thm2", shifted("improved_thm2", -1))
        monkeypatch.setitem(bounds.FAMILIES, "hkd2_lemma3", shifted("hkd2_lemma3", 1))
        # N/L = 3/2, so M = 2 is outside the improved >= cutset claim
        report = verify_dominance(P323, [F(0), F(1), F(2)])
        assert not report.ok
        assert [list(v.items()) for v in report.violations] == [
            [("check", "improved_vs_cutset"), ("M", "0"), ("lhs", "2"), ("rhs", "3")],
            [("check", "cutset_vs_lemma3"), ("M", "0"), ("lhs", "3"), ("rhs", "4")],
            [("check", "improved_vs_cutset"), ("M", "1"), ("lhs", "-2/3"), ("rhs", "1/3")],
            [("check", "cutset_vs_lemma3"), ("M", "1"), ("lhs", "1/3"), ("rhs", "4/3")],
            [("check", "cutset_vs_lemma3"), ("M", "2"), ("lhs", "-1/3"), ("rhs", "2/3")],
        ]
        assert report.to_dict()["violations"] == list(report.violations)


def test_single_point_evaluation_matches_sweep():
    # the single-point and whole-grid paths must agree on R and on the
    # first-in-order witness, for every id including best and inapplicable ones
    for K in range(1, 9):
        for L in range(1, K + 1):
            for N in range(1, 9):
                params = MaccParams(K, L, N)
                grid = default_memory_grid(params, 9)
                for bound_id in FAMILY_IDS:
                    curve = sweep_curve(params, bound_id, grid)
                    points = [evaluate_bound(params, bound_id, m) for m in grid]
                    if not curve.points:
                        assert points == [None] * len(grid), (params, bound_id)
                        continue
                    assert [(p.M, p.R, p.witness) for p in points] == [
                        (p.M, p.R, p.witness) for p in curve.points
                    ], (params, bound_id)


class TestUncodedThresholdGap:
    @pytest.mark.parametrize(
        "K,L,N,coded,uncoded",
        [(3, 2, 3, F(3, 2), F(2)), (4, 2, 4, F(2), F(2)), (10, 6, 10, F(5, 3), F(2))],
    )
    def test_values(self, K, L, N, coded, uncoded):
        assert uncoded_threshold_gap(MaccParams(K, L, N)) == (coded, uncoded)

    def test_strict_gap_iff_L_does_not_divide_K(self):
        for K in range(1, 12):
            for L in range(1, K + 1):
                coded, uncoded = uncoded_threshold_gap(MaccParams(K, L, 7))
                assert uncoded >= coded
                assert (uncoded > coded) == (K % L != 0)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


@st.composite
def params_and_memories(draw, n_memories=1, cap=None):
    K = draw(st.integers(min_value=1, max_value=8))
    L = draw(st.integers(min_value=1, max_value=K))
    N = draw(st.integers(min_value=1, max_value=10))
    params = MaccParams(K, L, N)
    top = F(N) if cap is None else F(N, L)
    memories = sorted(
        draw(st.fractions(min_value=0, max_value=top, max_denominator=60))
        for _ in range(n_memories)
    )
    return params, memories


@settings(max_examples=120, deadline=None)
@given(params_and_memories(n_memories=2))
def test_families_non_increasing_in_memory(case):
    params, (m1, m2) = case
    for family in ("cutset_thm1", "improved_thm2", "hkd_lemma2", "hkd2_lemma3", "best"):
        lo, hi = evaluate_bound(params, family, m1), evaluate_bound(params, family, m2)
        if lo is None:
            assert hi is None
            continue
        assert lo.R >= hi.R


@settings(max_examples=120, deadline=None)
@given(params_and_memories(n_memories=2))
def test_families_convex_at_midpoint(case):
    params, (m1, m2) = case
    mid = (m1 + m2) / 2
    for family in ("cutset_thm1", "improved_thm2", "hkd_lemma2", "hkd2_lemma3"):
        a, b = evaluate_bound(params, family, m1), evaluate_bound(params, family, m2)
        if a is None:
            continue
        c = evaluate_bound(params, family, mid)
        assert c.R <= (a.R + b.R) / 2


@settings(max_examples=150, deadline=None)
@given(params_and_memories(cap="NL"))
def test_improved_dominates_cutset_below_full_access(case):
    params, (m,) = case
    assert improved_bound(params, m).R >= cutset_bound(params, m).R


@settings(max_examples=150, deadline=None)
@given(params_and_memories())
def test_cutset_dominates_lemma3(case):
    params, (m,) = case
    assert cutset_bound(params, m).R >= hkd2_lemma3_bound(params, m).R


@settings(max_examples=100, deadline=None)
@given(params_and_memories())
def test_witness_reproduces_value_exactly(case):
    params, (m,) = case
    for family in ("cutset_thm1", "improved_thm2", "hkd_lemma2", "hkd2_lemma3", "best"):
        point = evaluate_bound(params, family, m)
        if point is None:
            continue
        assert evaluate_witness(params, family, point.witness, m) == point.R


@settings(max_examples=100, deadline=None)
@given(params_and_memories())
def test_all_results_are_exact_fractions(case):
    params, (m,) = case
    for family in FAMILY_IDS:
        point = evaluate_bound(params, family, m)
        if point is None:
            continue
        assert isinstance(point.R, F) and isinstance(point.M, F)


@settings(max_examples=60, deadline=None)
@given(params_and_memories())
def test_improved_endpoint_identity(case):
    params, _ = case
    assert improved_bound(params, 0).R == min(params.K, params.N)


def test_default_grid_spans_full_access_range():
    grid = default_memory_grid(P323)
    assert len(grid) == 101
    assert grid[0] == 0 and grid[-1] == F(3, 2)
