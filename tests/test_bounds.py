"""Bound-family tests: frozen example values, independent brute-force
oracles (tests/oracles.py), and property tests for the shared structural
invariants."""

import dataclasses
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
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
    BEST,
    FAMILIES,
    FAMILY_IDS,
    cutset_term,
    evaluate_bound,
    evaluate_witness,
    hkd2_lemma3_term,
    hkd_lemma2_term,
    improved_term,
)
from macckit.params import InputTypeError

P323 = MaccParams(3, 2, 3)


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
        assert (point.R, point.witness) == oracles.bound(P323, "cutset_thm1", M)

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
        with pytest.raises(TypeError):
            evaluate_witness(P323, "cutset_thm1", {"s": 1}, 0.5)
        for memory in (lambda: cutset_bound(P323, 0.5), lambda: bounds.as_memory(0.5)):
            with pytest.raises(bounds.InputError, match="memory must be exact"):
                memory()

    def test_memory_refusals(self):
        # as_memory takes an int, a Fraction or a fraction string and nothing else
        for memory in (True, None):
            with pytest.raises(InputTypeError, match="memory must be exact"):
                cutset_bound(P323, memory)
        with pytest.raises(InputTypeError):
            uniform_grid(0, True, 3)
        for memory in ("x", "1/0", "inf"):
            with pytest.raises(bounds.InputError, match="is not a rational"):
                cutset_bound(P323, memory)
        assert cutset_bound(P323, "2/3") == cutset_bound(P323, F(2, 3))

    def test_term_outside_space_rejected(self):
        with pytest.raises(bounds.InputError):
            cutset_term(P323, 0, 0)


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
            point = improved_bound(params, M)
            assert (point.R, point.witness) == oracles.bound(params, "improved_thm2", M)

    def test_term_parameter_validation(self):
        with pytest.raises(ValueError):
            improved_term(P323, 0, 1, 0)
        with pytest.raises(ValueError):
            improved_term(P323, 4, 1, 0)
        with pytest.raises(ValueError):
            improved_term(P323, 1, 4, 0)  # ceil(3/1) = 3
        for s, l in ((True, 1), (1, True), (1.5, 1), (1, 1.0)):
            with pytest.raises(bounds.InputError, match="must be an int"):
                improved_term(P323, s, l, 0)
        for term in (cutset_term, hkd2_lemma3_term):
            for s in (True, 1.0):
                with pytest.raises(bounds.InputError, match="must be an int"):
                    term(P323, s, 0)
        params = MaccParams(10, 3, 10)  # (s, t, b) = (1, 5, 1) is in lemma2's space
        for s, t, b in ((1, 5, True), (1, 5, 1.0), (True, 5, 1), (1, 5.0, 1)):
            with pytest.raises(bounds.InputError, match="must be an int"):
                hkd_lemma2_term(params, s, t, b, 0)
            with pytest.raises(bounds.InputError, match="must be an int"):
                evaluate_witness(params, "best", {"family": "hkd_lemma2", "s": s, "t": t, "b": b}, 0)
        # coeffs' own refusal reaches the caller unwrapped, as an InputError and a TypeError
        with pytest.raises(TypeError, match=r"^s must be an int, got 1\.5$") as refused:
            cutset_term(P323, 1.5, 0)
        assert isinstance(refused.value, bounds.InputError)


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
        assert (point.R, point.witness) == oracles.bound(params, "hkd_lemma2", F(0))

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
        assert (point.R, point.witness) == oracles.bound(params, "hkd_lemma2", F(10, 3))

    def test_b_cap_is_overridable(self):
        params = MaccParams(10, 3, 10)
        for M in (F(0), F(1, 2), F(3)):
            capped = hkd_lemma2_bound(params, M)
            wide = oracles.bound(params, "hkd_lemma2", M, b_cap=3 * params.N)
            assert capped is not None and wide is not None
            assert wide[0] == capped.R  # larger b never helps on this instance

    def test_term_outside_set_rejected(self):
        with pytest.raises(ValueError):
            hkd_lemma2_term(MaccParams(10, 3, 10), 1, 6, 1, 0)  # st = 6 > floor(K/2)


class TestHkd2Lemma3Bound:
    def test_323_at_two_thirds(self):
        point = hkd2_lemma3_bound(P323, F(2, 3))
        assert point.R == F(5, 9)
        assert point.witness == {"s": 1}
        # losing terms: s=3 -> 3 - 4 * (2/3) / 1 = 1/3, s=2 -> 2 - 3 * (2/3) / 1 = 0
        assert hkd2_lemma3_term(P323, 3, F(2, 3)) == F(1, 3)
        assert hkd2_lemma3_term(P323, 2, F(2, 3)) == 0

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

    @pytest.mark.parametrize(
        "witness",
        [{"s": 1}, {"family": "best", "s": 1}, {"family": "cutset", "s": 1}, {"family": ["cutset_thm1"], "s": 1}],
    )
    def test_malformed_witness_refused(self, witness):
        # the message names the four families a best witness may carry, not best
        families = "('cutset_thm1', 'improved_thm2', 'hkd_lemma2', 'hkd2_lemma3')"
        message = f"a best witness needs a family in {families}, got {witness.get('family')!r}"
        with pytest.raises(bounds.InputError, match=f"^{re.escape(message)}$"):
            evaluate_witness(P323, "best", witness, 0)

    @pytest.mark.parametrize(
        "bound_id,witness",
        [
            ("cutset_thm1", {"s": 1, "l": 1}),
            ("improved_thm2", {"s": 1}),
            ("best", {"family": "cutset_thm1", "t": 1}),
            # keys that name a parameter of evaluate_witness or its helpers
            ("cutset_thm1", {"s": 1, "M": 5}),
            ("cutset_thm1", {"s": 1, "params": P323}),
            ("cutset_thm1", {"s": 1, "family": "cutset_thm1"}),
            ("best", {"family": "cutset_thm1", "s": 1, "M": 5}),
            ("cutset_thm1", {"s": 1, 2: 3}),
            # clamped belongs to best's witnesses only
            ("cutset_thm1", {"s": 1, "clamped": True}),
        ],
    )
    def test_witness_keys_must_fit_the_family(self, bound_id, witness):
        with pytest.raises(bounds.InputError, match="cutset_thm1|improved_thm2"):
            evaluate_witness(P323, bound_id, witness, 0)

    @pytest.mark.parametrize("clamped", ["no", 1, False, None, "True"])
    def test_best_clamped_flag_can_only_be_true(self, clamped):
        # at M = N the cut-set term at s = 1 is -1; only clamped: True raises it to 0
        witness = {"family": "cutset_thm1", "s": 1}
        assert evaluate_witness(P323, "best", witness, 3) == -1
        assert evaluate_witness(P323, "best", {**witness, "clamped": True}, 3) == 0
        message = f"a best witness's clamped flag can only be True, got {clamped!r}"
        with pytest.raises(bounds.InputError, match=f"^{re.escape(message)}$"):
            evaluate_witness(P323, "best", {**witness, "clamped": clamped}, 3)

    @pytest.mark.parametrize("bound_id,witness", [("cutset_thm1", "s"), ("best", "s"), ("best", None)])
    def test_non_dict_witness_refused(self, bound_id, witness):
        with pytest.raises(InputTypeError, match=f"^a witness must be a dict, got {re.escape(repr(witness))}$"):
            evaluate_witness(P323, bound_id, witness, 0)


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

    def test_curve_carries_the_search_caps(self):
        params = MaccParams(20, 5, 20)
        assert sweep_curve(params, "hkd_lemma2", [F(0), F(1)]).caps == {"b_cap": 20}
        for bound_id in ("cutset_thm1", "improved_thm2", "hkd2_lemma3", "best"):
            assert sweep_curve(params, bound_id, [F(0), F(1)]).caps == {}
        # an inapplicable family still records the cap its empty search used
        curve = sweep_curve(MaccParams(10, 7, 10), "hkd_lemma2", [F(0), F(1)])
        assert curve.caps == {"b_cap": 10}

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sweep_curve(P323, "best", [])
        with pytest.raises(ValueError):
            sweep_curve(P323, "best", [F(1), F(1)])
        with pytest.raises(ValueError):
            sweep_curve(P323, "nope", [F(0), F(1)])
        with pytest.raises(ValueError):
            uniform_grid(1, 1, 5)
        for count in (2.5, 3.0, True):
            with pytest.raises(bounds.InputError, match="must be an int"):
                uniform_grid(0, 1, count)


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


@pytest.mark.parametrize(
    "query",
    [
        lambda bound_id: evaluate_bound(P323, bound_id, 0),
        lambda bound_id: evaluate_witness(P323, bound_id, {"s": 1}, 0),
        lambda bound_id: sweep_curve(P323, bound_id, [0, 1]),
    ],
    ids=["evaluate_bound", "evaluate_witness", "sweep_curve"],
)
@pytest.mark.parametrize("bound_id", [["x"], {"a": 1}, None], ids=["list", "dict", "None"])
def test_bound_id_of_wrong_type_is_a_type_error(query, bound_id):
    message = f"a bound id must be a str, got {bound_id!r}"
    with pytest.raises(InputTypeError, match=f"^{re.escape(message)}$"):
        query(bound_id)


class TestTermCache:
    """bounds keeps the scaled term lists of the most recent network."""

    def test_a_mutated_witness_does_not_reach_the_next_query(self):
        cases = ((best_lower_bound, {"family": "cutset_thm1", "s": 1}), (cutset_bound, {"s": 1}))
        for query, expected in cases:
            assert query(P323, 1).witness == expected
            query(P323, 1).witness["s"] = 99
            assert query(P323, 1).witness == expected

    def test_a_replaced_family_is_enumerated_anew(self, monkeypatch):
        M = F(5, 6)
        improved = FAMILIES["improved_thm2"]
        before = improved_bound(P323, M), best_lower_bound(P323, M)
        assert before[1].witness["family"] == "improved_thm2"

        def raised(params, **witness):
            intercept, slope = improved.coeffs(params, **witness)
            return intercept + 1, slope

        monkeypatch.setitem(FAMILIES, "improved_thm2", dataclasses.replace(improved, coeffs=raised))
        assert improved_bound(P323, M).R == before[0].R + 1
        assert best_lower_bound(P323, M) == dataclasses.replace(before[1], R=before[1].R + 1)
        monkeypatch.undo()
        assert (improved_bound(P323, M), best_lower_bound(P323, M)) == before

    def test_the_cache_holds_one_network(self):
        for K in range(1, 7):
            for N in range(1, 7):
                for bound_id in FAMILY_IDS:
                    evaluate_bound(MaccParams(K, 1, N), bound_id, 0)
        assert 0 < bounds._scaled_terms.cache_info().currsize <= len(FAMILY_IDS)


def test_single_point_evaluation_matches_sweep():
    # the single-point and whole-grid paths must agree on R and on the
    # first-in-order witness, for every id including best and inapplicable ones
    for K in range(1, 9):
        for L in range(1, K + 1):
            for N in range(1, 9):
                params = MaccParams(K, L, N)
                grid = uniform_grid(0, F(N, L), 9)
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


# ---------------------------------------------------------------------------
# the integer kernel against the Fraction first-strict-maximum oracle
# ---------------------------------------------------------------------------


# built from integers: st.fractions draws too slowly for a few hundred lists
coefficients = st.builds(F, st.integers(-2000, 2000), st.integers(1, 40))


def memories(top):
    """Memories in [0, top] with denominators up to 12 and up to 10^30."""

    def fractions(max_denominator):
        pairs = st.tuples(st.integers(0, top * max_denominator), st.integers(1, max_denominator))
        return pairs.map(lambda pq: F(pq[0] % (top * pq[1] + 1), pq[1]))

    return fractions(12) | fractions(10**30)


@st.composite
def term_lists_and_memories(draw):
    """A term list with duplicate lines and with lines that tie at the maximum
    at one of the drawn memories; values may be negative."""
    grid = draw(st.lists(memories(100), min_size=1, max_size=4))
    lines = draw(st.lists(st.tuples(coefficients, coefficients), min_size=1, max_size=12))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(lines)))
    M = draw(st.sampled_from(grid))
    top = max(a - b * M for a, b in lines)
    for slope in draw(st.lists(coefficients, max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), (top + slope * M, slope))
    return [({"i": i}, a, b) for i, (a, b) in enumerate(lines)], grid


@settings(max_examples=200, deadline=None)
@given(term_lists_and_memories())
def test_integer_kernel_matches_fraction_oracle(case):
    terms, grid = case
    scaled, D = bounds._scale(terms)
    for M in grid:
        point = bounds._maximize(scaled, D, M)
        assert (point.M, point.R, point.witness) == (M, *oracles.first_maximum(terms, M))
        assert type(point.R) is F


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sweep_curve_matches_fraction_oracle(data):
    K = data.draw(st.integers(min_value=1, max_value=7))
    L = data.draw(st.integers(min_value=1, max_value=K))
    N = data.draw(st.integers(min_value=1, max_value=8))
    params = MaccParams(K, L, N)
    terms = {
        bound_id: list(bounds._terms(family, params)) for bound_id, family in FAMILIES.items()
    }
    terms[BEST] = oracles.best_terms(terms)
    # memories where two of best's lines cross, so ties at grid points are drawn
    crossings = sorted(
        {
            (a1 - a2) / (b1 - b2)
            for _, a1, b1 in terms[BEST]
            for _, a2, b2 in terms[BEST]
            if b1 != b2 and 0 <= (a1 - a2) / (b1 - b2) <= N
        }
    )
    candidates = st.sampled_from(crossings) | memories(N) if crossings else memories(N)
    grid = sorted(set(data.draw(st.lists(candidates, min_size=1, max_size=6))))
    for bound_id in FAMILY_IDS:
        points = sweep_curve(params, bound_id, grid).points
        if not terms[bound_id]:
            assert points == ()
            continue
        assert len(points) == len(grid)
        for point, M in zip(points, grid):
            expected = (M, *oracles.maximum(terms[bound_id], bound_id, M))
            assert (point.M, point.R, point.witness) == expected, (params, bound_id)
            assert type(point.R) is F
