"""Acceptance suite: one test per criterion, exact tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion (a failed assertion surfaces as the pytest FAILED line instead).
"""

import time
from fractions import Fraction as F

import pytest

from macckit import (
    ACHIEVABLE_POINTS_323,
    FileLibrary,
    MaccParams,
    best_lower_bound,
    default_memory_grid,
    improved_bound,
    memory_share,
    optimal_tradeoff_323,
    run_sliding_window_batch,
    scheme_appendix_b,
    scheme_full_access_corner_323,
    sweep_curve,
    uniform_grid,
    verify_scheme,
)
from macckit.bounds import improved_term
from macckit.serialize import clamp

P323 = MaccParams(3, 2, 3)

#: Criterion 4/5/6 parameter grid: every (K, L, N) with K in [2..10],
#: L in [1..K], N in [1..12].
PARAM_TRIPLES = [
    (K, L, N) for K in range(2, 11) for L in range(1, K + 1) for N in range(1, 13)
]


def _announce(number: int, name: str, started: float) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS [{time.time() - started:.2f}s]")


def test_criterion_1_exact_323_optimality_sandwich():
    started = time.time()
    vertices = [(m, r) for m, r, _ in ACHIEVABLE_POINTS_323]
    for m in uniform_grid(0, F(3, 2), 151):
        lower = best_lower_bound(P323, m).R
        exact = optimal_tradeoff_323(m)
        shared = memory_share(vertices, m)
        assert lower == exact == shared, f"sandwich broken at M={m}"
    _announce(1, "exact (3,2,3) optimality sandwich, 151 points, zero tolerance", started)


def test_criterion_2_coded_scheme_verifies_on_twenty_seeds():
    started = time.time()
    scheme = scheme_appendix_b()
    for seed in range(20):
        report = verify_scheme(scheme, FileLibrary.random(P323, 12, seed=seed))
        assert report.passed, f"decode failure with seed {seed}: {report.failures}"
        assert len(report.per_demand) == 27
        assert all(outcome.rate == 1 for outcome in report.per_demand), seed
    _announce(2, "coded (2/3, 1) scheme: 27 demands x 3 users x 20 seeds, rate exactly 1", started)


def test_criterion_3_corner_scheme_rate_zero():
    started = time.time()
    report = verify_scheme(scheme_full_access_corner_323(), FileLibrary.random(P323, 12, seed=0))
    assert report.passed
    assert len(report.per_demand) == 27
    assert report.worst_case_rate == 0
    assert all(outcome.rate == 0 for outcome in report.per_demand)
    _announce(3, "corner (3/2, 0) scheme: exhaustive verification at rate 0", started)


@pytest.fixture(scope="module")
def family_values_on_grid():
    """Exact cutset/improved/lemma3 values on a 51-point grid over [0, N/L]
    for every parameter triple; shared by criteria 4 and 5."""
    results = {}
    for K, L, N in PARAM_TRIPLES:
        params = MaccParams(K, L, N)
        grid = uniform_grid(0, F(N, L), 51)
        improved, cutset, lemma3 = (
            sweep_curve(params, bound_id, grid).points
            for bound_id in ("improved_thm2", "cutset_thm1", "hkd2_lemma3")
        )
        results[(K, L, N)] = [
            (m, i.R, c.R, l3.R) for m, i, c, l3 in zip(grid, improved, cutset, lemma3, strict=True)
        ]
    return results


def test_criterion_4_improved_dominates_cutset_everywhere(family_values_on_grid):
    started = time.time()
    violations = [
        (K, L, N, m)
        for (K, L, N), rows in family_values_on_grid.items()
        for m, improved, cutset, _ in rows
        if improved < cutset
    ]
    assert violations == []
    _announce(4, "improved >= cutset on [0, N/L] for all 648 parameter triples", started)


def test_criterion_5_cutset_dominates_lemma3_with_strictness(family_values_on_grid):
    started = time.time()
    violations = []
    strictness_missing = []
    for (K, L, N), rows in family_values_on_grid.items():
        for m, _, cutset, lemma3 in rows:
            if cutset < lemma3:
                violations.append((K, L, N, m))
        cap_active = any(s + L - 1 > K for s in range(1, min(K, N) + 1))
        if cap_active and not any(
            cutset > lemma3 for m, _, cutset, lemma3 in rows if m > 0
        ):
            strictness_missing.append((K, L, N))
    assert violations == []
    assert strictness_missing == []
    _announce(5, "cutset >= lemma3 pointwise, strict somewhere whenever the cap binds", started)


def test_criterion_6_endpoint_identities():
    started = time.time()
    for K, L, N in PARAM_TRIPLES:
        params = MaccParams(K, L, N)
        assert improved_bound(params, 0).R == min(K, N), (K, L, N)
        assert improved_term(params, 1, N, F(N, L)) == 0, (K, L, N)
    _announce(6, "improved(0) = min(K, N) and the (s=1, l=N) term vanishes at N/L", started)


def test_criterion_7_entropy_suite():
    started = time.time()
    import numpy as np

    from macckit import JointPmf, marginal_entropy, window_entropy_sum

    binary = run_sliding_window_batch(K=3, alphabet=2, trials=1000, seed=101, tol=1e-9)
    ternary = run_sliding_window_batch(K=5, alphabet=3, trials=200, seed=202, tol=1e-9)
    assert binary.passed and binary.failures == ()
    assert ternary.passed and ternary.failures == ()

    rng = np.random.default_rng(303)
    for sizes in [(2, 2, 2)] * 25 + [(3, 3, 3, 3, 3)] * 10:
        pmf = JointPmf.random(sizes, rng)
        joint = marginal_entropy(pmf, list(range(1, pmf.K + 1)))
        assert abs(window_entropy_sum(pmf, pmf.K) - joint) <= 1e-12
    _announce(7, "1000 binary + 200 ternary pmfs, zero violations at 1e-9; "
                 "full-window average equals joint entropy to 1e-12", started)


FIGURE_SETTINGS = [(20, 5, 20), (10, 7, 10), (10, 6, 10), (11, 3, 11), (10, 3, 10)]

#: Families whose value at M=0 is min(K, N); the prior window-counting
#: family starts lower by construction, so only shape checks apply to it.
FULL_START_FAMILIES = ("cutset_thm1", "improved_thm2", "hkd2_lemma3", "best")


def test_criterion_8_figure_shape_properties():
    started = time.time()
    for K, L, N in FIGURE_SETTINGS:
        params = MaccParams(K, L, N)
        grid = default_memory_grid(params)  # 101 points on [0, N/L]
        emitted = {}
        for family in ("cutset_thm1", "improved_thm2", "hkd_lemma2", "hkd2_lemma3", "best"):
            curve = sweep_curve(params, family, grid)
            if curve.points:
                emitted[family] = [clamp(pt.R) for pt in curve.points]
        for family, rs in emitted.items():
            assert all(a >= b for a, b in zip(rs, rs[1:])), (K, L, N, family, "monotone")
            assert all(
                rs[i] <= (rs[i - 1] + rs[i + 1]) / 2 for i in range(1, len(rs) - 1)
            ), (K, L, N, family, "convex")
        for family in FULL_START_FAMILIES:
            assert emitted[family][0] == min(K, N), (K, L, N, family, "start")
        assert all(
            a >= b for a, b in zip(emitted["improved_thm2"], emitted["cutset_thm1"])
        ), (K, L, N, "dominance")
    _announce(8, "figure-shape properties for the five plotted settings", started)
