"""Acceptance suite: one test per criterion, exact tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion (a failed assertion surfaces as the pytest FAILED line instead).
"""

import time
from fractions import Fraction as F
from math import comb

import pytest

import oracles
from macckit import (
    ACHIEVABLE_POINTS_323,
    FileLibrary,
    MaccParams,
    best_lower_bound,
    default_memory_grid,
    improved_bound,
    lower_convex_envelope,
    memory_share,
    optimal_tradeoff_323,
    run_sliding_window_batch,
    scheme_appendix_b,
    scheme_full_access_corner_323,
    sweep_curve,
    uniform_grid,
    verify_scheme,
)
from macckit.bounds import FAMILIES, FAMILY_IDS, evaluate_bound, improved_term
from macckit.schemes import ParityScheme
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


#: Criterion 9 parameter grid: every (K, L, N) with K <= 10, N <= 12 and
#: L <= floor(K/2), where hkd_lemma2 applies (300 triples).
LEMMA2_TRIPLES = [
    (K, L, N) for K in range(2, 11) for L in range(1, K // 2 + 1) for N in range(1, 13)
]


def improved_vs_lemma2(triples):
    """(violations, never strict, mismatches) of improved >= hkd_lemma2, both
    clamped at 0, on the whole of [0, N] for each (K, L, N).

    The checked memories are 0, N and every breakpoint on [0, N] of each
    family's oracle maximum clamped at 0 (a zero line joins its terms, so
    the kink where the family reaches 0 is one).  Between two checked
    memories both clamped families are linear, and so is their difference,
    so a check at these memories covers the interval.  A violation is a
    (K, L, N, M) where improved is below; a triple is never strict when
    improved is nowhere above at a checked M < N; a mismatch is a
    (K, L, N, M, id) where the library's clamped value is not the oracle's.
    """
    ids = ("improved_thm2", "hkd_lemma2")
    violations, never_strict, mismatches = [], [], []
    for K, L, N in triples:
        params = MaccParams(K, L, N)
        family_terms = {bound_id: oracles.terms(params, bound_id) for bound_id in ids}
        grid = {F(0), F(N)}
        for terms in family_terms.values():
            grid.update(oracles.breakpoints(terms + [({}, F(0), F(0))], F(0), F(N)))
        grid = sorted(grid)
        values = [[clamp(p.R) for p in sweep_curve(params, bound_id, grid).points] for bound_id in ids]
        for bound_id, column in zip(ids, values):
            for M, R in zip(grid, column):
                if R != max(F(0), oracles.first_maximum(family_terms[bound_id], M)[0]):
                    mismatches.append((K, L, N, M, bound_id))
        strict = False
        for M, improved, lemma2 in zip(grid, *values):
            if improved < lemma2:
                violations.append((K, L, N, M))
            strict = strict or (improved > lemma2 and M < N)
        if not strict:
            never_strict.append((K, L, N))
    return violations, never_strict, mismatches


def test_criterion_9_improved_dominates_lemma2_on_the_whole_interval():
    started = time.time()
    violations, never_strict, mismatches = improved_vs_lemma2(LEMMA2_TRIPLES)
    assert (violations, mismatches) == ([], [])
    # with one file both families fall from 1 to 0 along the same line
    assert never_strict == [(K, L, N) for K, L, N in LEMMA2_TRIPLES if N == 1]
    _announce(9, "improved >= hkd_lemma2 on all of [0, N] for 300 triples, exact breakpoints", started)


def test_criterion_9_sees_a_raised_lemma2(monkeypatch):
    monkeypatch.setitem(FAMILIES, "hkd_lemma2", oracles.shifted(FAMILIES["hkd_lemma2"], F(1, 1000)))
    # on K = 2 both families start at 1 when N = 1, so a raised lemma2 is above there
    violations, _, mismatches = improved_vs_lemma2([t for t in LEMMA2_TRIPLES if t[0] == 2])
    assert (2, 1, 1, 0) in violations and mismatches


def achievable_points(K, L, N):
    """(M, R) points achievable on a (K, L, N) network.  The zero-memory
    point (0, min(N, K)) is simulated by the package's zero-memory scheme,
    and on L = K - 1 the point (N/(K - 1), 0) by its parity scheme
    (tests/test_schemes.py::TestParityScheme).
    On L = 1 the points M = tN/K, R = [C(K, t+1) - C(K - min(N, K), t+1)]
    / C(K, t), t = 0..K, are cited from Maddah-Ali--Niesen 2014 and
    Yu--Maddah-Ali--Avestimehr 2018: formulas, not simulated here."""
    points = [(F(0), F(min(N, K)))]
    parity = ParityScheme().shape(MaccParams(K, L, N))
    if parity is not None:
        points.append((parity[0], F(0)))
    if L == 1:
        points += [
            (F(t * N, K), F(comb(K, t + 1) - comb(K - min(N, K), t + 1), comb(K, t)))
            for t in range(K + 1)
        ]
    return points


def bounds_above_achievable(networks):
    """Every (K, L, N, id, M) where a bound, a family's or best's, is above
    the memory share of achievable_points at a vertex of their lower convex
    envelope.  Each bound is a maximum of lines, so convex, and the share is
    linear between vertices, so no violation at a vertex means none on the
    envelope's whole span.  It
    reads neither tests/oracles.py nor any digest, so it also sees a slip
    that the oracle shares."""
    violations = []
    for K, L, N in networks:
        params = MaccParams(K, L, N)
        for M, R in lower_convex_envelope(achievable_points(K, L, N)):
            for bound_id in FAMILY_IDS:
                point = evaluate_bound(params, bound_id, M)
                if point is not None and point.R > R:
                    violations.append((K, L, N, bound_id, M))
    return violations


#: Criterion 10 networks: every (K, L, N) with K <= 12, N <= 12 and
#: 1 <= L <= K (936 networks).
ACHIEVABILITY_NETWORKS = [
    (K, L, N) for K in range(1, 13) for L in range(1, K + 1) for N in range(1, 13)
]


def test_criterion_10_no_bound_above_an_achievable_point():
    started = time.time()
    assert bounds_above_achievable(ACHIEVABILITY_NETWORKS) == []
    _announce(10, "no bound above the zero-memory, parity or (L = 1) cited points, 936 networks", started)


def test_criterion_10_sees_a_raised_cutset(monkeypatch):
    # cut-set is min(N, K) at M = 0, the zero-memory point of every network
    monkeypatch.setitem(FAMILIES, "cutset_thm1", oracles.shifted(FAMILIES["cutset_thm1"], F(1, 1000)))
    violations = bounds_above_achievable(ACHIEVABILITY_NETWORKS)
    assert {(K, L, N) for K, L, N, *_ in violations} == set(ACHIEVABILITY_NETWORKS)


def test_criterion_10_sees_the_lemma3_ceiling_slip(monkeypatch):
    # lemma3 with ceil(N/s) in place of floor(N/s) stays under the zero-memory
    # point; it rises above the parity point (N/(K - 1), 0) of L = K - 1 only
    lemma3 = FAMILIES["hkd2_lemma3"]

    def ceiling(params, s):
        c = -(-params.N // s)
        return s * c, s + params.L - 1, c

    monkeypatch.setitem(FAMILIES, "hkd2_lemma3", type(lemma3)(**{**vars(lemma3), "coeffs": ceiling}))
    violations = bounds_above_achievable(ACHIEVABILITY_NETWORKS)
    assert violations
    assert all(L == K - 1 and M == F(N, L) for K, L, N, _, M in violations)
