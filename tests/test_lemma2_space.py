"""hkd_lemma2 searches only the b values that can be the first maximum for
each (s, t).  These tests compare R and witness against the full space
(b over all of [1, N]) of tests/oracles.py on grids that include every
breakpoint, and pin the searched space and the public single-term path."""

from fractions import Fraction as F
from itertools import groupby

import pytest

import oracles
from macckit import MaccParams, sweep_curve, uniform_grid
from macckit.bounds import (
    BEST,
    FAMILIES,
    BoundPoint,
    _terms,
    evaluate_witness,
    hkd_lemma2_term,
)

LEMMA2 = FAMILIES["hkd_lemma2"]

# every triple with K <= 8, N <= 10 and L <= floor(K/2)
SMALL_TRIPLES = [
    MaccParams(K, L, N)
    for K in range(2, 9)
    for L in range(1, K // 2 + 1)
    for N in range(1, 11)
]


def check_grid(params, terms):
    """51 points on [0, N/L], plus M = N, plus every breakpoint on [0, N]."""
    grid = set(uniform_grid(0, F(params.N, params.L), 51))
    grid.add(F(params.N))
    grid.update(oracles.breakpoints(terms, F(0), F(params.N)))
    return sorted(grid)


@pytest.mark.parametrize("bound_id", ["hkd_lemma2", BEST])
def test_pruned_space_matches_full_space(bound_id):
    points = 0
    for params in SMALL_TRIPLES:
        terms = oracles.terms(params, bound_id)
        grid = check_grid(params, terms)
        expected = tuple(BoundPoint(m, *oracles.maximum(terms, bound_id, m)) for m in grid)
        assert sweep_curve(params, bound_id, grid).points == expected, params
        points += len(grid)
    assert len(SMALL_TRIPLES) == 160
    assert points > 51 * len(SMALL_TRIPLES)  # breakpoints were found and checked


def test_breakpoints_of_a_known_envelope():
    # max(2 - 2M, 1 - M/2, 0) turns at M = 2/3 and M = 2
    terms = [({"i": 0}, F(2), F(2)), ({"i": 1}, F(1), F(1, 2)), ({"i": 2}, F(0), F(0))]
    assert oracles.breakpoints(terms, F(0), F(4)) == [F(2, 3), F(2)]


def test_searched_space_at_100_10_100():
    terms = list(_terms(LEMMA2, MaccParams(100, 10, 100)))
    assert len(terms) == 520
    for _, block in groupby((w for w, _, _ in terms), key=lambda w: (w["s"], w["t"])):
        bs = [w["b"] for w in block]
        assert len(bs) <= 4
        assert bs == sorted(set(bs))


def test_single_term_path_takes_any_b():
    # on (20, 5, 20) at (s, t) = (1, 5) the search visits only b in {1, 20}
    params = MaccParams(20, 5, 20)
    searched = {w["b"] for w, _, _ in _terms(LEMMA2, params) if (w["s"], w["t"]) == (1, 5)}
    assert searched == {1, 20}
    M = F(1)
    assert hkd_lemma2_term(params, 1, 5, 7, M) == F(2, 7)  # min(7, 20)/7 - (5/7) M
    assert evaluate_witness(params, "hkd_lemma2", {"s": 1, "t": 5, "b": 7}, M) == F(2, 7)
