"""Memory sharing between achievable (M, R) points and the exact (3, 2, 3)
rate-memory trade-off."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .params import InputError, MemoryLike, as_memory

Point = tuple[Fraction, Fraction]

#: Achievable (M, R) corner points for the (3, 2, 3) network with the scheme
#: that realizes each.  The (1, 1/3) vertex comes from prior constructions
#: and is adopted without simulation.
ACHIEVABLE_POINTS_323: tuple[tuple[Fraction, Fraction, str], ...] = (
    (Fraction(0), Fraction(3), "zero-memory"),
    (Fraction(2, 3), Fraction(1), "appendix-b"),
    (Fraction(1), Fraction(1, 3), "prior-art"),
    (Fraction(3, 2), Fraction(0), "corner-323"),
)


def _cross(o: Point, a: Point, b: Point) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def lower_convex_envelope(points: Sequence[tuple[MemoryLike, MemoryLike]]) -> list[Point]:
    """Vertices of the lower convex hull of (M, R) points, sorted by M.

    Points above the hull are dropped; duplicate memories keep the lowest R.
    """
    if not points:
        raise InputError("empty point set")
    hull: list[Point] = []
    for p in sorted((as_memory(m), as_memory(r)) for m, r in points):
        if hull and p[0] == hull[-1][0]:  # the lowest R of a memory sorts first
            continue
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    return hull


def memory_share(points: Sequence[tuple[MemoryLike, MemoryLike]], M: MemoryLike) -> Fraction:
    """Rate achievable at memory M by time-sharing the given (M, R) points.

    This is the lower convex envelope of the points, evaluated at M; M must
    lie between the smallest and largest point memories.
    """
    m = as_memory(M)
    hull = lower_convex_envelope(points)
    if not hull[0][0] <= m <= hull[-1][0]:
        raise InputError(
            f"M={m} outside the convex hull [{hull[0][0]}, {hull[-1][0]}] of the given points"
        )
    for (m0, r0), (m1, r1) in zip(hull, hull[1:]):
        if m0 <= m <= m1:
            return r0 + (r1 - r0) * (m - m0) / (m1 - m0)
    return hull[-1][1]  # reached only for a one-point hull: m is its only vertex


def optimal_tradeoff_323(M: MemoryLike) -> Fraction:
    """Exact optimal rate for the (3, 2, 3) network on 0 <= M <= 3/2.

    Piecewise linear: 3(1-M), then 7/3 - 2M, then 1 - 2M/3.
    """
    m = as_memory(M)
    if not 0 <= m <= Fraction(3, 2):
        raise InputError(f"M={m} outside [0, 3/2]")
    if m <= Fraction(2, 3):
        return 3 * (1 - m)
    if m <= 1:
        return Fraction(7, 3) - 2 * m
    return 1 - Fraction(2, 3) * m
