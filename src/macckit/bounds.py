"""Lower bounds on the optimal delivery rate R*(M) of a (K, L, N) network.

Four bound families are implemented.  Each family is the maximum of finitely
many affine functions of the cache memory M, so each is convex and
non-increasing in M.  All arithmetic is exact; no floats enter this module.
Terms are compared as integers over one common denominator per term list,
and every R and every single-term value is an exact fractions.Fraction.

Family identifiers used throughout (curve files, witnesses, CLI); each of
the four families is defined by one entry of ``FAMILIES``:

* ``cutset_thm1``   -- cut-set counting over s users reading min(s+L-1, K) caches
* ``improved_thm2`` -- refinement with a second parameter l (number of
  transmissions charged at full rate), tighter for mid-range M
* ``hkd_lemma2``    -- prior window-counting bound; only applicable when
  L <= floor(K/2)
* ``hkd2_lemma3``   -- prior cut-set bound without the min(.., K) cap on
  the cache coefficient
* ``best``          -- maximum over every family's terms in registry order
  (the first maximum wins), clamped below at zero
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Callable, Iterator, Sequence

from .params import InputError, InputTypeError, MaccParams, MemoryLike, as_memory, require_int
from .serialize import fraction_str

Rational = Fraction


@dataclass(frozen=True)
class BoundPoint:
    """One evaluated point of a bound: R at memory M, with the maximizing
    search parameters recorded as a witness."""

    M: Fraction
    R: Fraction
    witness: dict


@dataclass(frozen=True)
class BoundCurve:
    """A bound family sampled on a memory grid (the data behind a plot), with
    the family's search caps the points were computed under ({} for best)."""

    params: MaccParams
    bound_id: str
    points: tuple[BoundPoint, ...]
    caps: dict


Term = tuple[dict, Fraction, Fraction]  # (witness, intercept, slope)
ScaledTerm = tuple[dict, int, int]  # (witness, A, B): the term is (A - B * M) / D


def _scale(terms: Sequence[Term]) -> tuple[list[ScaledTerm], int]:
    """The terms over their common denominator D, the lcm of every intercept
    and slope denominator, as integer terms, with D."""
    D = lcm(*(f.denominator for _, a, b in terms for f in (a, b)))
    scaled = [
        (w, a.numerator * (D // a.denominator), b.numerator * (D // b.denominator))
        for w, a, b in terms
    ]
    return scaled, D


def _maximize(terms: Sequence[ScaledTerm], D: int, M: Fraction) -> BoundPoint:
    """Maximum of (A - B * M) / D over a non-empty scaled term list.  With
    M = p/q the terms are compared as the integers A*q - B*p, and R is built
    as an exact Fraction for the winner only.  The first maximizer in list
    order wins, which realizes the smallest-parameter tie-breaking rule."""
    p, q = M.numerator, M.denominator
    best, A, B = terms[0]
    best_value = A * q - B * p
    for witness, A, B in terms[1:]:
        value = A * q - B * p
        if value > best_value:
            best, best_value = witness, value
    return BoundPoint(M=M, R=Fraction(best_value, D * q), witness=dict(best))


# ---------------------------------------------------------------------------
# the family registry: each family is a witness space (in tie-break order:
# ascending s, then l, then t, then b) and the (intercept, slope) of the term
# at one witness.  coeffs is the only place a formula is written; it also
# rejects witnesses outside the space.
# ---------------------------------------------------------------------------


def _cutset_space(params: MaccParams) -> Iterator[dict]:
    for s in range(1, min(params.K, params.N) + 1):
        yield {"s": s}


def _cutset_coeffs(params: MaccParams, s: int) -> tuple[Fraction, Fraction]:
    require_int("s", s, 1, min(params.K, params.N))
    return Fraction(s), Fraction(min(s + params.L - 1, params.K), params.N // s)


def _lemma3_coeffs(params: MaccParams, s: int) -> tuple[Fraction, Fraction]:
    require_int("s", s, 1, min(params.K, params.N))
    return Fraction(s), Fraction(s + params.L - 1, params.N // s)


def _improved_space(params: MaccParams) -> Iterator[dict]:
    for s in range(1, params.K + 1):
        for l in range(1, -(-params.N // s) + 1):
            yield {"s": s, "l": l}


def _improved_coeffs(params: MaccParams, s: int, l: int) -> tuple[Fraction, Fraction]:
    K, L, N = params.K, params.L, params.N
    require_int("s", s, 1, K)
    require_int("l", l, 1, -(-N // s))
    p = min(s + L - 1, K)
    intercept = Fraction(K * N - (K - p) * max(0, N - l * s) - K * max(0, N - l * K), K * l)
    return intercept, Fraction(p, l)


def _lemma2_space(params: MaccParams, b_cap: int) -> Iterator[dict]:
    # Only b in {1, floor(N/(cs)), ceil(N/(cs)), b_cap} can be the first
    # maximum for one (s, t), where c = st - L + 1 and d = lam_den:
    # * b <= N/(cs): the term is c/d - (t/b)M.  All tie at M = 0, where b = 1
    #   comes first; for M > 0 the largest such b, floor(N/(cs)), wins.
    # * b >= N/(cs): the term is (N/(sd) - tM)/b.  If the numerator is
    #   positive the smallest such b, ceil(N/(cs)), wins; if it is negative
    #   b = b_cap wins; if it is zero all tie and ceil(N/(cs)) comes first.
    # The first maximum within the family is then kept, and so is the first
    # maximum of best, which keeps each family's order.
    K, L, N = params.K, params.L, params.N
    for s in range(1, K // 2 + 1):
        for t in range(-(-L // s), K // 2 // s + 1):
            cs = (s * t - L + 1) * s
            for b in sorted({1, N // cs, -(-N // cs), b_cap}):
                if 1 <= b <= b_cap:
                    yield {"s": s, "t": t, "b": b}


def _lemma2_coeffs(params: MaccParams, s: int, t: int, b: int) -> tuple[Fraction, Fraction]:
    K, L, N = params.K, params.L, params.N
    require_int("s", s, 1)
    require_int("t", t, 1)
    require_int("b", b, 1)
    require_int("s*t", s * t, L, K // 2)
    lam_den = 1 if s * t == L else 2
    return Fraction(min((s * t - L + 1) * s * b, N), s * b * lam_den), Fraction(t, b)


@dataclass(frozen=True)
class Family:
    """One bound family: the maximum over its witness space of the affine
    terms intercept - slope * M.  An empty space means inapplicable."""

    id: str
    aliases: tuple[str, ...]
    #: space(params, **caps(params)) yields, in tie-break order, a subset of
    #: the witness space that holds the first maximizer at every M
    space: Callable[..., Iterator[dict]]
    #: coeffs(params, **witness) -> (intercept, slope)
    coeffs: Callable[..., tuple[Fraction, Fraction]]
    #: search caps, passed to space; sweep_curve keeps them as BoundCurve.caps
    caps: Callable[[MaccParams], dict] = lambda params: {}
    #: why the space is empty, for families where it can be
    empty_note: Callable[[MaccParams], str] | None = None


#: Registry order is the order of the families' terms in best (first strict
#: maximum wins ties).
FAMILIES = {
    family.id: family
    for family in (
        Family("cutset_thm1", ("cutset",), _cutset_space, _cutset_coeffs),
        Family("improved_thm2", ("improved",), _improved_space, _improved_coeffs),
        Family(
            "hkd_lemma2",
            ("hkd", "lemma2"),
            _lemma2_space,
            _lemma2_coeffs,
            # for b > N no term can become positive; see hkd_lemma2_bound
            caps=lambda params: {"b_cap": params.N},
            empty_note=lambda params: (
                f"hkd_lemma2 is inapplicable for L={params.L} > floor(K/2)={params.K // 2}"
            ),
        ),
        Family("hkd2_lemma3", ("hkd2", "lemma3"), _cutset_space, _lemma3_coeffs),
    )
}

BEST = "best"
FAMILY_IDS = (*FAMILIES, BEST)


def _family(bound_id: str) -> Family:
    if not isinstance(bound_id, str):
        raise InputTypeError(f"a bound id must be a str, got {bound_id!r}")
    if bound_id not in FAMILIES:
        raise InputError(f"unknown bound id {bound_id!r}; expected one of {FAMILY_IDS}")
    return FAMILIES[bound_id]


def _terms(family: Family, params: MaccParams) -> Iterator[Term]:
    """The family's terms, lazily, in tie-break order."""
    for witness in family.space(params, **family.caps(params)):
        yield (witness, *family.coeffs(params, **witness))


@lru_cache(maxsize=len(FAMILY_IDS))
def _scaled_terms(
    params: MaccParams, bound_id: str, families: tuple[Family, ...]
) -> tuple[list[ScaledTerm], int]:
    """The id's scaled terms, from its one family or best's four (each witness
    then tagged with its family).  The cache holds every id of one network and
    is keyed by the Family objects, so a replaced FAMILIES entry is read anew."""
    return _scale([
        ({"family": family.id, **witness} if bound_id == BEST else witness, a, b)
        for family in families
        for witness, a, b in _terms(family, params)
    ])


def _points(params: MaccParams, bound_id: str, grid: Sequence[Fraction]) -> tuple[BoundPoint, ...]:
    """The bound maximized at each point of a checked grid, () when it is
    inapplicable; the only place terms are enumerated (by _scaled_terms), once
    per network.  best's terms are every family's in registry order, so the
    first strict maximum wins across families as within one; clamped at 0."""
    families = tuple(FAMILIES.values()) if bound_id == BEST else (_family(bound_id),)
    terms, D = _scaled_terms(params, bound_id, families)
    if bound_id != BEST:
        return tuple(_maximize(terms, D, m) for m in grid) if terms else ()
    points = (_maximize(terms, D, m) for m in grid)
    return tuple(
        p if p.R >= 0 else BoundPoint(p.M, Fraction(0), {**p.witness, "clamped": True}) for p in points
    )


# ---------------------------------------------------------------------------
# single-term evaluation (used for witness verification and restricted tests)
# ---------------------------------------------------------------------------


def cutset_term(params: MaccParams, s: int, M: MemoryLike) -> Fraction:
    """Value of the cut-set term for a given s: s - min(s+L-1, K) * M / floor(N/s)."""
    return evaluate_witness(params, "cutset_thm1", {"s": s}, M)


def improved_term(params: MaccParams, s: int, l: int, M: MemoryLike) -> Fraction:
    """Value of the refined term at (s, l):
    (1/l) * (N - (1 - p/K)(N - l*s)^+ - (N - l*K)^+ - p*M), p = min(s+L-1, K)."""
    return evaluate_witness(params, "improved_thm2", {"s": s, "l": l}, M)


def hkd_lemma2_term(params: MaccParams, s: int, t: int, b: int, M: MemoryLike) -> Fraction:
    """Value of the window-counting term at (s, t, b):
    lambda * min(s*t - L + 1, N/(s*b)) - (t/b) * M, lambda = 1 if s*t == L else 1/2."""
    return evaluate_witness(params, "hkd_lemma2", {"s": s, "t": t, "b": b}, M)


def hkd2_lemma3_term(params: MaccParams, s: int, M: MemoryLike) -> Fraction:
    """Value of the uncapped cut-set term for a given s: s - (s+L-1) * M / floor(N/s)."""
    return evaluate_witness(params, "hkd2_lemma3", {"s": s}, M)


# ---------------------------------------------------------------------------
# bound families
# ---------------------------------------------------------------------------


def cutset_bound(params: MaccParams, M: MemoryLike) -> BoundPoint:
    """Cut-set lower bound: max over s in [1, min(K, N)] of cutset_term.

    The raw maximum is returned; it may be negative for large M (display
    layers clamp at zero).
    """
    return evaluate_bound(params, "cutset_thm1", M)


def improved_bound(params: MaccParams, M: MemoryLike) -> BoundPoint:
    """Refined lower bound: max over s in [1, K], l in [1, ceil(N/s)] of
    improved_term.  Dominates cutset_bound on [0, N/L]."""
    return evaluate_bound(params, "improved_thm2", M)


def hkd_lemma2_bound(params: MaccParams, M: MemoryLike) -> BoundPoint | None:
    """Prior window-counting bound, maximized over its (s, t, b) set.

    Returns None when the parameter set is empty, i.e. L > floor(K/2).
    The maximum is over b in [1, N] (the JSON ``b_cap``), but for each (s, t)
    the search visits only b in {1, floor(N/(cs)), ceil(N/(cs)), N}, with
    c = st - L + 1: up to N/(cs) the term never falls as b grows, and from
    there on it is one numerator over b, so no other b can be the first
    maximum (see _lemma2_space).  R and witness equal those of the full set.
    A non-negative maximum is reached with b <= N, so the value clamped at
    zero does not depend on the cap.  A negative maximum does: larger b would
    move it toward zero (on (20, 5, 20) at M = 10 it is -3/10 with b <= 20 and
    -3/100 with b <= 200).
    """
    return evaluate_bound(params, "hkd_lemma2", M)


def hkd2_lemma3_bound(params: MaccParams, M: MemoryLike) -> BoundPoint:
    """Prior cut-set bound: like cutset_bound but the cache coefficient is
    s+L-1 without the min(.., K) cap, so it is never tighter."""
    return evaluate_bound(params, "hkd2_lemma3", M)


def best_lower_bound(params: MaccParams, M: MemoryLike) -> BoundPoint:
    """Maximum over every family's terms in registry order, clamped below at zero.

    The witness records the winning family and its parameters; when the
    clamp raises a negative maximum to zero the witness gains
    ``clamped: True``.
    """
    return evaluate_bound(params, BEST, M)


def evaluate_bound(params: MaccParams, bound_id: str, M: MemoryLike) -> BoundPoint | None:
    """Evaluate one family by id; None means inapplicable at these params."""
    points = _points(params, bound_id, _grid(params, [M]))
    return points[0] if points else None


def evaluate_witness(params: MaccParams, bound_id: str, witness: dict, M: MemoryLike) -> Fraction:
    """Re-evaluate the single term named by a witness (must reproduce R); the one witness reader."""
    if not isinstance(witness, dict):
        raise InputTypeError(f"a witness must be a dict, got {witness!r}")
    if bound_id == BEST:
        family = witness.get("family")
        if not isinstance(family, str) or family not in FAMILIES:
            raise InputError(f"a best witness needs a family in {tuple(FAMILIES)}, got {family!r}")
        if witness.get("clamped", True) is not True:
            raise InputError(f"a best witness's clamped flag can only be True, got {witness['clamped']!r}")
        inner = {k: v for k, v in witness.items() if k not in ("family", "clamped")}
        value = evaluate_witness(params, family, inner, M)
        return max(Fraction(0), value) if "clamped" in witness else value
    family = _family(bound_id)
    m = as_memory(M)
    try:
        intercept, slope = family.coeffs(params, **witness)
    except InputError:  # a witness value coeffs refused names itself
        raise
    except TypeError as exc:  # a missing, unknown, extra or non-str witness key
        raise InputError(f"witness {witness} does not fit {family.id}: {exc}") from exc
    return intercept - slope * m


# ---------------------------------------------------------------------------
# sweeps and grids
# ---------------------------------------------------------------------------


def uniform_grid(start: MemoryLike, stop: MemoryLike, count: int) -> list[Fraction]:
    """count exact rationals uniformly spaced on [start, stop], endpoints included."""
    lo, hi = as_memory(start), as_memory(stop)
    require_int("grid count", count, 2)
    if hi <= lo:
        raise InputError(f"grid needs start < stop, got [{lo}, {hi}]")
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def default_memory_grid(params: MaccParams) -> list[Fraction]:
    """Default sweep grid: 101 points uniform on [0, N/L]."""
    return uniform_grid(0, Fraction(params.N, params.L), 101)


def _grid(params: MaccParams, m_grid: Sequence[MemoryLike]) -> list[Fraction]:
    """The grid as exact memories: non-empty, strictly increasing, in [0, N]."""
    grid = [as_memory(m) for m in m_grid]
    for m in grid:
        if not 0 <= m <= params.N:
            raise InputError(f"memory M={m} outside [0, N={params.N}]")
    if not grid:
        raise InputError("empty memory grid")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InputError("memory grid must be strictly increasing")
    return grid


def sweep_curve(params: MaccParams, bound_id: str, m_grid: Sequence[MemoryLike]) -> BoundCurve:
    """Evaluate one family on a strictly increasing memory grid.

    Family points keep the raw R values (export layers clamp at zero); best
    points are clamped.  An inapplicable family yields a curve with no points.
    """
    points = _points(params, bound_id, _grid(params, m_grid))
    caps = {} if bound_id == BEST else FAMILIES[bound_id].caps(params)
    return BoundCurve(params=params, bound_id=bound_id, points=points, caps=caps)


# ---------------------------------------------------------------------------
# dominance verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DominanceEntry:
    """Exact family values at one grid point."""

    M: Fraction
    improved: Fraction
    cutset: Fraction
    lemma3: Fraction
    #: improved >= cutset is only claimed on [0, N/L]
    improved_vs_cutset_checked: bool


@dataclass(frozen=True)
class DominanceReport:
    """Per-point dominance comparison; a violation is data, not an exception."""

    params: MaccParams
    entries: tuple[DominanceEntry, ...]
    violations: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "params": asdict(self.params),
            "points": [
                {
                    "M": fraction_str(e.M),
                    "improved_thm2": fraction_str(e.improved),
                    "cutset_thm1": fraction_str(e.cutset),
                    "hkd2_lemma3": fraction_str(e.lemma3),
                    "improved_vs_cutset_checked": e.improved_vs_cutset_checked,
                    "improved_margin": fraction_str(e.improved - e.cutset),
                    "cutset_margin": fraction_str(e.cutset - e.lemma3),
                }
                for e in self.entries
            ],
            "violations": list(self.violations),
        }


def verify_dominance(params: MaccParams, m_grid: Sequence[MemoryLike]) -> DominanceReport:
    """Check the two dominance relations on a strictly increasing grid with
    exact comparison: improved >= cutset (grid points above N/L are skipped
    for this check) and cutset >= lemma3 (everywhere on [0, N])."""
    grid = _grid(params, m_grid)
    full_access = Fraction(params.N, params.L)
    names = ("improved_thm2", "cutset_thm1", "hkd2_lemma3")
    curves = (_points(params, name, grid) for name in names)
    entries = tuple(
        DominanceEntry(m, improved.R, cutset.R, lemma3.R, m <= full_access)
        for m, improved, cutset, lemma3 in zip(grid, *curves)
    )
    violations = tuple(
        {"check": check, "M": fraction_str(e.M), "lhs": fraction_str(lhs), "rhs": fraction_str(rhs)}
        for e in entries
        for check, applies, lhs, rhs in (
            ("improved_vs_cutset", e.improved_vs_cutset_checked, e.improved, e.cutset),
            ("cutset_vs_lemma3", True, e.cutset, e.lemma3),
        )
        if applies and lhs < rhs
    )
    return DominanceReport(params=params, entries=entries, violations=violations)


def uncoded_threshold_gap(params: MaccParams) -> tuple[Fraction, Fraction]:
    """(N/L, ceil(K/L) * N/K): the memory where coded placement reaches rate 0
    versus the smallest memory any uncoded placement needs for rate 0.

    The second value exceeds the first exactly when L does not divide K.
    """
    coded = Fraction(params.N, params.L)
    uncoded = Fraction(-(-params.K // params.L) * params.N, params.K)
    return coded, uncoded
