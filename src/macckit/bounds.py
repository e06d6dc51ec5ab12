"""Lower bounds on the optimal delivery rate R*(M) of a (K, L, N) network.

Four bound families are implemented.  Each family is the maximum of finitely
many affine functions of the cache memory M, so each is convex and
non-increasing in M.  All arithmetic is exact rational (fractions.Fraction);
no floats enter this module.

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

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence, Union

from .params import InputError, MaccParams

Rational = Fraction
MemoryLike = Union[int, str, Fraction]


def as_memory(M: MemoryLike) -> Fraction:
    """Coerce a memory value to an exact Fraction.

    Floats are rejected: every value in this module must stay exact.
    """
    if isinstance(M, float):
        raise TypeError("memory must be exact; pass an int, Fraction, or string like '2/3'")
    return Fraction(M)


def _check_memory(params: MaccParams, M: MemoryLike) -> Fraction:
    m = as_memory(M)
    if not 0 <= m <= params.N:
        raise InputError(f"memory M={m} outside [0, N={params.N}]")
    return m


@dataclass(frozen=True)
class BoundPoint:
    """One evaluated point of a bound: R at memory M, with the maximizing
    search parameters recorded as a witness."""

    M: Fraction
    R: Fraction
    witness: dict


@dataclass(frozen=True)
class BoundCurve:
    """A bound family sampled on a memory grid (the data behind a plot)."""

    params: MaccParams
    bound_id: str
    points: tuple[BoundPoint, ...]


Term = tuple[dict, Fraction, Fraction]  # (witness, intercept, slope)


def _maximize(terms: Iterable[Term], M: Fraction) -> BoundPoint | None:
    """Maximum of intercept - slope * M over the terms, None if there are
    none.  The first maximizer in iteration order wins, which realizes the
    smallest-parameter tie-breaking rule."""
    best: dict | None = None
    best_value = Fraction(0)
    for witness, intercept, slope in terms:
        value = intercept - slope * M
        if best is None or value > best_value:
            best, best_value = witness, value
    if best is None:
        return None
    return BoundPoint(M=M, R=best_value, witness=dict(best))


# ---------------------------------------------------------------------------
# the family registry: each family is a witness space (in tie-break order:
# ascending s, then l, then t, then b) and the (intercept, slope) of the term
# at one witness.  coeffs is the only place a formula is written; it also
# rejects witnesses outside the space.
# ---------------------------------------------------------------------------


def _cutset_space(params: MaccParams) -> Iterator[dict]:
    for s in range(1, min(params.K, params.N) + 1):
        yield {"s": s}


def _check_s(params: MaccParams, s: int) -> None:
    if not 1 <= s <= min(params.K, params.N):
        raise InputError(f"s={s} outside [1, min(K, N)]")


def _cutset_coeffs(params: MaccParams, s: int) -> tuple[Fraction, Fraction]:
    _check_s(params, s)
    return Fraction(s), Fraction(min(s + params.L - 1, params.K), params.N // s)


def _lemma3_coeffs(params: MaccParams, s: int) -> tuple[Fraction, Fraction]:
    _check_s(params, s)
    return Fraction(s), Fraction(s + params.L - 1, params.N // s)


def _improved_space(params: MaccParams) -> Iterator[dict]:
    for s in range(1, params.K + 1):
        for l in range(1, -(-params.N // s) + 1):
            yield {"s": s, "l": l}


def _improved_coeffs(params: MaccParams, s: int, l: int) -> tuple[Fraction, Fraction]:
    K, L, N = params.K, params.L, params.N
    if not 1 <= s <= K:
        raise InputError(f"s={s} outside [1, K]")
    if not 1 <= l <= -(-N // s):
        raise InputError(f"l={l} outside [1, ceil(N/s)]")
    p = min(s + L - 1, K)
    intercept = Fraction(K * N - (K - p) * max(0, N - l * s) - K * max(0, N - l * K), K * l)
    return intercept, Fraction(p, l)


def _lemma2_space(params: MaccParams, b_cap: int) -> Iterator[dict]:
    half = params.K // 2
    for s in range(1, half + 1):
        for t in range(-(-params.L // s), half // s + 1):
            for b in range(1, b_cap + 1):
                yield {"s": s, "t": t, "b": b}


def _lemma2_coeffs(params: MaccParams, s: int, t: int, b: int) -> tuple[Fraction, Fraction]:
    K, L, N = params.K, params.L, params.N
    if b < 1 or not 1 <= t <= K or s < 1 or not L <= s * t <= K // 2:
        raise InputError(f"(s={s}, t={t}, b={b}) outside the searched parameter set")
    lam_den = 1 if s * t == L else 2
    return Fraction(min((s * t - L + 1) * s * b, N), s * b * lam_den), Fraction(t, b)


@dataclass(frozen=True)
class Family:
    """One bound family: the maximum over its witness space of the affine
    terms intercept - slope * M.  An empty space means inapplicable."""

    id: str
    aliases: tuple[str, ...]
    #: space(params, **caps(params)) yields witnesses in tie-break order
    space: Callable[..., Iterator[dict]]
    #: coeffs(params, **witness) -> (intercept, slope)
    coeffs: Callable[..., tuple[Fraction, Fraction]]
    #: search caps, also written to JSON curve files
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
    if bound_id not in FAMILIES:
        raise InputError(f"unknown bound id {bound_id!r}; expected one of {FAMILY_IDS}")
    return FAMILIES[bound_id]


def _terms(family: Family, params: MaccParams) -> Iterator[Term]:
    """The family's terms, lazily, in tie-break order."""
    for witness in family.space(params, **family.caps(params)):
        yield (witness, *family.coeffs(params, **witness))


def _term_value(family: Family, params: MaccParams, M: MemoryLike, **witness: int) -> Fraction:
    m = as_memory(M)
    intercept, slope = family.coeffs(params, **witness)
    return intercept - slope * m


def _points(params: MaccParams, bound_id: str, grid: Sequence[Fraction]) -> tuple[BoundPoint, ...]:
    """The bound maximized at each point of a checked grid, () when it is
    inapplicable; the only place terms are enumerated, once per call.  best's
    terms are every family's in registry order, tagged with the family, so the
    first strict maximum wins across families as within one; clamped at 0."""
    if bound_id != BEST:
        terms = list(_terms(_family(bound_id), params))
        return tuple(_maximize(terms, m) for m in grid) if terms else ()
    terms = [
        ({"family": name, **witness}, a, b)
        for name, family in FAMILIES.items()
        for witness, a, b in _terms(family, params)
    ]
    points = (_maximize(terms, m) for m in grid)
    return tuple(
        p if p.R >= 0 else BoundPoint(p.M, Fraction(0), {**p.witness, "clamped": True}) for p in points
    )


def _bound(params: MaccParams, bound_id: str, M: MemoryLike) -> BoundPoint | None:
    points = _points(params, bound_id, [_check_memory(params, M)])
    return points[0] if points else None


# ---------------------------------------------------------------------------
# single-term evaluation (used for witness verification and restricted tests)
# ---------------------------------------------------------------------------


def cutset_term(params: MaccParams, s: int, M: MemoryLike) -> Fraction:
    """Value of the cut-set term for a given s: s - min(s+L-1, K) * M / floor(N/s)."""
    return _term_value(FAMILIES["cutset_thm1"], params, M, s=s)


def improved_term(params: MaccParams, s: int, l: int, M: MemoryLike) -> Fraction:
    """Value of the refined term at (s, l):
    (1/l) * (N - (1 - p/K)(N - l*s)^+ - (N - l*K)^+ - p*M), p = min(s+L-1, K)."""
    return _term_value(FAMILIES["improved_thm2"], params, M, s=s, l=l)


def hkd_lemma2_term(params: MaccParams, s: int, t: int, b: int, M: MemoryLike) -> Fraction:
    """Value of the window-counting term at (s, t, b):
    lambda * min(s*t - L + 1, N/(s*b)) - (t/b) * M, lambda = 1 if s*t == L else 1/2."""
    return _term_value(FAMILIES["hkd_lemma2"], params, M, s=s, t=t, b=b)


def hkd2_lemma3_term(params: MaccParams, s: int, M: MemoryLike) -> Fraction:
    """Value of the uncapped cut-set term for a given s: s - (s+L-1) * M / floor(N/s)."""
    return _term_value(FAMILIES["hkd2_lemma3"], params, M, s=s)


# ---------------------------------------------------------------------------
# bound families
# ---------------------------------------------------------------------------


def cutset_bound(params: MaccParams, M: MemoryLike) -> BoundPoint:
    """Cut-set lower bound: max over s in [1, min(K, N)] of cutset_term.

    The raw maximum is returned; it may be negative for large M (display
    layers clamp at zero).
    """
    return _bound(params, "cutset_thm1", M)


def improved_bound(params: MaccParams, M: MemoryLike) -> BoundPoint:
    """Refined lower bound: max over s in [1, K], l in [1, ceil(N/s)] of
    improved_term.  Dominates cutset_bound on [0, N/L]."""
    return _bound(params, "improved_thm2", M)


def hkd_lemma2_bound(params: MaccParams, M: MemoryLike) -> BoundPoint | None:
    """Prior window-counting bound, maximized over its (s, t, b) set.

    Returns None when the parameter set is empty, i.e. L > floor(K/2).
    b ranges over [1, N] (the JSON ``b_cap``).  A non-negative maximum is
    reached with b <= N, so the value clamped at zero does not depend on the
    cap.  A negative maximum does: larger b would move it toward zero (on
    (20, 5, 20) at M = 10 it is -3/10 with b <= 20 and -3/100 with b <= 200).
    """
    return _bound(params, "hkd_lemma2", M)


def hkd2_lemma3_bound(params: MaccParams, M: MemoryLike) -> BoundPoint:
    """Prior cut-set bound: like cutset_bound but the cache coefficient is
    s+L-1 without the min(.., K) cap, so it is never tighter."""
    return _bound(params, "hkd2_lemma3", M)


def best_lower_bound(params: MaccParams, M: MemoryLike) -> BoundPoint:
    """Maximum over every family's terms in registry order, clamped below at zero.

    The witness records the winning family and its parameters; when the
    clamp raises a negative maximum to zero the witness gains
    ``clamped: True``.
    """
    return _bound(params, BEST, M)


def evaluate_bound(params: MaccParams, bound_id: str, M: MemoryLike) -> BoundPoint | None:
    """Evaluate one family by id; None means inapplicable at these params."""
    return _bound(params, bound_id, M)


def evaluate_witness(params: MaccParams, bound_id: str, witness: dict, M: MemoryLike) -> Fraction:
    """Re-evaluate the single term named by a witness (must reproduce R)."""
    if bound_id != BEST:
        return _term_value(_family(bound_id), params, M, **witness)
    inner = {k: v for k, v in witness.items() if k not in ("family", "clamped")}
    value = _term_value(_family(witness.get("family")), params, M, **inner)
    return max(Fraction(0), value) if witness.get("clamped") else value


# ---------------------------------------------------------------------------
# sweeps and grids
# ---------------------------------------------------------------------------


def uniform_grid(start: MemoryLike, stop: MemoryLike, count: int) -> list[Fraction]:
    """count exact rationals uniformly spaced on [start, stop], endpoints included."""
    lo, hi = as_memory(start), as_memory(stop)
    if count < 2:
        raise InputError(f"grid count must be >= 2, got {count}")
    if hi <= lo:
        raise InputError(f"grid needs start < stop, got [{lo}, {hi}]")
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def default_memory_grid(params: MaccParams, count: int = 101) -> list[Fraction]:
    """Default sweep grid: uniform on [0, N/L]."""
    return uniform_grid(0, Fraction(params.N, params.L), count)


def _grid(params: MaccParams, m_grid: Sequence[MemoryLike]) -> list[Fraction]:
    """The grid as exact memories: non-empty, strictly increasing, in [0, N]."""
    grid = [_check_memory(params, m) for m in m_grid]
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
    return BoundCurve(params=params, bound_id=bound_id, points=points)


# ---------------------------------------------------------------------------
# dominance verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DominanceEntry:
    """Exact family values at one grid point, with dominance margins."""

    M: Fraction
    improved: Fraction
    cutset: Fraction
    lemma3: Fraction
    #: improved >= cutset is only claimed on [0, N/L]
    improved_vs_cutset_checked: bool

    @property
    def improved_margin(self) -> Fraction:
        return self.improved - self.cutset

    @property
    def cutset_margin(self) -> Fraction:
        return self.cutset - self.lemma3


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
        from .serialize import fraction_str

        return {
            "params": {"K": self.params.K, "L": self.params.L, "N": self.params.N},
            "points": [
                {
                    "M": fraction_str(e.M),
                    "improved_thm2": fraction_str(e.improved),
                    "cutset_thm1": fraction_str(e.cutset),
                    "hkd2_lemma3": fraction_str(e.lemma3),
                    "improved_vs_cutset_checked": e.improved_vs_cutset_checked,
                    "improved_margin": fraction_str(e.improved_margin),
                    "cutset_margin": fraction_str(e.cutset_margin),
                }
                for e in self.entries
            ],
            "violations": list(self.violations),
        }


def verify_dominance(params: MaccParams, m_grid: Sequence[MemoryLike]) -> DominanceReport:
    """Check the two dominance relations on a strictly increasing grid with
    exact comparison: improved >= cutset (grid points above N/L are skipped
    for this check) and cutset >= lemma3 (everywhere on [0, N])."""
    from .serialize import fraction_str

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
