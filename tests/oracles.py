"""The tests' own definition of the four bound families, written from the
paper's printed formulas and sharing no code with macckit (it imports
nothing from the package; tests/test_structure.py checks this).

A term is (witness, intercept, slope) with exact Fraction coefficients, and
its value at memory M is intercept - slope * M.  Each family's terms cover
its whole witness space, in the library's tie-break order: ascending s, then
l, then t, then b.  params is anything with int attributes K, L and N.
"""

from fractions import Fraction

BEST = "best"


def cutset_thm1(params):
    """s - min(s+L-1, K) * M / floor(N/s), s in [1, min(K, N)]."""
    K, L, N = params.K, params.L, params.N
    return [
        ({"s": s}, Fraction(s), Fraction(min(s + L - 1, K), N // s))
        for s in range(1, min(K, N) + 1)
    ]


def improved_thm2(params):
    """(1/l) * (N - (1 - p/K)(N - l*s)^+ - (N - l*K)^+ - p*M), p = min(s+L-1, K),
    s in [1, K], l in [1, ceil(N/s)]."""
    K, L, N = params.K, params.L, params.N
    terms = []
    for s in range(1, K + 1):
        p = min(s + L - 1, K)
        for l in range(1, -(-N // s) + 1):
            rest = N - (1 - Fraction(p, K)) * max(0, N - l * s) - max(0, N - l * K)
            terms.append(({"s": s, "l": l}, rest / l, Fraction(p, l)))
    return terms


def hkd_lemma2(params, b_cap=None):
    """lambda * min(s*t - L + 1, N/(s*b)) - (t/b) * M, lambda = 1 if s*t = L
    else 1/2, over L <= s*t <= floor(K/2) and b in [1, b_cap] (b_cap = N
    unless given); empty when L > floor(K/2)."""
    K, L, N = params.K, params.L, params.N
    terms = []
    for s in range(1, K + 1):
        for t in range(1, K + 1):
            if not L <= s * t <= K // 2:
                continue
            lam = Fraction(1) if s * t == L else Fraction(1, 2)
            for b in range(1, (b_cap or N) + 1):
                intercept = lam * min(Fraction(s * t - L + 1), Fraction(N, s * b))
                terms.append(({"s": s, "t": t, "b": b}, intercept, Fraction(t, b)))
    return terms


def hkd2_lemma3(params):
    """s - (s+L-1) * M / floor(N/s), s in [1, min(K, N)]."""
    K, L, N = params.K, params.L, params.N
    return [
        ({"s": s}, Fraction(s), Fraction(s + L - 1, N // s))
        for s in range(1, min(K, N) + 1)
    ]


#: the families in the library's registry order, which is best's order
FAMILIES = {f.__name__: f for f in (cutset_thm1, improved_thm2, hkd_lemma2, hkd2_lemma3)}


def best_terms(family_terms):
    """best's term list from {family id: terms}: each family's terms in
    registry order, with the family id first in every witness."""
    return [
        ({"family": bound_id, **witness}, a, b)
        for bound_id in FAMILIES
        for witness, a, b in family_terms[bound_id]
    ]


def terms(params, bound_id, b_cap=None):
    """The whole term list of one family, or of best, in tie-break order."""
    if bound_id == BEST:
        return best_terms({name: terms(params, name, b_cap) for name in FAMILIES})
    if bound_id == "hkd_lemma2":
        return hkd_lemma2(params, b_cap)
    return FAMILIES[bound_id](params)


def first_maximum(terms, M):
    """(R, witness): the maximum of intercept - slope * M over a non-empty
    term list, with the witness of the first term in list order reaching it."""
    best, intercept, slope = terms[0]
    best_value = intercept - slope * M
    for witness, intercept, slope in terms[1:]:
        value = intercept - slope * M
        if value > best_value:
            best, best_value = witness, value
    return best_value, dict(best)


def maximum(terms, bound_id, M):
    """(R, witness) of first_maximum, with best's clamp: a negative maximum
    of best is raised to 0 and its witness gains clamped: True."""
    R, witness = first_maximum(terms, M)
    if bound_id == BEST and R < 0:
        return Fraction(0), {**witness, "clamped": True}
    return R, witness


def bound(params, bound_id, M, b_cap=None):
    """(R, witness) of one id at M over its whole witness space; None when
    the family is inapplicable."""
    found = terms(params, bound_id, b_cap)
    return maximum(found, bound_id, M) if found else None


def breakpoints(terms, x, y):
    """Every breakpoint of max(terms) on [x, y], exactly, found from
    first_maximum alone."""
    lines = {tuple(w.items()): (a, b) for w, a, b in terms}

    def line_at(M):
        R, witness = first_maximum(terms, M)
        return lines[tuple(witness.items())], R

    def value(line, M):
        return line[0] - line[1] * M

    def search(x, y):
        (lx, _), (ly, ry) = line_at(x), line_at(y)
        if value(lx, y) == ry:  # x's line is maximal on all of [x, y]
            return []
        z = (lx[0] - ly[0]) / (lx[1] - ly[1])
        if value(lx, z) == line_at(z)[1]:
            return [z]
        return search(x, z) + search(z, y)

    return search(x, y)
