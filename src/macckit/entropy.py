"""Numeric checks of the cyclic sliding-window subset entropy inequality.

For K random variables, the average entropy of cyclic windows of length s,
scaled by 1/s, is non-increasing in s.  This module verifies that (and its
conditional form) on explicit small joint distributions, as a floating-point
sanity harness: a violation beyond tolerance indicates an entropy-code bug,
not a counterexample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .params import DEFAULT_TOL, InputError, InputTypeError, cyclic_index, require_int

NORMALIZATION_TOL = 1e-12
MAX_OUTCOMES = 1 << 16
#: Floats in one stacked chunk of a batch's trials (512 KiB; one table of
#: MAX_OUTCOMES fits), so a batch's memory does not grow with its trial count.
CHUNK_FLOATS = MAX_OUTCOMES


def _sizes(alphabet_sizes: Sequence[int]) -> tuple[int, ...]:
    """The alphabet sizes as a tuple, checked before any table is allocated;
    each must be an int >= 1 (a float or bool is refused, not coerced)."""
    sizes = tuple(require_int("alphabet size", a, 1) for a in alphabet_sizes)
    if not sizes:
        raise InputError("alphabet sizes must be non-empty")
    if len(sizes) - sizes.count(1) > 16 or math.prod(sizes) > MAX_OUTCOMES:  # 2**17 > MAX_OUTCOMES
        raise InputError(f"product alphabet exceeds {MAX_OUTCOMES} outcomes")
    return sizes


@dataclass(frozen=True)
class JointPmf:
    """Dense joint distribution over K finite variables.

    probs has shape alphabet_sizes; entries are non-negative and sum to 1
    within 1e-12.
    """

    alphabet_sizes: tuple[int, ...]
    probs: np.ndarray

    def __post_init__(self) -> None:
        sizes = _sizes(self.alphabet_sizes)
        object.__setattr__(self, "alphabet_sizes", sizes)
        probs = np.asarray(self.probs)
        if probs.dtype.kind not in "iuf":  # bool, str, object, complex: refused, not coerced
            raise InputTypeError(f"probs must hold ints or floats, got dtype {probs.dtype}")
        probs = probs.astype(np.float64)  # a copy, frozen below
        if probs.shape != sizes:
            raise InputError(f"probs shape {probs.shape} != alphabet sizes {sizes}")
        _check_tables(probs[np.newaxis])
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def K(self) -> int:
        return len(self.alphabet_sizes)

    @classmethod
    def random(cls, alphabet_sizes: Sequence[int], rng: np.random.Generator) -> "JointPmf":
        """Uniform draw from the probability simplex (normalized exponentials),
        so the support is full and 0*log(0) corners do not arise."""
        sizes = _sizes(alphabet_sizes)
        table = rng.exponential(size=sizes)
        return cls(alphabet_sizes=sizes, probs=table / table.sum())


def _check_tables(tables: np.ndarray) -> None:
    """Refuse any table stacked along axis 0 that has a negative entry or
    does not sum to 1 within NORMALIZATION_TOL (NaN included)."""
    if (tables < 0).any():
        raise InputError("probabilities must be non-negative")
    totals = tables.sum(axis=tuple(range(1, tables.ndim)))
    off = ~(np.abs(totals - 1.0) <= NORMALIZATION_TOL)
    if off.any():
        raise InputError(f"probabilities sum to {float(totals[off][0])!r}, not 1")


def _entropies(tables: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits of each table stacked along axis 0;
    zero-probability entries contribute 0."""
    rows = tables.reshape(len(tables), -1)
    return -(rows * np.log2(np.where(rows > 0.0, rows, 1.0))).sum(axis=1)


def marginal_entropy(pmf: JointPmf, subset: Sequence[int]) -> float:
    """Entropy of the marginal over the given variables (1-based indices)."""
    indices = {require_int("variable index", index, 1, pmf.K) for index in subset}
    if not indices:
        raise InputError("subset must be non-empty")
    drop = tuple(axis for axis in range(pmf.K) if axis + 1 not in indices)
    marginal = pmf.probs.sum(axis=drop) if drop else pmf.probs
    return float(_entropies(marginal[np.newaxis])[0])


def _window_sums(tables: np.ndarray, s: int) -> np.ndarray:
    """(1/s) * sum over i of H(cyclic window of length s starting at i), for
    each of the K-variable tables stacked along axis 0 (variable k is axis k)."""
    K = tables.ndim - 1
    total = 0.0
    for i in range(1, K + 1):  # a running sum in window order rounds as a per-pmf sum
        window = {cyclic_index(i + j, K) for j in range(s)}
        drop = tuple(axis for axis in range(1, K + 1) if axis not in window)
        total = total + _entropies(tables.sum(axis=drop) if drop else tables)
    return total / s


def window_entropy_sum(pmf: JointPmf, s: int) -> float:
    """(1/s) * sum over i of H(cyclic window of length s starting at i)."""
    require_int("window length s", s, 1, pmf.K)
    return float(_window_sums(pmf.probs[np.newaxis], s)[0])


def _sequences(tables: np.ndarray, conditional: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per stacked table, the scaled window sums for s = 1..K and the margins
    (see WindowCheckReport), both one row per table.  A conditional table's
    last variable conditions the K before it."""
    if not conditional:
        sequences = np.stack([_window_sums(tables, s) for s in range(1, tables.ndim)], axis=1)
        return sequences, sequences[:, :-1] - sequences[:, 1:]
    K = tables.ndim - 2
    weights = tables.sum(axis=tuple(range(1, K + 1)))  # marginal of the conditioner
    sequences = np.zeros((len(tables), K))
    for w in range(tables.shape[-1]):
        p_w = weights[:, w]
        live = p_w > 0.0  # a zero-weight value has an all-zero slice and adds 0
        slices = tables[..., w] / np.where(live, p_w, 1.0).reshape((-1,) + (1,) * K)
        _check_tables(slices[live])
        sequences += p_w[:, np.newaxis] * _sequences(slices, False)[0]
    # every full-length window is the whole set
    return sequences, sequences - sequences[:, -1:]


@dataclass(frozen=True)
class WindowCheckReport:
    """Sequence of scaled window-entropy averages and the inequality margins.

    For the unconditional check, margins[i] = sequence[i] - sequence[i+1]
    (adjacent window lengths).  For the conditional check, margins[i] =
    sequence[i] - sequence[-1] (each length against the full set).
    A failure is any margin below -tol.
    """

    K: int
    sequence: tuple[float, ...]
    margins: tuple[float, ...]
    failures: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def min_margin(self) -> float:
        return min(self.margins)


def _require_checkable(window_sizes: Sequence[int], tol: float) -> None:
    """Refuse a window check, single or batched, that could only pass: under two
    window variables (K), under two with two or more values (second-largest
    alphabet), or a tol not a finite positive int or float (NaN fails no margin)."""
    require_int("K", len(window_sizes), 2)
    require_int("alphabet", sorted(require_int("alphabet", a) for a in window_sizes)[-2], 2)
    if not isinstance(tol, (int, float)) or isinstance(tol, bool):
        raise InputTypeError(f"tolerance must be an int or float, got {tol!r}")
    if not 0 < tol < math.inf:
        raise InputError(f"tolerance must be finite and positive, got {tol}")


def _failures(margins: np.ndarray, tol: float) -> list[tuple[int, int, float]]:
    """(row, window length s, margin) of every margin below -tol, row by row."""
    rows, columns = np.nonzero(margins < -tol)
    return [(int(t), int(i) + 1, float(margins[t, i])) for t, i in zip(rows, columns)]


def _window_report(pmf: JointPmf, conditional: bool, tol: float) -> WindowCheckReport:
    """The check of one pmf: a batch of one, refused as a batch would be."""
    _require_checkable(pmf.alphabet_sizes[:-1] if conditional else pmf.alphabet_sizes, tol)
    sequences, margins = _sequences(pmf.probs[np.newaxis], conditional)
    return WindowCheckReport(
        K=sequences.shape[1],
        sequence=tuple(sequences[0].tolist()),
        margins=tuple(margins[0].tolist()),
        failures=tuple({"s": s, "margin": margin} for _, s, margin in _failures(margins, tol)),
    )


def check_sliding_window(pmf: JointPmf, tol: float = DEFAULT_TOL) -> WindowCheckReport:
    """Verify the window averages are non-increasing in window length.
    Refuses what a batch refuses: under two variables with two values, bad tol."""
    return _window_report(pmf, False, tol)


def check_conditional_window(pmf: JointPmf, tol: float = DEFAULT_TOL) -> WindowCheckReport:
    """Verify the conditional form on a pmf whose last variable conditions
    the rest: every scaled conditional window average dominates the full-set
    conditional entropy.  Refuses conditioned variables as check_sliding_window does."""
    return _window_report(pmf, True, tol)


@dataclass(frozen=True)
class BatchReport:
    """Aggregate of many seeded random-pmf checks."""

    kind: str
    K: int
    alphabet: int
    seed: int
    trials: int
    tol: float
    min_margin: float
    failures: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "K": self.K,
            "alphabets": [self.alphabet] * (self.K + (1 if self.kind == "conditional" else 0)),
            "seed": self.seed,
            "trials": self.trials,
            "tol": self.tol,
            "min_margin": self.min_margin,
            "failures": list(self.failures),
        }


def _batch(kind: str, K: int, alphabet: int, trials: int, seed: int, tol: float) -> BatchReport:
    """trials random pmfs over K variables (plus the conditioner if
    conditional), checked in stacked chunks of at most CHUNK_FLOATS floats;
    one RNG stream keyed by seed makes the batch reproducible.  Refuses
    what _require_checkable refuses, as the single checks do."""
    _require_checkable((alphabet,) * min(require_int("K", K, 2), 17), tol)
    if K > 16:  # 2**17 outcomes: refused before a K-long tuple is built
        raise InputError(f"product alphabet exceeds {MAX_OUTCOMES} outcomes")
    require_int("trials", trials, 1)
    require_int("seed", seed, 0)
    conditional = kind == "conditional"
    sizes = _sizes((alphabet,) * (K + 1 if conditional else K))
    chunk = CHUNK_FLOATS // math.prod(sizes)
    rng = np.random.default_rng(seed)
    min_margin = math.inf
    failures = []
    for first in range(0, trials, chunk):
        tables = np.empty((min(chunk, trials - first), *sizes))
        for t in range(len(tables)):
            # one draw per trial keeps the seed's stream and each table's refusals
            tables[t] = JointPmf.random(sizes, rng).probs
        margins = _sequences(tables, conditional)[1]
        min_margin = min(min_margin, float(margins.min()))
        failures.extend(
            {"trial": first + t, "s": s, "margin": margin} for t, s, margin in _failures(margins, tol)
        )
    return BatchReport(
        kind=kind,
        K=K,
        alphabet=alphabet,
        seed=seed,
        trials=trials,
        tol=tol,
        min_margin=min_margin,
        failures=tuple(failures),
    )


def run_sliding_window_batch(
    K: int, alphabet: int, trials: int, seed: int, tol: float = DEFAULT_TOL
) -> BatchReport:
    """trials random pmfs over K variables, all checked against the unconditional
    inequality; one RNG stream keyed by seed makes the batch reproducible."""
    return _batch("sliding", K, alphabet, trials, seed, tol)


def run_conditional_window_batch(
    K: int, alphabet: int, trials: int, seed: int, tol: float = DEFAULT_TOL
) -> BatchReport:
    """trials random pmfs over K variables plus one conditioner, checked
    against the conditional inequality."""
    return _batch("conditional", K, alphabet, trials, seed, tol)
