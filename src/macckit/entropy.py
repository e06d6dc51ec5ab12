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

from .params import InputError, cyclic_index

DEFAULT_TOL = 1e-9
NORMALIZATION_TOL = 1e-12
MAX_OUTCOMES = 1 << 16


def _sizes(alphabet_sizes: Sequence[int]) -> tuple[int, ...]:
    """The alphabet sizes as ints, checked before any table is allocated."""
    sizes = tuple(int(a) for a in alphabet_sizes)
    if not sizes or any(a < 1 for a in sizes):
        raise InputError(f"alphabet sizes must be positive: {sizes}")
    if math.prod(sizes) > MAX_OUTCOMES:
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
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.shape != sizes:
            raise InputError(f"probs shape {probs.shape} != alphabet sizes {sizes}")
        if (probs < 0).any():
            raise InputError("probabilities must be non-negative")
        total = float(probs.sum())
        if not abs(total - 1.0) <= NORMALIZATION_TOL:
            raise InputError(f"probabilities sum to {total!r}, not 1")
        probs = probs.copy()
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

    @classmethod
    def independent_uniform(cls, alphabet_sizes: Sequence[int]) -> "JointPmf":
        sizes = _sizes(alphabet_sizes)
        table = np.full(sizes, 1.0 / math.prod(sizes))
        return cls(alphabet_sizes=sizes, probs=table)


def _entropy(probs: np.ndarray) -> float:
    """Shannon entropy in bits; zero-probability entries contribute 0."""
    p = probs[probs > 0.0]
    return float(-(p * np.log2(p)).sum())


def marginal_entropy(pmf: JointPmf, subset: Sequence[int]) -> float:
    """Entropy of the marginal over the given variables (1-based indices)."""
    indices = sorted(set(subset))
    if not indices:
        raise InputError("subset must be non-empty")
    if indices[0] < 1 or indices[-1] > pmf.K:
        raise InputError(f"subset {sorted(set(subset))} outside [1, K={pmf.K}]")
    drop = tuple(axis for axis in range(pmf.K) if axis + 1 not in indices)
    marginal = pmf.probs.sum(axis=drop) if drop else pmf.probs
    return _entropy(marginal)


def window_entropy_sum(pmf: JointPmf, s: int) -> float:
    """(1/s) * sum over i of H(cyclic window of length s starting at i)."""
    if not 1 <= s <= pmf.K:
        raise InputError(f"window length s={s} outside [1, K={pmf.K}]")
    windows = ([cyclic_index(i + j, pmf.K) for j in range(s)] for i in range(1, pmf.K + 1))
    return sum(marginal_entropy(pmf, window) for window in windows) / s


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


def _check_tol(tol: float) -> None:
    # a NaN tolerance would compare False against every margin and pass all checks
    if not 0 < tol < math.inf:
        raise InputError(f"tolerance must be finite and positive, got {tol}")


def _window_report(K: int, sequence: list, against: list, tol: float) -> WindowCheckReport:
    """Margins sequence[i] - against[i], failing where one is below -tol;
    failure s is the 1-based window length of the margin."""
    margins = tuple(a - b for a, b in zip(sequence, against))
    return WindowCheckReport(
        K=K,
        sequence=tuple(sequence),
        margins=margins,
        failures=tuple(
            {"s": s, "margin": margin} for s, margin in enumerate(margins, 1) if margin < -tol
        ),
    )


def check_sliding_window(pmf: JointPmf, tol: float = DEFAULT_TOL) -> WindowCheckReport:
    """Verify the window averages are non-increasing in window length."""
    _check_tol(tol)
    if pmf.K < 2:
        # one variable has no pair of window lengths to compare
        raise InputError("need at least two variables")
    sequence = [window_entropy_sum(pmf, s) for s in range(1, pmf.K + 1)]
    return _window_report(pmf.K, sequence, sequence[1:], tol)


def _conditional_window_sequence(pmf: JointPmf) -> list[float]:
    """Scaled window sums of the first K-1 variables conditioned on the last,
    expanded over each value of the conditioning variable."""
    K = pmf.K - 1
    weights = pmf.probs.sum(axis=tuple(range(K)))  # marginal of the conditioner
    sequence = np.zeros(K)
    for w, p_w in enumerate(weights):
        if p_w == 0.0:
            continue
        conditional = JointPmf(
            alphabet_sizes=pmf.alphabet_sizes[:K], probs=pmf.probs[..., w] / p_w
        )
        sequence += p_w * np.array(
            [window_entropy_sum(conditional, s) for s in range(1, K + 1)]
        )
    return [float(x) for x in sequence]


def check_conditional_window(pmf: JointPmf, tol: float = DEFAULT_TOL) -> WindowCheckReport:
    """Verify the conditional form on a pmf whose last variable conditions
    the rest: every scaled conditional window average dominates the full-set
    conditional entropy."""
    _check_tol(tol)
    if pmf.K < 2:
        raise InputError("need at least one conditioned variable plus the conditioner")
    sequence = _conditional_window_sequence(pmf)
    # every full-length window is the whole set
    return _window_report(pmf.K - 1, sequence, [sequence[-1]] * len(sequence), tol)


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


def _batch(kind: str, check, K: int, alphabet: int, trials: int, seed: int, tol: float) -> BatchReport:
    """trials random pmfs over K variables (plus the conditioner if
    conditional), each run through check; one RNG stream keyed by seed makes
    the batch reproducible.  K or alphabet below 2 could only pass: refused."""
    if K < 2:
        raise InputError(f"K must be >= 2, got {K}")
    if alphabet < 2:
        raise InputError(f"alphabet must be >= 2, got {alphabet}")
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    sizes = (alphabet,) * (K + 1 if kind == "conditional" else K)
    rng = np.random.default_rng(seed)
    min_margin = math.inf
    failures = []
    for trial in range(trials):
        report = check(JointPmf.random(sizes, rng), tol=tol)
        min_margin = min(min_margin, report.min_margin)
        failures.extend({"trial": trial, **failure} for failure in report.failures)
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
    return _batch("sliding", check_sliding_window, K, alphabet, trials, seed, tol)


def run_conditional_window_batch(
    K: int, alphabet: int, trials: int, seed: int, tol: float = DEFAULT_TOL
) -> BatchReport:
    """trials random pmfs over K variables plus one conditioner, checked
    against the conditional inequality."""
    return _batch("conditional", check_conditional_window, K, alphabet, trials, seed, tol)
