"""Rate-memory lower bounds, GF(2) scheme simulation, and entropy-inequality
checks for (K, L, N) multi-access coded caching networks."""

from importlib import import_module

from .bounds import (
    BoundCurve,
    BoundPoint,
    DominanceReport,
    FAMILY_IDS,
    Rational,
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
from .params import MaccParams, cyclic_index
from .schemes import (
    CacheContents,
    FileLibrary,
    Scheme,
    SubpacketizationError,
    Transmission,
    VerificationReport,
    access_window,
    all_demand_vectors,
    scheme_appendix_b,
    scheme_full_access_corner_323,
    scheme_zero_memory,
    verify_scheme,
)
from .tradeoff import (
    ACHIEVABLE_POINTS_323,
    lower_convex_envelope,
    memory_share,
    optimal_tradeoff_323,
)

__version__ = "0.1.0"

#: Modules loaded on first use, each with the exports it defines: entropy
#: imports numpy, which the bound, scheme and trade-off code never needs.
_LAZY = {
    "entropy": (
        "JointPmf",
        "check_conditional_window",
        "check_sliding_window",
        "marginal_entropy",
        "run_conditional_window_batch",
        "run_sliding_window_batch",
        "window_entropy_sum",
    ),
}

__all__ = [
    "ACHIEVABLE_POINTS_323",
    "BoundCurve",
    "BoundPoint",
    "CacheContents",
    "DominanceReport",
    "FAMILY_IDS",
    "FileLibrary",
    "JointPmf",
    "MaccParams",
    "Rational",
    "Scheme",
    "SubpacketizationError",
    "Transmission",
    "VerificationReport",
    "access_window",
    "all_demand_vectors",
    "best_lower_bound",
    "check_conditional_window",
    "check_sliding_window",
    "cutset_bound",
    "cyclic_index",
    "default_memory_grid",
    "hkd2_lemma3_bound",
    "hkd_lemma2_bound",
    "improved_bound",
    "lower_convex_envelope",
    "marginal_entropy",
    "memory_share",
    "optimal_tradeoff_323",
    "run_conditional_window_batch",
    "run_sliding_window_batch",
    "scheme_appendix_b",
    "scheme_full_access_corner_323",
    "scheme_zero_memory",
    "sweep_curve",
    "uncoded_threshold_gap",
    "uniform_grid",
    "verify_dominance",
    "verify_scheme",
    "window_entropy_sum",
]


def __getattr__(name: str):
    """A lazy module, or one of its exports, imported on first use (PEP 562)."""
    for module, exports in _LAZY.items():
        if name == module or name in exports:
            loaded = import_module(f"{__name__}.{module}")
            return loaded if name == module else getattr(loaded, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_LAZY))
