"""Rate-memory lower bounds, GF(2) scheme simulation, and entropy-inequality
checks for (K, L, N) multi-access coded caching networks."""

from importlib import import_module

__version__ = "0.1.0"

#: Every export, under the module that defines it.  Each module loads on first
#: use, so `import macckit` imports no submodule and numpy loads only with
#: entropy; nothing is cached here, so a lookup reads the module's attribute.
_LAZY = {
    "bounds": (
        "BoundCurve",
        "BoundPoint",
        "DominanceReport",
        "FAMILY_IDS",
        "Rational",
        "best_lower_bound",
        "cutset_bound",
        "default_memory_grid",
        "hkd2_lemma3_bound",
        "hkd_lemma2_bound",
        "improved_bound",
        "sweep_curve",
        "uncoded_threshold_gap",
        "uniform_grid",
        "verify_dominance",
    ),
    "params": ("MaccParams", "cyclic_index"),
    "schemes": (
        "CacheContents",
        "FileLibrary",
        "Scheme",
        "SubpacketizationError",
        "Transmission",
        "VerificationReport",
        "access_window",
        "all_demand_vectors",
        "scheme_appendix_b",
        "scheme_full_access_corner_323",
        "scheme_zero_memory",
        "verify_scheme",
    ),
    "tradeoff": (
        "ACHIEVABLE_POINTS_323",
        "lower_convex_envelope",
        "memory_share",
        "optimal_tradeoff_323",
    ),
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

__all__ = sorted(name for exports in _LAZY.values() for name in exports)


def __getattr__(name: str):
    """A lazy module, or one of its exports, imported on first use (PEP 562)."""
    for module, exports in _LAZY.items():
        if name == module or name in exports:
            loaded = import_module(f"{__name__}.{module}")
            return loaded if name == module else getattr(loaded, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_LAZY))
