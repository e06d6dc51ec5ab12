"""Network parameters shared by the bound and simulation modules."""

from __future__ import annotations

from dataclasses import dataclass


class InputError(ValueError):
    """A caller passed a value the package refuses (the CLI exits 2)."""


@dataclass(frozen=True)
class MaccParams:
    """The (K, L, N) multi-access network triple.

    K caches serve K users; user k reads the L consecutive caches starting
    at k (cyclic wrap-around); the server holds N files.
    """

    K: int
    L: int
    N: int

    def __post_init__(self) -> None:
        for name in ("K", "L", "N"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an int, got {value!r}")
        if self.K < 1:
            raise InputError(f"K must be >= 1, got {self.K}")
        if not 1 <= self.L <= self.K:
            raise InputError(f"L must satisfy 1 <= L <= K, got L={self.L}, K={self.K}")
        if self.N < 1:
            raise InputError(f"N must be >= 1, got {self.N}")


def require_int(name: str, value) -> None:
    """Refuse anything but an int, bool included (an index is never a flag)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{name} must be an int, got {value!r}")


def cyclic_index(i: int, K: int) -> int:
    """Map any integer to [1..K] cyclically (multiples of K map to K)."""
    if K < 1:
        raise InputError(f"K must be >= 1, got {K}")
    return (i - 1) % K + 1
