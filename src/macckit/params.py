"""Network parameters shared by the bound and simulation modules."""

from __future__ import annotations

from dataclasses import dataclass


class InputError(ValueError):
    """A caller passed a value the package refuses (the CLI exits 2)."""


class InputTypeError(InputError, TypeError):
    """A value of the wrong type; also a TypeError, as Python's own is."""


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
        require_int("K", self.K, 1)
        require_int("L", self.L, 1, self.K)
        require_int("N", self.N, 1)


def require_int(name: str, value, low: int | None = None, high: int | None = None) -> int:
    """Return value if it is an int (bool refused: a count or index is never a
    flag) in [low, high], else raise InputError naming it (InputTypeError if
    not an int).  A bound left None is not checked; a high needs a low one."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputTypeError(f"{name} must be an int, got {value!r}")
    if high is not None and not low <= value <= high:
        raise InputError(f"{name}={value} outside [{low}, {high}]")
    if low is not None and value < low:
        raise InputError(f"{name} must be >= {low}, got {value}")
    return value


def cyclic_index(i: int, K: int) -> int:
    """Map any integer to [1..K] cyclically (multiples of K map to K)."""
    return (require_int("index i", i) - 1) % require_int("K", K, 1) + 1
