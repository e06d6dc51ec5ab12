"""Network parameters and the exact-input rules every module shares."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

MemoryLike = int | str | Fraction
#: The entropy checks' margin tolerance, kept here so that the CLI's --tol
#: default is read without importing entropy (and numpy).
DEFAULT_TOL = 1e-9


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


def as_memory(M: MemoryLike) -> Fraction:
    """M as an exact Fraction: the package's one reader of rationals.  An int,
    a Fraction or a string like '2/3' passes; a malformed string or a zero
    denominator is an InputError, any other type (a float, bool, None or
    numpy scalar) an InputTypeError.  A Fraction of exactly that type is
    returned as it is; a subclass comes back as a new Fraction."""
    if type(M) is Fraction:
        return M
    if isinstance(M, str):
        try:
            return Fraction(M)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"memory {M!r} is not a rational like '2/3'") from exc
    if not isinstance(M, (int, Fraction)) or isinstance(M, bool):
        raise InputTypeError(f"memory must be exact; pass an int, Fraction or '2/3', got {M!r}")
    return Fraction(M)


def cyclic_index(i: int, K: int) -> int:
    """Map any integer to [1..K] cyclically (multiples of K map to K)."""
    return (require_int("index i", i) - 1) % require_int("K", K, 1) + 1
