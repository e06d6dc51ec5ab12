"""Bit-exact placement/delivery simulation over GF(2).

Files, cache contents, and broadcast payloads are bit vectors (``bytes``
with one 0/1 entry per bit).  Schemes are verified exhaustively: every
demand vector in [1..N]^K is delivered and every user's decode output is
compared bit-for-bit against the demanded file.
"""

from __future__ import annotations

import abc
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .params import InputError, MaccParams

Demand = tuple[int, ...]


class SubpacketizationError(InputError):
    """File length F is not divisible by the scheme's subfile count."""


# ---------------------------------------------------------------------------
# bit-vector helpers
# ---------------------------------------------------------------------------


def xor_bits(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise InputError(f"length mismatch: {len(a)} vs {len(b)}")
    return bytes(x ^ y for x, y in zip(a, b))


def random_bits(rng: random.Random, n: int) -> bytes:
    return bytes(rng.getrandbits(1) for _ in range(n))


def split_bits(vec: bytes, parts: int) -> list[bytes]:
    """Split into equal parts; length must divide evenly."""
    if len(vec) % parts != 0:
        raise InputError(f"cannot split {len(vec)} bits into {parts} equal parts")
    size = len(vec) // parts
    return [vec[i * size : (i + 1) * size] for i in range(parts)]


# ---------------------------------------------------------------------------
# cyclic indexing
# ---------------------------------------------------------------------------


def cyclic_index(i: int, K: int) -> int:
    """Map any integer to [1..K] cyclically (multiples of K map to K)."""
    if K < 1:
        raise InputError(f"K must be >= 1, got {K}")
    return (i - 1) % K + 1


def access_window(k: int, params: MaccParams) -> list[int]:
    """The L consecutive cache indices user k reads, wrapping around."""
    if not 1 <= k <= params.K:
        raise InputError(f"user index k={k} outside [1, K={params.K}]")
    return [cyclic_index(k + j, params.K) for j in range(params.L)]


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FileLibrary:
    """N files of F bits each; the seed (if any) is carried for reports."""

    params: MaccParams
    F: int
    files: tuple[bytes, ...]
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.F < 1:
            raise InputError(f"F must be >= 1, got {self.F}")
        if len(self.files) != self.params.N:
            raise InputError(f"expected {self.params.N} files, got {len(self.files)}")
        for n, f in enumerate(self.files, start=1):
            if len(f) != self.F:
                raise InputError(f"file {n} has {len(f)} bits, expected {self.F}")
            if any(bit not in (0, 1) for bit in f):
                raise InputError(f"file {n} contains non-bit values")

    def file(self, n: int) -> bytes:
        """File n, 1-based."""
        return self.files[n - 1]

    @classmethod
    def random(cls, params: MaccParams, F: int, seed: int) -> "FileLibrary":
        rng = random.Random(seed)
        return cls(
            params=params,
            F=F,
            files=tuple(random_bits(rng, F) for _ in range(params.N)),
            seed=seed,
        )

    @classmethod
    def zeros(cls, params: MaccParams, F: int) -> "FileLibrary":
        return cls(params=params, F=F, files=tuple(bytes(F) for _ in range(params.N)))

    @classmethod
    def unit(cls, params: MaccParams, F: int, n: int, bit: int) -> "FileLibrary":
        """All-zero library except bit `bit` of file `n` (n is 1-based, bit 0-based)."""
        if not (1 <= n <= params.N and 0 <= bit < F):
            raise InputError(f"unit bit (n={n}, bit={bit}) outside [1, N] x [0, F)")
        files = [bytearray(F) for _ in range(params.N)]
        files[n - 1][bit] = 1
        return cls(params=params, F=F, files=tuple(bytes(f) for f in files))


@dataclass(frozen=True)
class CacheContents:
    """The K cache payloads produced by a placement, each M*F bits."""

    params: MaccParams
    M: Fraction
    F: int
    caches: tuple[bytes, ...]

    def __post_init__(self) -> None:
        if len(self.caches) != self.params.K:
            raise InputError(f"expected {self.params.K} caches, got {len(self.caches)}")
        size = self.M * self.F
        if size.denominator != 1:
            raise SubpacketizationError(f"M*F = {size} is not an integer bit count")
        for i, z in enumerate(self.caches, start=1):
            if len(z) != size:
                raise InputError(f"cache {i} has {len(z)} bits, expected {size}")

    def cache(self, i: int) -> bytes:
        """Cache i, 1-based."""
        return self.caches[i - 1]


@dataclass(frozen=True)
class Transmission:
    """One broadcast payload; rate is payload length in file units."""

    payload: bytes
    rate: Fraction

    @classmethod
    def of(cls, payload: bytes, F: int) -> "Transmission":
        return cls(payload=payload, rate=Fraction(len(payload), F))


def all_demand_vectors(params: MaccParams):
    """All N^K demand vectors in lexicographic order."""
    return itertools.product(range(1, params.N + 1), repeat=params.K)


def validate_demand(d: Demand, params: MaccParams) -> None:
    if len(d) != params.K:
        raise InputError(f"demand vector has {len(d)} entries, expected K={params.K}")
    if any(not 1 <= x <= params.N for x in d):
        raise InputError(f"demand entries must lie in [1, N={params.N}]: {d}")


# ---------------------------------------------------------------------------
# schemes
# ---------------------------------------------------------------------------


class Scheme(abc.ABC):
    """A placement/delivery/decoding triple for fixed memory M.

    decode() receives only the transmission and the caches in the user's
    cyclic access window, never the library.
    """

    id: str
    memory: Fraction
    subpacketization: int
    #: the one network the scheme is defined for; None means every network
    network: MaccParams | None = None

    def admissible(self, params: MaccParams) -> bool:
        """Whether this scheme is defined for the given network."""
        return self.network in (None, params)

    def check_library(self, library: FileLibrary) -> None:
        if not self.admissible(library.params):
            raise InputError(f"scheme {self.id!r} is not defined for {library.params}")
        if library.F % self.subpacketization != 0:
            raise SubpacketizationError(
                f"scheme {self.id!r} needs F divisible by {self.subpacketization}, got F={library.F}"
            )

    @abc.abstractmethod
    def place(self, library: FileLibrary) -> CacheContents:
        """Fill all caches from the library (demand-oblivious)."""

    @abc.abstractmethod
    def deliver(self, library: FileLibrary, demand: Demand) -> Transmission:
        """The server broadcast for one demand vector."""

    @abc.abstractmethod
    def decode(
        self, k: int, transmission: Transmission, window_caches: list[bytes], demand: Demand
    ) -> bytes:
        """User k's reconstruction of its demanded file.

        window_caches holds the payloads of access_window(k, params), in
        window order.
        """


class CodedPlacementScheme323(Scheme):
    """(3, 2, 3) scheme at M = 2/3, rate 1 for every demand.

    Each file splits into 3 subfiles.  Cache i stores the two adjacent XORs
    of the index-i subfiles, so any one index-i subfile unlocks all three.
    Delivery sends one subfile per user, chosen so that each user obtains
    one direct subfile and one unlocking subfile per accessible cache.
    """

    id = "appendix-b"
    memory = Fraction(2, 3)
    subpacketization = 3
    network = MaccParams(K=3, L=2, N=3)

    @staticmethod
    def _subfile(library: FileLibrary, n: int, i: int) -> bytes:
        return split_bits(library.file(n), 3)[i - 1]

    def place(self, library: FileLibrary) -> CacheContents:
        self.check_library(library)
        caches = []
        for i in range(1, 4):
            sub = [self._subfile(library, n, i) for n in (1, 2, 3)]
            caches.append(xor_bits(sub[0], sub[1]) + xor_bits(sub[1], sub[2]))
        return CacheContents(
            params=library.params, M=self.memory, F=library.F, caches=tuple(caches)
        )

    @staticmethod
    def _transmit_index(j: int) -> int:
        # user j's demanded file is sent as subfile index <j-1>_3
        return cyclic_index(j - 1, 3)

    def deliver(self, library: FileLibrary, demand: Demand) -> Transmission:
        self.check_library(library)
        validate_demand(demand, library.params)
        payload = b"".join(
            self._subfile(library, demand[j - 1], self._transmit_index(j))
            for j in (1, 2, 3)
        )
        return Transmission.of(payload, library.F)

    @staticmethod
    def _unlock(cache: bytes, known_file: int, known_subfile: bytes, want_file: int) -> bytes:
        """Recover subfile of want_file from one known subfile and the two
        adjacent XORs stored in a cache (all at the same subfile index)."""
        if known_file == want_file:
            return known_subfile
        x12, x23 = split_bits(cache, 2)
        pair = {known_file, want_file}
        delta = x12 if pair == {1, 2} else x23 if pair == {2, 3} else xor_bits(x12, x23)
        return xor_bits(known_subfile, delta)

    def decode(
        self, k: int, transmission: Transmission, window_caches: list[bytes], demand: Demand
    ) -> bytes:
        sent = split_bits(transmission.payload, 3)  # sent[j-1] = subfile of d_j
        parts: dict[int, bytes] = {}
        # direct: user k's own transmitted subfile
        parts[self._transmit_index(k)] = sent[k - 1]
        # each cache Z_i in the window unlocks subfile index i via the
        # transmitted subfile of that index, which belongs to file d_<i+1>
        for offset, cache in enumerate(window_caches):
            i = cyclic_index(k + offset, 3)
            j = cyclic_index(i + 1, 3)
            parts[i] = self._unlock(cache, demand[j - 1], sent[j - 1], demand[k - 1])
        return b"".join(parts[i] for i in (1, 2, 3))


class ZeroMemoryScheme(Scheme):
    """Empty caches; the server broadcasts each distinct demanded file once.

    Worst-case rate is min(K, N).  Defined for every network.
    """

    id = "zero-memory"
    memory = Fraction(0)
    subpacketization = 1

    def place(self, library: FileLibrary) -> CacheContents:
        self.check_library(library)
        return CacheContents(
            params=library.params, M=self.memory, F=library.F, caches=(b"",) * library.params.K
        )

    def deliver(self, library: FileLibrary, demand: Demand) -> Transmission:
        self.check_library(library)
        validate_demand(demand, library.params)
        payload = b"".join(library.file(n) for n in sorted(set(demand)))
        return Transmission.of(payload, library.F)

    def decode(
        self, k: int, transmission: Transmission, window_caches: list[bytes], demand: Demand
    ) -> bytes:
        wanted = sorted(set(demand))
        chunk = wanted.index(demand[k - 1])
        F = len(transmission.payload) // len(wanted)
        return transmission.payload[chunk * F : (chunk + 1) * F]


class FullAccessCornerScheme323(Scheme):
    """(3, 2, 3) scheme at M = 3/2 with an empty delivery.

    Files split into halves (A_n, B_n).  Cache 1 stores the A halves,
    cache 2 the B halves, cache 3 the XORs A_n ^ B_n, so every adjacent
    cache pair spans the whole library and every user decodes every file
    with rate 0.
    """

    id = "corner-323"
    memory = Fraction(3, 2)
    subpacketization = 2
    network = MaccParams(K=3, L=2, N=3)

    def place(self, library: FileLibrary) -> CacheContents:
        self.check_library(library)
        halves = [split_bits(library.file(n), 2) for n in (1, 2, 3)]
        z1 = b"".join(halves[n][0] for n in range(3))
        z2 = b"".join(halves[n][1] for n in range(3))
        z3 = b"".join(xor_bits(halves[n][0], halves[n][1]) for n in range(3))
        return CacheContents(
            params=library.params, M=self.memory, F=library.F, caches=(z1, z2, z3)
        )

    def decode(
        self, k: int, transmission: Transmission, window_caches: list[bytes], demand: Demand
    ) -> bytes:
        n = demand[k - 1]
        window = access_window(k, self.network)
        stored = dict(zip(window, window_caches))
        f = len(window_caches[0]) // 3

        def part(cache_index: int) -> bytes:
            return stored[cache_index][(n - 1) * f : n * f]

        a = part(1) if 1 in stored else xor_bits(part(2), part(3))
        b = part(2) if 2 in stored else xor_bits(part(1), part(3))
        return a + b

    def deliver(self, library: FileLibrary, demand: Demand) -> Transmission:
        self.check_library(library)
        validate_demand(demand, library.params)
        return Transmission.of(b"", library.F)


def scheme_appendix_b() -> Scheme:
    """The coded-placement (3, 2, 3) scheme achieving (M, R) = (2/3, 1)."""
    return CodedPlacementScheme323()


def scheme_zero_memory(params: MaccParams) -> Scheme:
    """The trivial scheme achieving (0, min(K, N)) on any network; params
    is accepted for interface symmetry and not needed."""
    return ZeroMemoryScheme()


def scheme_full_access_corner_323() -> Scheme:
    """The coded-placement (3, 2, 3) scheme achieving (M, R) = (3/2, 0)."""
    return FullAccessCornerScheme323()


#: Every scheme by id (the order of the CLI's --scheme choices).
SCHEMES: dict[str, type[Scheme]] = {
    scheme.id: scheme
    for scheme in (CodedPlacementScheme323, FullAccessCornerScheme323, ZeroMemoryScheme)
}


# ---------------------------------------------------------------------------
# exhaustive verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DemandOutcome:
    demand: Demand
    rate: Fraction
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    """Exhaustive decodability results for one scheme on one library."""

    scheme_id: str
    params: MaccParams
    F: int
    seed: int | None
    worst_case_rate: Fraction
    per_demand: tuple[DemandOutcome, ...]
    failures: tuple[tuple[Demand, int], ...]  # (demand, user), sorted

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        from .serialize import fraction_str

        return {
            "scheme_id": self.scheme_id,
            "params": {"K": self.params.K, "L": self.params.L, "N": self.params.N},
            "F": self.F,
            "seed": self.seed,
            "worst_case_rate": fraction_str(self.worst_case_rate),
            "per_demand": [
                {"d": list(o.demand), "rate": fraction_str(o.rate), "pass": o.passed}
                for o in self.per_demand
            ],
            "failures": [{"d": list(d), "k": k} for d, k in self.failures],
        }


def verify_scheme(
    scheme: Scheme, library: FileLibrary, caches: CacheContents | None = None
) -> VerificationReport:
    """Run every demand vector through delivery and per-user decoding.

    Placement happens once and is reused across all demands.  Passing a
    caches override allows fault-injection tests against corrupted
    placements.  Failures are sorted by (demand, user) so reports are
    deterministic however the loop is scheduled.
    """
    scheme.check_library(library)
    params = library.params
    if caches is None:
        caches = scheme.place(library)

    windows = [[caches.cache(i) for i in access_window(k, params)] for k in range(1, params.K + 1)]
    per_demand = []
    failures = []
    worst = Fraction(0)
    for demand in all_demand_vectors(params):
        transmission = scheme.deliver(library, demand)
        worst = max(worst, transmission.rate)
        ok = True
        for k, window in enumerate(windows, start=1):
            decoded = scheme.decode(k, transmission, window, demand)
            if decoded != library.file(demand[k - 1]):
                ok = False
                failures.append((demand, k))
        per_demand.append(DemandOutcome(demand=demand, rate=transmission.rate, passed=ok))
    return VerificationReport(
        scheme_id=scheme.id,
        params=params,
        F=library.F,
        seed=library.seed,
        worst_case_rate=worst,
        per_demand=tuple(per_demand),
        failures=tuple(sorted(failures)),
    )
