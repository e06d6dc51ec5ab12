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
from dataclasses import asdict, dataclass
from fractions import Fraction

from .params import InputError, MaccParams, as_memory, cyclic_index, require_int
from .serialize import fraction_str

Demand = tuple[int, ...]


class SubpacketizationError(InputError):
    """File length F is not divisible by the scheme's subfile count."""


# ---------------------------------------------------------------------------
# bit-vector helpers
# ---------------------------------------------------------------------------


def xor_bits(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise InputError(f"length mismatch: {len(a)} vs {len(b)}")
    # big-int XOR is byte-wise XOR
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def random_bits(rng: random.Random, n: int) -> bytes:
    return bytes(rng.getrandbits(1) for _ in range(n))


def split_bits(vec: bytes, parts: int) -> list[bytes]:
    """Split into equal parts; length must divide evenly."""
    if len(vec) % require_int("parts", parts, 1) != 0:
        raise InputError(f"cannot split {len(vec)} bits into {parts} equal parts")
    size = len(vec) // parts
    return [vec[i * size : (i + 1) * size] for i in range(parts)]


# ---------------------------------------------------------------------------
# access windows
# ---------------------------------------------------------------------------


def access_window(k: int, params: MaccParams) -> list[int]:
    """The L consecutive cache indices user k reads, wrapping around."""
    require_int("user index k", k, 1, params.K)
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
        require_int("F", self.F, 1)
        if len(self.files) != self.params.N:
            raise InputError(f"expected {self.params.N} files, got {len(self.files)}")
        for n, f in enumerate(self.files, start=1):
            if len(f) != self.F:
                raise InputError(f"file {n} has {len(f)} bits, expected {self.F}")
            if any(bit not in (0, 1) for bit in f):
                raise InputError(f"file {n} contains non-bit values")

    def file(self, n: int) -> bytes:
        """File n, 1-based."""
        return self.files[require_int("file index n", n, 1, self.params.N) - 1]

    @classmethod
    def random(cls, params: MaccParams, F: int, seed: int) -> "FileLibrary":
        require_int("F", F, 1)
        require_int("seed", seed, 0)  # random.Random seeds with abs(seed)
        rng = random.Random(seed)
        return cls(
            params=params,
            F=F,
            files=tuple(random_bits(rng, F) for _ in range(params.N)),
            seed=seed,
        )


@dataclass(frozen=True)
class CacheContents:
    """The K cache payloads produced by a placement, each M*F bits; M is read
    by params.as_memory."""

    params: MaccParams
    M: Fraction
    F: int
    caches: tuple[bytes, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "M", as_memory(self.M))
        require_int("F", self.F, 1)
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
        return self.caches[require_int("cache index i", i, 1, self.params.K) - 1]


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


# ---------------------------------------------------------------------------
# schemes
# ---------------------------------------------------------------------------


class Scheme(abc.ABC):
    """A placement/delivery/decoding triple for fixed memory M.

    decode() receives only the transmission and the caches in the user's
    cyclic access window, never the library.  Every place() and deliver()
    makes one check_library call first; deliver() passes its demand too.
    """

    id: str
    memory: Fraction
    subpacketization: int
    #: the one network the scheme is defined for; None means every network
    network: MaccParams | None = None

    def check_library(self, library: FileLibrary, demand: Demand | None = None) -> None:
        """Refuse a library of another network or with F not divisible by the
        subpacketization, then a given demand without K entries in [1, N]."""
        params = library.params
        if self.network not in (None, params):
            raise InputError(f"scheme {self.id!r} is not defined for {params}")
        if library.F % self.subpacketization != 0:
            raise SubpacketizationError(
                f"scheme {self.id!r} needs F divisible by {self.subpacketization}, got F={library.F}"
            )
        if demand is None:
            return
        if len(demand) != params.K:
            raise InputError(f"demand vector has {len(demand)} entries, expected K={params.K}")
        # require_int's rule, inlined: this runs once per delivered demand
        if any(not isinstance(x, int) or isinstance(x, bool) or not 1 <= x <= params.N for x in demand):
            raise InputError(f"demand entries must be ints in [1, N={params.N}]: {demand}")

    @abc.abstractmethod
    def place(self, library: FileLibrary) -> CacheContents:
        """Fill all caches from the library (demand-oblivious)."""

    @abc.abstractmethod
    def deliver(self, library: FileLibrary, demand: Demand) -> Transmission:
        """The server broadcast for one demand vector."""

    @abc.abstractmethod
    def decode(
        self, k: int, transmission: Transmission, window: dict[int, bytes], demand: Demand
    ) -> bytes:
        """User k's reconstruction of its demanded file.

        window maps each cache index of access_window(k, params), in window
        order, to that cache's payload.
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
        self.check_library(library, demand)
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
        self, k: int, transmission: Transmission, window: dict[int, bytes], demand: Demand
    ) -> bytes:
        sent = split_bits(transmission.payload, 3)  # sent[j-1] = subfile of d_j
        parts: dict[int, bytes] = {}
        # direct: user k's own transmitted subfile
        parts[self._transmit_index(k)] = sent[k - 1]
        # each cache Z_i in the window unlocks subfile index i via the
        # transmitted subfile of that index, which belongs to file d_<i+1>
        for i, cache in window.items():
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
        self.check_library(library, demand)
        # check_library checked every n, so index the files directly
        payload = b"".join(library.files[n - 1] for n in sorted(set(demand)))
        return Transmission.of(payload, library.F)

    def decode(
        self, k: int, transmission: Transmission, window: dict[int, bytes], demand: Demand
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
        self, k: int, transmission: Transmission, window: dict[int, bytes], demand: Demand
    ) -> bytes:
        n = demand[k - 1]

        def part(cache_index: int) -> bytes:
            f = len(window[cache_index]) // 3
            return window[cache_index][(n - 1) * f : n * f]

        a = part(1) if 1 in window else xor_bits(part(2), part(3))
        b = part(2) if 2 in window else xor_bits(part(1), part(3))
        return a + b

    def deliver(self, library: FileLibrary, demand: Demand) -> Transmission:
        self.check_library(library, demand)
        return Transmission.of(b"", library.F)


scheme_appendix_b = CodedPlacementScheme323
scheme_zero_memory = ZeroMemoryScheme
scheme_full_access_corner_323 = FullAccessCornerScheme323


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
    failures: tuple[tuple[Demand, int], ...]  # in (demand, user) order

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "scheme_id": self.scheme_id,
            "params": asdict(self.params),
            "F": self.F,
            "seed": self.seed,
            "worst_case_rate": fraction_str(self.worst_case_rate),
            "per_demand": [
                {"d": list(o.demand), "rate": fraction_str(o.rate), "pass": o.passed}
                for o in self.per_demand
            ],
            "failures": [{"d": list(d), "k": k} for d, k in self.failures],
        }


def verify_scheme(scheme: Scheme, library: FileLibrary) -> VerificationReport:
    """Run every demand vector through delivery and per-user decoding.

    Placement happens once and is reused across all demands.  Each user's
    window, {cache index: payload} in access_window order, is built once.
    Failures are listed in (demand, user) order, the order the loop visits.
    """
    params = library.params
    caches = scheme.place(library)
    windows = [{i: caches.cache(i) for i in access_window(k, params)} for k in range(1, params.K + 1)]
    per_demand = []
    failures = []
    worst = Fraction(0)
    for demand in all_demand_vectors(params):
        transmission = scheme.deliver(library, demand)
        worst = max(worst, transmission.rate)
        ok = True
        for k, window in enumerate(windows, start=1):
            decoded = scheme.decode(k, transmission, window, demand)
            if decoded != library.files[demand[k - 1] - 1]:  # demands are in range
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
        failures=tuple(failures),
    )
