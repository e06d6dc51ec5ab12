"""Scheme simulation tests: exhaustive decodability is the oracle."""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from macckit import (
    CacheContents,
    FileLibrary,
    MaccParams,
    SubpacketizationError,
    access_window,
    all_demand_vectors,
    cyclic_index,
    scheme_appendix_b,
    scheme_full_access_corner_323,
    scheme_zero_memory,
    verify_scheme,
)
from macckit.params import InputError, InputTypeError
from macckit.schemes import split_bits, xor_bits

P323 = MaccParams(3, 2, 3)


class TestCyclicIndexing:
    @pytest.mark.parametrize("i,K,expected", [(4, 3, 1), (3, 3, 3), (1, 5, 1), (0, 4, 4), (-1, 4, 3)])
    def test_cyclic_index(self, i, K, expected):
        assert cyclic_index(i, K) == expected

    def test_access_window_wraps(self):
        assert access_window(3, P323) == [3, 1]
        assert access_window(1, P323) == [1, 2]
        assert access_window(1, MaccParams(5, 5, 5)) == [1, 2, 3, 4, 5]

    def test_bad_user_index(self):
        with pytest.raises(ValueError):
            access_window(0, P323)
        with pytest.raises(ValueError):
            access_window(4, P323)
        for k in (1.5, True):
            with pytest.raises(InputError, match="must be an int"):
                access_window(k, P323)
        for i, K in ((1.5, 3), (True, 3), (1, 3.0)):
            with pytest.raises(InputError, match="must be an int"):
                cyclic_index(i, K)

    def test_cyclic_index_needs_positive_K(self):
        with pytest.raises(InputError):
            cyclic_index(1, 0)


class TestBitHelpers:
    def test_xor_and_split(self):
        a, b = bytes([1, 0, 1, 1]), bytes([1, 1, 0, 1])
        assert xor_bits(a, b) == bytes([0, 1, 1, 0])
        assert split_bits(a, 2) == [bytes([1, 0]), bytes([1, 1])]
        with pytest.raises(ValueError):
            split_bits(a, 3)
        for parts in (0, 2.0, True):
            with pytest.raises(InputError):
                split_bits(a, parts)
        with pytest.raises(ValueError):
            xor_bits(a, a[:2])

    @given(st.integers(0, 64).flatmap(lambda n: st.tuples(*[st.binary(min_size=n, max_size=n)] * 2)))
    @example((b"", b""))
    @example((b"\x00\x00\x01", b"\x00\x00\x01"))
    @example((b"\x00\x01\x00\x01", b"\x00\x00\x00\x01"))
    @example((b"\xff" * 9, b"\x00\xff" * 4 + b"\x0f"))
    def test_xor_bits_is_bytewise_xor(self, pair):
        a, b = pair
        assert xor_bits(a, b) == bytes(x ^ y for x, y in zip(a, b))

    @given(st.binary(max_size=16), st.binary(max_size=16))
    @example(b"", b"\x00")
    def test_xor_bits_refuses_unequal_lengths(self, a, b):
        assume(len(a) != len(b))
        with pytest.raises(InputError, match="length mismatch"):
            xor_bits(a, b)

    def test_library_validation(self, monkeypatch):
        with pytest.raises(ValueError):
            FileLibrary(P323, 4, (bytes(4), bytes(4)))  # only 2 files
        with pytest.raises(ValueError):
            FileLibrary(P323, 4, (bytes(4), bytes(4), bytes(3)))
        with pytest.raises(ValueError):
            FileLibrary(P323, 2, (bytes([2, 0]), bytes(2), bytes(2)))
        # random.Random(-1) would silently reuse seed 1's stream
        with pytest.raises(InputError, match="seed must be >= 0, got -1"):
            FileLibrary.random(P323, 12, seed=-1)
        monkeypatch.setattr("macckit.schemes.random_bits", None)  # a draw raises TypeError
        for F_, seed in ((True, 0), (12.0, 0), (0, 0), (12, 1.5), (12, True)):
            with pytest.raises(InputError):
                FileLibrary.random(P323, F_, seed)
        with pytest.raises(InputError):
            FileLibrary(P323, True, (bytes([1]),) * 3)
        for F_ in (0, 12.0, True):
            with pytest.raises(InputError):
                CacheContents(params=P323, M=F(0), F=F_, caches=(b"",) * 3)

    def test_cache_memory_is_read_by_as_memory(self):
        caches = (bytes(1),) * 3  # M*F = 1 bit each
        assert CacheContents(P323, "1/2", 2, caches).M == F(1, 2)
        with pytest.raises(InputTypeError, match="memory must be exact"):
            CacheContents(P323, 0.5, 2, caches)

    @pytest.mark.parametrize("index", [0, 4, 1.5, True])
    def test_file_and_cache_indices_refused(self, index):
        # K = N = 3: index 0 would wrap to the last entry
        library = FileLibrary.random(P323, 12, seed=11)
        caches = scheme_appendix_b().place(library)
        with pytest.raises(InputError):
            library.file(index)
        with pytest.raises(InputError):
            caches.cache(index)

    @pytest.mark.parametrize(
        "caches,M,error",
        [
            ((bytes(8),) * 2, F(2, 3), InputError),  # two caches for K = 3
            ((bytes(8),) * 3, F(1, 5), SubpacketizationError),  # M*F = 12/5
            ((bytes(8), bytes(8), bytes(7)), F(2, 3), InputError),
        ],
    )
    def test_cache_contents_validation(self, caches, M, error):
        with pytest.raises(error):
            CacheContents(params=P323, M=M, F=12, caches=caches)

    @pytest.mark.parametrize("demand", [(1, 2), (1, 2, 4), (1.5, 1, 1), (True, 1, 1), (1, 2, 3.0)])
    def test_deliver_refuses_bad_demand(self, demand):
        library = FileLibrary.random(P323, 12, seed=11)
        for scheme in (scheme_appendix_b(), scheme_full_access_corner_323(), scheme_zero_memory()):
            with pytest.raises(InputError):
                scheme.deliver(library, demand)
            with pytest.raises(InputError):
                scheme.check_library(library, demand)


class TestCodedPlacement323:
    def test_all_demands_decode_on_random_library(self):
        scheme = scheme_appendix_b()
        report = verify_scheme(scheme, FileLibrary.random(P323, 12, seed=7))
        assert report.passed
        assert len(report.per_demand) == 27
        assert report.worst_case_rate == 1

    def test_rate_is_one_even_for_repeated_demands(self):
        scheme = scheme_appendix_b()
        library = FileLibrary.random(P323, 12, seed=3)
        assert scheme.deliver(library, (1, 1, 1)).rate == 1
        assert scheme.deliver(library, (1, 2, 3)).rate == 1

    def test_memory_accounting(self):
        scheme = scheme_appendix_b()
        caches = scheme.place(FileLibrary.random(P323, 12, seed=0))
        assert caches.M == F(2, 3)
        assert all(len(z) == 8 for z in caches.caches)  # (2/3) * 12

    def test_subpacketization_error(self):
        with pytest.raises(SubpacketizationError):
            verify_scheme(scheme_appendix_b(), FileLibrary.random(P323, 10, seed=0))

    def test_wrong_params_rejected(self):
        other = MaccParams(4, 2, 3)
        with pytest.raises(ValueError):
            verify_scheme(scheme_appendix_b(), FileLibrary.random(other, 12, seed=0))

    def test_user1_decodes_via_both_cache_chains(self):
        # d = (1, 2, 3): user 1 takes its own subfile directly and unlocks
        # the other two via caches 1 and 2
        scheme = scheme_appendix_b()
        library = FileLibrary.random(P323, 12, seed=11)
        caches = scheme.place(library)
        transmission = scheme.deliver(library, (1, 2, 3))
        window = {i: caches.cache(i) for i in access_window(1, P323)}
        assert scheme.decode(1, transmission, window, (1, 2, 3)) == library.file(1)


class TestZeroMemory:
    def test_distinct_demand_rates(self):
        scheme = scheme_zero_memory()
        library = FileLibrary.random(P323, 12, seed=5)
        assert scheme.deliver(library, (1, 2, 3)).rate == 3
        assert scheme.deliver(library, (2, 2, 2)).rate == 1

    def test_worst_case_rate_is_min_K_N(self):
        params = MaccParams(5, 2, 3)
        library = FileLibrary.random(params, 12, seed=5)
        scheme = scheme_zero_memory()
        assert scheme.deliver(library, (1, 2, 3, 1, 2)).rate == 3
        report = verify_scheme(scheme, library)
        assert report.passed
        assert report.worst_case_rate == min(params.K, params.N)

    def test_caches_are_empty(self):
        caches = scheme_zero_memory().place(FileLibrary.random(P323, 8, seed=1))
        assert all(z == b"" for z in caches.caches)


class TestFullAccessCorner323:
    def test_rate_zero_for_all_demands(self):
        report = verify_scheme(
            scheme_full_access_corner_323(), FileLibrary.random(P323, 12, seed=9)
        )
        assert report.passed
        assert report.worst_case_rate == 0
        assert all(outcome.rate == 0 for outcome in report.per_demand)

    def test_every_user_recovers_every_file_from_caches_alone(self):
        scheme = scheme_full_access_corner_323()
        library = FileLibrary.random(P323, 12, seed=2)
        caches = scheme.place(library)
        empty = scheme.deliver(library, (1, 1, 1))
        for k in (1, 2, 3):
            window = {i: caches.cache(i) for i in access_window(k, P323)}
            for n in (1, 2, 3):
                demand = tuple(n if j == k else 1 for j in (1, 2, 3))
                assert scheme.decode(k, empty, window, demand) == library.file(n)

    def test_xor_cancellation_identity(self):
        # cache pair (B halves, A^B halves) recovers the A halves
        scheme = scheme_full_access_corner_323()
        library = FileLibrary.random(P323, 12, seed=4)
        caches = scheme.place(library)
        z2, z3 = caches.cache(2), caches.cache(3)
        halves = split_bits(library.file(1), 2)
        f = len(halves[0])
        assert xor_bits(z2[:f], z3[:f]) == halves[0]

    def test_odd_F_rejected(self):
        with pytest.raises(SubpacketizationError):
            verify_scheme(scheme_full_access_corner_323(), FileLibrary.random(P323, 9, seed=0))

    def test_memory_accounting(self):
        caches = scheme_full_access_corner_323().place(FileLibrary.random(P323, 12, seed=0))
        assert caches.M == F(3, 2)
        assert all(len(z) == 18 for z in caches.caches)  # (3/2) * 12


class TestVerifyScheme:
    def test_corrupted_placement_is_reported(self, monkeypatch):
        scheme = scheme_appendix_b()
        library = FileLibrary.random(P323, 12, seed=13)
        caches = scheme.place(library)
        flipped = bytearray(caches.cache(1))
        flipped[0] ^= 1
        corrupted = CacheContents(
            params=P323, M=scheme.memory, F=12, caches=(bytes(flipped),) + caches.caches[1:]
        )
        monkeypatch.setattr(scheme, "place", lambda library: corrupted)
        report = verify_scheme(scheme, library)
        assert not report.passed
        assert len(report.failures) > 0
        assert report.failures == tuple(sorted(report.failures))

    def test_placement_is_demand_oblivious(self):
        scheme = scheme_appendix_b()
        library = FileLibrary.random(P323, 12, seed=21)
        assert scheme.place(library) == scheme.place(library)

    def test_window_locality_survives_zeroing_other_caches(self):
        # decode only sees its window; zeroing everything else cannot matter
        scheme = scheme_appendix_b()
        library = FileLibrary.random(P323, 12, seed=17)
        caches = scheme.place(library)
        for demand in [(1, 2, 3), (3, 3, 1), (2, 1, 2)]:
            transmission = scheme.deliver(library, demand)
            for k in (1, 2, 3):
                window = access_window(k, P323)
                zeroed = CacheContents(
                    params=P323,
                    M=scheme.memory,
                    F=12,
                    caches=tuple(
                        z if i + 1 in window else bytes(len(z))
                        for i, z in enumerate(caches.caches)
                    ),
                )
                window_payloads = {i: zeroed.cache(i) for i in window}
                assert scheme.decode(k, transmission, window_payloads, demand) == library.file(
                    demand[k - 1]
                )

    def test_rate_accounting(self):
        scheme = scheme_zero_memory()
        library = FileLibrary.random(P323, 12, seed=6)
        for demand in all_demand_vectors(P323):
            transmission = scheme.deliver(library, demand)
            assert transmission.rate * 12 == len(transmission.payload)

    def test_report_json_shape(self):
        report = verify_scheme(scheme_appendix_b(), FileLibrary.random(P323, 12, seed=7))
        payload = report.to_dict()
        assert payload["scheme_id"] == "appendix-b"
        assert payload["params"] == {"K": 3, "L": 2, "N": 3}
        assert payload["F"] == 12 and payload["seed"] == 7
        assert payload["worst_case_rate"] == "1"
        assert len(payload["per_demand"]) == 27
        assert payload["per_demand"][0] == {"d": [1, 1, 1], "rate": "1", "pass": True}
        assert payload["failures"] == []


class TestLinearity:
    """XOR schemes are linear; passing on a spanning set of libraries is
    strong evidence for all libraries.  Sampled, not assumed."""

    @pytest.mark.parametrize(
        "factory",
        [scheme_appendix_b, scheme_full_access_corner_323],
        ids=["scheme_appendix_b", "scheme_full_access_corner_323"],
    )
    def test_zero_library(self, factory):
        assert verify_scheme(factory(), FileLibrary(P323, 12, (bytes(12),) * 3)).passed

    @pytest.mark.parametrize(
        "factory",
        [scheme_appendix_b, scheme_full_access_corner_323],
        ids=["scheme_appendix_b", "scheme_full_access_corner_323"],
    )
    def test_all_unit_libraries(self, factory):
        scheme = factory()
        for n in (1, 2, 3):
            for bit in range(12):
                files = [bytearray(12) for _ in range(3)]
                files[n - 1][bit] = 1  # the library's only 1
                library = FileLibrary(P323, 12, tuple(map(bytes, files)))
                assert verify_scheme(scheme, library).passed, (n, bit)

    @pytest.mark.parametrize(
        "factory",
        [scheme_appendix_b, scheme_full_access_corner_323, scheme_zero_memory],
        ids=["scheme_appendix_b", "scheme_full_access_corner_323", "scheme_zero_memory"],
    )
    def test_every_library_at_subpacketization(self, factory):
        # F = subpacketization leaves 2**(N*F) libraries: 512, 64 and 8; all decode
        scheme = factory()
        F_bits = scheme.subpacketization
        libraries = itertools.product((0, 1), repeat=P323.N * F_bits)
        for count, bits in enumerate(libraries, start=1):
            files = tuple(bytes(bits[n * F_bits:(n + 1) * F_bits]) for n in range(P323.N))
            assert verify_scheme(scheme, FileLibrary(P323, F_bits, files)).passed, files
        assert count == 2 ** (P323.N * F_bits)

    def test_random_libraries_many_seeds(self):
        rng = random.Random(99)
        for _ in range(5):
            seed = rng.getrandbits(32)
            library = FileLibrary.random(P323, 12, seed=seed)
            assert verify_scheme(scheme_appendix_b(), library).passed, seed
