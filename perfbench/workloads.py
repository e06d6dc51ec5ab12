"""The benchmark's workloads: job lists built from a seed, and the
correctness check each job's output must pass.

A job is one closed-loop request: a `macckit` CLI invocation through
`macckit.cli.main`, optionally followed by a few public-API queries.  The
seed sets job order, library seeds, pmf seeds and the memories queried or
brute-force checked; it never changes the amount of work.  Checks run
after the timed passes and return a Verdict: problems found, exact work
counts read back from the outputs, and the output bytes for digests.
"""

from __future__ import annotations

import csv
import io
import json
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import macckit
from macckit import bounds, cli
from macckit.params import MaccParams

#: The paper's plotted settings (tests/test_acceptance.py) plus one large
#: sweep; (100, 10, 100) is left out because one pass of it takes ~37 s.
FIGURE_SETTINGS = ((20, 5, 20), (10, 7, 10), (10, 6, 10), (11, 3, 11), (10, 3, 10))
LARGE_SETTING = (60, 6, 60)
DEFAULT_FAMILIES = ("cutset_thm1", "improved_thm2", "hkd_lemma2", "hkd2_lemma3", "best")
DEFAULT_GRID_POINTS = 101
BRUTE_FORCE_POINTS = 2  # seeded grid points per bounds job checked by brute force

#: Every (K, L, N) of the acceptance suite: K <= 10, N <= 12 (648 triples).
CERTIFY_TRIPLES = tuple(
    (K, L, N) for K in range(2, 11) for L in range(1, K + 1) for N in range(1, 13)
)
DOMINANCE_GRID_POINTS = 51
QUERIES_PER_TRIPLE = 3
SANDWICH_POINTS = 151

APPENDIX_B_LIBRARIES = 20
SCHEME_F = 3000  # bits per file for the (3, 2, 3) schemes
ZERO_MEMORY_PARAMS, ZERO_MEMORY_F = (6, 2, 6), 64  # 46,656 demand vectors
ENTROPY_CASES = ((3, 2, 1500), (5, 3, 500))  # (K, alphabet, trials)

KNOWN_RATES = {"appendix-b": Fraction(1), "corner-323": Fraction(0)}
COUNT_NAMES = ("bound_points", "dominance_points", "demand_vectors", "decode_calls", "pmfs")
P323 = MaccParams(3, 2, 3)


class _Discard(io.TextIOBase):
    def write(self, text: str) -> int:
        return len(text)


_SINK = _Discard()


def _cli(argv: list[str]) -> int:
    """One CLI invocation; its console messages are discarded."""
    with redirect_stdout(_SINK), redirect_stderr(_SINK):
        return cli.main(argv)


def _params_args(K: int, L: int, N: int) -> list[str]:
    return ["--K", str(K), "--L", str(L), "--N", str(N)]


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    blobs: list[tuple[str, bytes, bool]] = field(default_factory=list)  # (name, bytes, seeded)


def _exit_code(verdict: Verdict, rc) -> bool:
    """Record a wrong exit code; True if the job's outputs can be checked."""
    if rc != cli.EXIT_OK:
        verdict.problems.append(f"exit code {rc}, expected {cli.EXIT_OK}")
        return False
    return True


def _load_json(path: Path, verdict: Verdict, seeded: bool):
    data = path.read_bytes()
    verdict.blobs.append((path.name, data, seeded))
    return json.loads(data)


# ---------------------------------------------------------------------------
# brute force from the public single-term functions
# ---------------------------------------------------------------------------


class Oracle:
    """Family values as the maximum over every searched term, evaluated one
    by one with the public single-term functions; cached per (params, M)."""

    def __init__(self) -> None:
        self._cache: dict = {}

    def values(self, params: MaccParams, M: Fraction) -> dict:
        key = (params, M)
        if key not in self._cache:
            K, L, N = params.K, params.L, params.N
            values = {
                "cutset_thm1": max(bounds.cutset_term(params, s, M)
                                   for s in range(1, min(K, N) + 1)),
                "improved_thm2": max(bounds.improved_term(params, s, l, M)
                                     for s in range(1, K + 1) for l in range(1, -(-N // s) + 1)),
                "hkd_lemma2": max((bounds.hkd_lemma2_term(params, s, t, b, M)
                                   for s in range(1, K // 2 + 1) for t in range(1, K + 1)
                                   if L <= s * t <= K // 2 for b in range(1, N + 1)),
                                  default=None),
                "hkd2_lemma3": max(bounds.hkd2_lemma3_term(params, s, M)
                                   for s in range(1, min(K, N) + 1)),
            }
            values["best"] = max(v for v in values.values() if v is not None)
            self._cache[key] = values
        return self._cache[key]


def _grid(stop: Fraction, count: int) -> list[Fraction]:
    return [stop * i / (count - 1) for i in range(count)]


def clamp(x: Fraction) -> Fraction:
    return max(x, Fraction(0))


def parse_witness(text: str) -> dict:
    witness = {}
    for item in text.split(";"):
        key, _, value = item.partition("=")
        witness[key] = True if value == "True" else int(value) if value.isdigit() else value
    return witness


def _check_point(verdict, params, family, M, R, witness, oracle, brute) -> None:
    """R is the exported (clamped) value of family at M."""
    replay = clamp(bounds.evaluate_witness(params, family, witness, M))
    if R != replay:
        verdict.problems.append(f"{family} at M={M}: R={R} but its witness gives {replay}")
    if brute:
        exact = clamp(oracle.values(params, M)[family])
        if R != exact:
            verdict.problems.append(f"{family} at M={M}: R={R} but brute force gives {exact}")


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------


@dataclass
class BoundsJob:
    """`macckit bounds` with the default families and 101-point grid."""

    K: int
    L: int
    N: int
    fmt: str
    brute_indices: tuple[int, ...]

    @property
    def key(self) -> str:
        return f"bounds-{self.K}-{self.L}-{self.N}.{self.fmt}"

    def families(self) -> list[str]:
        applicable = self.L <= self.K // 2
        return [f for f in DEFAULT_FAMILIES if f != "hkd_lemma2" or applicable]

    def expected(self) -> Counter:
        return Counter(bound_points=DEFAULT_GRID_POINTS * len(self.families()))

    def run(self, out: Path):
        argv = ["bounds", *_params_args(self.K, self.L, self.N), "--format", self.fmt,
                "--out", str(out / self.key)]
        return _cli(argv)

    def verify(self, out: Path, rc, oracle: Oracle) -> Verdict:
        verdict = Verdict()
        if not _exit_code(verdict, rc):
            return verdict
        data = (out / self.key).read_bytes()
        verdict.blobs.append((self.key, data, False))
        text = data.decode("utf-8")
        if self.fmt == "csv":
            rows = list(csv.DictReader(io.StringIO(text)))
        else:
            rows = [row for curve in json.loads(text)["curves"] for row in curve["points"]]
        verdict.counts["bound_points"] = len(rows)
        params = MaccParams(self.K, self.L, self.N)
        grid = _grid(Fraction(self.N, self.L), DEFAULT_GRID_POINTS)
        expected = [(family, m) for family in self.families() for m in grid]
        got = [(row["family"], Fraction(row["M"])) for row in rows]
        if got != expected:
            verdict.problems.append("rows are not one per (family, grid point) in order")
            return verdict
        brute = {grid[i] for i in self.brute_indices}
        for row in rows:
            M = Fraction(row["M"])
            _check_point(verdict, params, row["family"], M, Fraction(row["R"]),
                         parse_witness(row["witness"]), oracle, M in brute)
        return verdict


@dataclass
class CertifyJob:
    """`macckit compare` on 0:N/L:51, then single-point best_lower_bound queries."""

    K: int
    L: int
    N: int
    queries: tuple[Fraction, ...]

    @property
    def key(self) -> str:
        return f"certify-{self.K}-{self.L}-{self.N}"

    def expected(self) -> Counter:
        return Counter(dominance_points=DOMINANCE_GRID_POINTS, bound_points=len(self.queries))

    def run(self, out: Path):
        argv = ["compare", *_params_args(self.K, self.L, self.N),
                "--grid", f"0:{self.N}/{self.L}:{DOMINANCE_GRID_POINTS}",
                "--out", str(out / f"{self.key}.json")]
        rc = _cli(argv)
        params = MaccParams(self.K, self.L, self.N)
        return rc, [macckit.best_lower_bound(params, m) for m in self.queries]

    def verify(self, out: Path, result, oracle: Oracle) -> Verdict:
        rc, points = result
        verdict = Verdict()
        params = MaccParams(self.K, self.L, self.N)
        for m, point in zip(self.queries, points):
            if point.M != m or point.R < 0:
                verdict.problems.append(f"best_lower_bound at M={m} returned M={point.M}, R={point.R}")
                continue
            _check_point(verdict, params, "best", m, point.R, point.witness, oracle, True)
        verdict.counts["bound_points"] = len(points)
        blob = "".join(f"{p.M} {p.R} {sorted(p.witness.items())}\n" for p in points)
        verdict.blobs.append((f"{self.key}.queries", blob.encode(), True))
        if not _exit_code(verdict, rc):
            return verdict
        report = _load_json(out / f"{self.key}.json", verdict, False)
        verdict.counts["dominance_points"] = len(report["points"])
        if report["violations"] or report["params"] != {"K": self.K, "L": self.L, "N": self.N}:
            verdict.problems.append("dominance report is not ok")
        if len(report["points"]) != DOMINANCE_GRID_POINTS:
            verdict.problems.append(f"dominance report has {len(report['points'])} points")
        return verdict


@dataclass
class SandwichJob:
    """The (3, 2, 3) optimality sandwich: best_lower_bound, optimal_tradeoff_323
    and memory_share on 151 points of [0, 3/2]."""

    key = "sandwich-323"

    def expected(self) -> Counter:
        return Counter(bound_points=SANDWICH_POINTS)

    def run(self, out: Path):
        vertices = [(m, r) for m, r, _ in macckit.ACHIEVABLE_POINTS_323]
        return [
            (macckit.best_lower_bound(P323, m).R, macckit.optimal_tradeoff_323(m),
             macckit.memory_share(vertices, m))
            for m in macckit.uniform_grid(0, Fraction(3, 2), SANDWICH_POINTS)
        ]

    def verify(self, out: Path, rows, oracle: Oracle) -> Verdict:
        verdict = Verdict(counts=Counter(bound_points=len(rows)))
        grid = _grid(Fraction(3, 2), SANDWICH_POINTS)
        for m, (lower, exact, shared) in zip(grid, rows):
            if not lower == exact == shared:
                verdict.problems.append(f"sandwich broken at M={m}: {lower}, {exact}, {shared}")
        blob = "".join(f"{lower} {exact} {shared}\n" for lower, exact, shared in rows)
        verdict.blobs.append((self.key, blob.encode(), False))
        return verdict


@dataclass
class SimulateJob:
    """`macckit simulate`: exhaustive verification over all N^K demands."""

    scheme: str
    index: int
    K: int
    L: int
    N: int
    F: int
    seed: int
    points_out: bool = False

    @property
    def key(self) -> str:
        return f"simulate-{self.scheme}-{self.index}"

    def expected(self) -> Counter:
        demands = self.N ** self.K
        return Counter(demand_vectors=demands, decode_calls=demands * self.K)

    def run(self, out: Path):
        argv = ["simulate", "--scheme", self.scheme, *_params_args(self.K, self.L, self.N),
                "--F", str(self.F), "--seed", str(self.seed), "--out", str(out / f"{self.key}.json")]
        if self.points_out:
            argv += ["--points-out", str(out / f"{self.key}.csv")]
        return _cli(argv)

    def verify(self, out: Path, rc, oracle: Oracle) -> Verdict:
        verdict = Verdict()
        if not _exit_code(verdict, rc):
            return verdict
        report = _load_json(out / f"{self.key}.json", verdict, True)
        demands = report["per_demand"]
        verdict.counts["demand_vectors"] = len(demands)
        verdict.counts["decode_calls"] = len(demands) * self.K
        rate = KNOWN_RATES.get(self.scheme, Fraction(min(self.K, self.N)))
        header = (report["scheme_id"], report["params"], report["F"], report["seed"])
        if header != (self.scheme, {"K": self.K, "L": self.L, "N": self.N}, self.F, self.seed):
            verdict.problems.append(f"report header {header} does not match the job")
        if Fraction(report["worst_case_rate"]) != rate:
            verdict.problems.append(f"worst-case rate {report['worst_case_rate']}, expected {rate}")
        if len(demands) != self.N ** self.K:
            verdict.problems.append(f"{len(demands)} demand entries, expected {self.N ** self.K}")
        if report["failures"] or not all(entry["pass"] for entry in demands):
            verdict.problems.append("decode failures reported")
        if self.points_out:
            path = out / f"{self.key}.csv"
            data = path.read_bytes()
            verdict.blobs.append((path.name, data, True))
            expected = f"M,R,scheme_id\n0,{rate},{self.scheme}\n"
            if self.scheme == "zero-memory" and data.decode() != expected:
                verdict.problems.append(f"achievable point file reads {data!r}")
        return verdict


@dataclass
class EntropyJob:
    """`macckit entropy-test`: sliding-window and conditional batches."""

    K: int
    alphabet: int
    trials: int
    seed: int

    @property
    def key(self) -> str:
        return f"entropy-K{self.K}-A{self.alphabet}"

    def expected(self) -> Counter:
        return Counter(pmfs=2 * self.trials)

    def run(self, out: Path):
        argv = ["entropy-test", "--K", str(self.K), "--alphabet", str(self.alphabet),
                "--trials", str(self.trials), "--seed", str(self.seed),
                "--out", str(out / f"{self.key}.json")]
        return _cli(argv)

    def verify(self, out: Path, rc, oracle: Oracle) -> Verdict:
        verdict = Verdict()
        if not _exit_code(verdict, rc):
            return verdict
        report = _load_json(out / f"{self.key}.json", verdict, True)
        for kind in ("sliding", "conditional"):
            batch = report[kind]
            verdict.counts["pmfs"] += batch["trials"]
            if (batch["K"], batch["trials"], batch["seed"]) != (self.K, self.trials, self.seed):
                verdict.problems.append(f"{kind} batch header does not match the job")
            if batch["failures"]:
                verdict.problems.append(f"{len(batch['failures'])} {kind} failures")
        return verdict


# ---------------------------------------------------------------------------
# job lists
# ---------------------------------------------------------------------------


def build_jobs(workload: str, seed: int, tiny: bool = False) -> list:
    """The workload's job list in seeded order.

    tiny gives one or two small jobs of the same kinds (warm-up and the
    harness self-test).
    """
    rng = random.Random(seed)
    if workload == "figures":
        settings = [(6, 2, 6)] if tiny else [*FIGURE_SETTINGS]
        jobs = [BoundsJob(*s, fmt, tuple(rng.sample(range(DEFAULT_GRID_POINTS), BRUTE_FORCE_POINTS)))
                for s in settings for fmt in ("csv", "json")]
        if not tiny:
            jobs.append(BoundsJob(*LARGE_SETTING, "csv",
                                  tuple(rng.sample(range(DEFAULT_GRID_POINTS), BRUTE_FORCE_POINTS))))
    elif workload == "certify":
        triples = [(3, 2, 3)] if tiny else CERTIFY_TRIPLES
        jobs = [CertifyJob(K, L, N, tuple(Fraction(N, L) * Fraction(rng.randrange(101), 100)
                                          for _ in range(QUERIES_PER_TRIPLE)))
                for K, L, N in triples]
        jobs.append(SandwichJob())
    elif workload == "exhaustive":
        if tiny:
            jobs = [SimulateJob("appendix-b", 0, 3, 2, 3, 12, seed),
                    SimulateJob("zero-memory", 0, 3, 1, 3, 8, seed, points_out=True),
                    EntropyJob(3, 2, 5, seed)]
        else:
            jobs = [SimulateJob("appendix-b", i, 3, 2, 3, SCHEME_F, seed * APPENDIX_B_LIBRARIES + i)
                    for i in range(APPENDIX_B_LIBRARIES)]
            jobs.append(SimulateJob("corner-323", 0, 3, 2, 3, SCHEME_F, seed))
            jobs.append(SimulateJob("zero-memory", 0, *ZERO_MEMORY_PARAMS, ZERO_MEMORY_F, seed,
                                    points_out=True))
            jobs += [EntropyJob(K, alphabet, trials, seed) for K, alphabet, trials in ENTROPY_CASES]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


def expected_counts(jobs: list) -> dict[str, int]:
    total = Counter()
    for job in jobs:
        total.update(job.expected())
    return {name: total[name] for name in COUNT_NAMES}
