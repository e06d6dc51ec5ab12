#!/usr/bin/env python3
"""Benchmark for macckit: run one workload as a closed loop and report
end-to-end metrics (or, with --trace 1, per-layer metrics).

    python3 perfbench/run.py --workload figures --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

Run from anywhere; the package is imported from ../src next to this
directory.  One process, one client, no extra threads: each job starts
when the previous one has finished.  The job list is run in passes until
another pass would overrun --seconds (at least one pass; with --trace 1 at
least one untraced and one traced pass, alternating).  Times are reported
in reference seconds: wall time scaled by the machine speed that
gauge.py samples during the run, so that a host that changes speed does
not change the figures.  Outputs are checked after all passes, outside the
timed region.  The last line of standard output is the JSON result; a
readable summary goes to standard error, and the full record (provenance,
samples, work counts) and the trace are written under
perfbench/.work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
DIGESTS = BENCH_DIR / "digests.json"
DEFAULT_SEED = 0
SETUP_PROBES = 15  # fresh interpreters timed per run, after one untimed warm-up

END_TO_END_UNITS = {
    "wall_s": "s",
    "job_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: macckit modules each workload's subcommands use, imported after macckit.cli.
SETUP_MODULES = {
    "figures": ("bounds", "serialize"),
    "certify": ("bounds", "serialize"),
    "exhaustive": ("bounds", "serialize", "schemes", "entropy"),
}

PROBE = """
import json, sys, time
start = time.perf_counter()
import macckit.cli
for name in sys.argv[2:]:
    __import__("macckit." + name)
ready = time.perf_counter()
numpy_loaded = "numpy" in sys.modules
sys.path.insert(0, sys.argv[1])
import gauge
probes = sorted(gauge.probe() for _ in range(25))
print(json.dumps({"import_s": ready - start, "ready": ready, "probe_s": probes[12],
                  "numpy_loaded": numpy_loaded}))
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here (exit 2, no result printed)."""


def import_package():
    """Import macckit from this checkout's src/, never from elsewhere."""
    if not (SRC / "macckit" / "__init__.py").is_file():
        raise BenchError(f"no macckit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import macckit

    if Path(macckit.__file__).resolve().parent != (SRC / "macckit").resolve():
        raise BenchError(f"macckit was imported from {macckit.__file__}, not {SRC}")
    return macckit


def measure_setup(workload: str) -> dict:
    """Median time, in reference seconds, from starting a fresh interpreter
    until it has imported the workload's modules.  Each interpreter then
    times the gauge kernel itself, on whichever CPU it ran."""
    from gauge import REFERENCE_PROBE_S

    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", PROBE, str(BENCH_DIR), *SETUP_MODULES[workload]]
    walls, scaled, imports, numpy_loaded = [], [], [], set()
    for probe in range(SETUP_PROBES + 1):
        start = perf_counter()
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import probe failed: {proc.stderr.strip()}")
        if probe == 0:
            continue  # first import may compile bytecode
        report = json.loads(proc.stdout.splitlines()[-1])
        speed = REFERENCE_PROBE_S / report["probe_s"]
        walls.append(report["ready"] - start)
        scaled.append(walls[-1] * speed)
        imports.append(report["import_s"] * speed)
        numpy_loaded.add(report["numpy_loaded"])
    return {
        "setup_s": statistics.median(scaled),
        "import_s": statistics.median(imports),
        "numpy_loaded": float(any(numpy_loaded)),
        "samples": scaled,
        "wall_samples": walls,
    }


class JobCrash:
    """A job that raised instead of returning; it counts as failed."""

    def __init__(self, text: str):
        self.text = text


def run_pass(jobs, out: Path, tracer=None) -> dict:
    """Run the job list once, in order; returns its span, each job's span
    (start, end) and the per-job results."""
    out.mkdir(parents=True)
    results, spans = [], []
    start = perf_counter()
    for job in jobs:
        job_start = perf_counter()
        try:
            if tracer is None:
                result = job.run(out)
            else:
                tracer.job = job.key
                result = tracer.call("job", job.run, out)
        except Exception:  # a crashed job is a failed job; keep measuring
            result = JobCrash(traceback.format_exc())
        spans.append((job_start, perf_counter()))
        results.append(result)
    end = perf_counter()
    return {"span": (start, end), "raw_wall_s": end - start, "job_spans": spans,
            "results": results, "out": out, "traced": tracer is not None, "tracer": tracer}


def run_passes(macckit, jobs, seconds: float, trace: bool, work: Path) -> list[dict]:
    """Closed loop over passes until the next pass would end after `seconds`,
    with the machine speed gauged throughout; sets each pass's times in
    reference seconds: `wall_s` and per-job `latencies`."""
    from gauge import Gauge

    with Gauge() as gauge:
        passes = _loop(macckit, jobs, seconds, trace, work)
    for p in passes:
        p["wall_s"] = gauge.work(*p["span"])
        p["latencies"] = [gauge.work(*span) for span in p["job_spans"]]
        p["probe_s"] = gauge.probe_time(*p["span"])
    return passes


def _loop(macckit, jobs, seconds: float, trace: bool, work: Path) -> list[dict]:
    from tracer import Tracer

    passes = []
    start = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        tracer = Tracer() if traced else None
        if tracer:
            tracer.install(macckit)
        try:
            passes.append(run_pass(jobs, work / f"pass{len(passes)}", tracer))
        finally:
            if tracer:
                tracer.uninstall()
        if len(passes) == 1:
            # Later passes keep adding results for the checks; how many run
            # depends on machine speed, so memory is read after the first.
            passes[0]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        kinds = {p["traced"] for p in passes}
        if trace and len(kinds) < 2:
            continue
        next_traced = trace and len(passes) % 2 == 1
        estimate = max(p["raw_wall_s"] for p in passes if p["traced"] == next_traced)
        if perf_counter() - start + estimate > seconds:
            return passes


def check_passes(workload, jobs, passes, seed, tiny, expected) -> dict:
    """Verify every job of every pass; compare work counts and output digests."""
    from workloads import COUNT_NAMES, Oracle, Verdict

    oracle = Oracle()
    stored = json.loads(DIGESTS.read_text()).get(_digest_section(workload, tiny), {}) \
        if DIGESTS.is_file() else {}
    problems: list[str] = []
    failed = 0
    first_digests: dict[str, str] = {}
    for index, p in enumerate(passes):
        counts = {name: 0 for name in COUNT_NAMES}
        for job, result in zip(jobs, p["results"]):
            if isinstance(result, JobCrash):
                job_problems = [f"raised:\n{result.text}"]
            else:
                try:
                    verdict = job.verify(p["out"], result, oracle)
                except Exception:  # unreadable or malformed output
                    verdict = Verdict(problems=[f"check raised:\n{traceback.format_exc()}"])
                job_problems = verdict.problems
                for name in COUNT_NAMES:
                    counts[name] += verdict.counts[name]
                for name, data, seeded in verdict.blobs:
                    digest = hashlib.sha256(data).hexdigest()[:16]
                    if first_digests.setdefault(name, digest) != digest:
                        job_problems.append(f"{name}: bytes differ from the first pass")
                    if (not seeded or seed == DEFAULT_SEED) and stored.get(name) != digest:
                        job_problems.append(f"{name}: digest {digest}, stored {stored.get(name)}")
            if job_problems:
                failed += 1
                problems += [f"pass {index} {job.key}: {text}" for text in job_problems]
        if counts != expected:
            problems.append(f"pass {index}: work counts {counts} differ from expected {expected}")
        if p["traced"]:
            traced_counts = p["layers"]["work"]
            if traced_counts != expected:
                problems.append(f"pass {index}: traced work counts {traced_counts} "
                                f"differ from expected {expected}")
    return {"failed": failed, "problems": problems, "digests": first_digests}


def _digest_section(workload: str, tiny: bool) -> str:
    return f"{workload}.tiny" if tiny else workload


def _bytes_out(out: Path) -> int:
    return sum(path.stat().st_size for path in out.iterdir())


def provenance(seed: int, trace: bool, overhead) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "macckit").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "trace": trace,
        "tracing_overhead_frac": overhead,
    }


def tail_percentile(samples: list[float]):
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for name, n in (("p90", 10), ("p99", 100), ("p99.9", 1000)):
        if len(samples) >= 10 * n:
            best = (name, statistics.quantiles(samples, n=n, method="inclusive")[-1])
    return best


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Set up, run the passes, check them, and return the full result record."""
    if workload not in SETUP_MODULES:
        raise BenchError(f"unknown workload {workload!r}; expected one of {', '.join(SETUP_MODULES)}")
    macckit = import_package()
    sys.path.insert(0, str(BENCH_DIR))
    from tracer import LAYER_UNITS, median_metrics
    from workloads import build_jobs, expected_counts

    phase_start = perf_counter()
    setup = measure_setup(workload)
    jobs = build_jobs(workload, seed, tiny)
    expected = expected_counts(jobs)
    work = WORK_DIR / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for job in build_jobs(workload, seed, tiny=True):  # warm-up, untimed and unchecked
            run_pass([job], work / f"warmup-{job.key}")
        passes_start = perf_counter()
        passes = run_passes(macckit, jobs, seconds, trace, work)
        checks_start = perf_counter()
        for p in passes:
            if p["traced"]:
                p["layers"] = p["tracer"].layer_metrics(_bytes_out(p["out"]))
        checked = check_passes(workload, jobs, passes, seed, tiny, expected)
        phases = {"setup_s": passes_start - phase_start, "passes_s": checks_start - passes_start,
                  "checks_s": perf_counter() - checks_start}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    latencies = [x for p in plain for x in p["latencies"]]
    wall = statistics.median(p["wall_s"] for p in plain)
    overhead = statistics.median(p["wall_s"] for p in traced) / wall - 1 if traced else None
    attempted = len(jobs) * len(passes)
    end_to_end = {
        "wall_s": wall,
        "job_p50_s": statistics.median(latencies),
        "setup_s": setup["setup_s"],
        "peak_rss_mb": passes[0]["peak_rss_mb"],
    }
    record = {
        "workload": workload,
        "correct": not checked["problems"],
        "attempted": attempted,
        "failed": checked["failed"],
        "fail_frac": checked["failed"] / attempted,
        "end_to_end": end_to_end,
        "units": {**END_TO_END_UNITS, **LAYER_UNITS},
        "job_samples": len(latencies),
        "job_tail": tail_percentile(latencies),
        "pass_walls": {"untraced": [p["wall_s"] for p in plain], "traced": [p["wall_s"] for p in traced]},
        "raw_pass_walls": {"untraced": [p["raw_wall_s"] for p in plain],
                           "traced": [p["raw_wall_s"] for p in traced]},
        "gauge_probe_s": [p["probe_s"] for p in passes],
        "job_latencies": {job.key: [p["latencies"][i] for p in plain] for i, job in enumerate(jobs)},
        "setup_samples": setup["samples"],
        "raw_setup_samples": setup["wall_samples"],
        "phases": phases,
        "work_counts": expected,
        "problems": checked["problems"][:50],
        "provenance": provenance(seed, trace, overhead),
    }
    if traced:
        layers = median_metrics([p["layers"] for p in traced])
        layers["setup.import_s"] = setup["import_s"]
        layers["setup.numpy_loaded"] = setup["numpy_loaded"]
        layers["trace.overhead_frac"] = overhead
        record["per_layer"] = layers
        record["trace"] = [{"wall_s": p["wall_s"], **p["tracer"].dump()} for p in traced]
    record["digests"] = checked["digests"]
    return record


def result_line(record: dict, trace: bool) -> dict:
    values = record["per_layer"] if trace else record["end_to_end"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": record["units"][name]}
                    for name, value in values.items()},
    }


def save_record(record: dict, seed: int, trace: bool) -> Path:
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{record['workload']}-seed{seed}-trace{int(trace)}"
    spans = record.pop("trace", None)
    if spans is not None:
        (results / f"{stem}.trace.json").write_text(json.dumps(spans))
    path = results / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1))
    return path


def summary(record: dict, trace: bool) -> str:
    lines = [f"workload {record['workload']}: {record['attempted']} jobs attempted, "
             f"{record['failed']} failed (fail_frac {record['fail_frac']:.4g}), "
             f"correct={record['correct']}"]
    metrics = record["per_layer"] if trace else record["end_to_end"]
    for name, value in metrics.items():
        lines.append(f"  {name:32s} {value:14.6g} {record['units'][name]}")
    lines.append(f"  job latency samples: {record['job_samples']}, tail: {record['job_tail']}")
    lines.append(f"  pass walls: {record['pass_walls']}")
    lines.append(f"  phases: {record['phases']}")
    lines += [f"  problem: {text}" for text in record["problems"]]
    return "\n".join(lines)


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process (peak memory is per process); one table."""
    status = 0
    rows = []
    for workload in SETUP_MODULES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            status = 1
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        rows.append((workload, "fail_frac", result["failed"] / result["attempted"], "ratio"))
        rows += [(workload, name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
    for workload, name, value, unit in rows:
        print(f"{workload:11s} {name:32s} {value:14.6g} {unit}")
    return status


def record_digests(workload: str) -> int:
    """Store the output digests of the default seed, full and tiny job lists."""
    stored = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    for tiny in (False, True):
        record = run_workload(workload, DEFAULT_SEED, 0, False, tiny)
        bad = [p for p in record["problems"] if "digest" not in p]
        if bad:
            print("\n".join(bad), file=sys.stderr)
            return 1
        stored[_digest_section(workload, tiny)] = dict(sorted(record["digests"].items()))
    DIGESTS.write_text(json.dumps(stored, indent=0, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="figures, certify, exhaustive or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store output digests for the default seed and exit")
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    try:
        if args.record_digests:
            return record_digests(args.workload)
        if args.workload == "all":
            return run_all(args.seed, args.seconds, trace)
        record = run_workload(args.workload, args.seed, args.seconds, trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = save_record(record, args.seed, trace)
    print(summary(record, trace), file=sys.stderr)
    print(f"  record: {path}", file=sys.stderr)
    print(json.dumps(result_line(record, trace)))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
