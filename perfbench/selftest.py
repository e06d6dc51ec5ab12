#!/usr/bin/env python3
"""Self-test of the benchmark harness at a tiny size.

    python3 perfbench/selftest.py

For each workload it runs the tiny job list (one to three small jobs)
untraced and traced, and checks that every metric BENCHMARK.json names is
emitted with its unit and that the untouched outputs pass.  It then
corrupts every CLI output file after it is written and checks that each
corrupted job is counted as failed, and finally that the benchmark exits
non-zero, printing no result, in a directory without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run


def _spec_units(kind: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def check_metrics() -> None:
    for kind, trace in (("end_to_end", False), ("per_layer", True)):
        wanted = _spec_units(kind)
        for workload in run.SETUP_MODULES:
            record = run.run_workload(workload, run.DEFAULT_SEED, 0, trace, tiny=True)
            line = run.result_line(record, trace)
            assert line["correct"] and line["failed"] == 0, (workload, record["problems"])
            got = {name: metric["unit"] for name, metric in line["metrics"].items()}
            assert got == wanted, (workload, kind, set(got) ^ set(wanted))
            assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
            print(f"ok   {workload:10s} emits all {len(wanted)} {kind} metrics with units")


def check_corruption_counts_as_failure() -> None:
    run.import_package()
    from macckit import cli

    original = cli.main

    def corrupting_main(argv):
        rc = original(argv)
        for flag in ("--out", "--points-out"):
            if flag in argv:
                path = Path(argv[argv.index(flag) + 1])
                path.write_bytes(path.read_bytes().replace(b"1", b"7", 1))
        return rc

    cli.main = corrupting_main
    try:
        for workload in run.SETUP_MODULES:
            record = run.run_workload(workload, run.DEFAULT_SEED, 0, False, tiny=True)
            assert not record["correct"], workload
            assert record["failed"] >= 1 and record["fail_frac"] > 0, (workload, record["failed"])
            print(f"ok   {workload:10s} corrupted outputs: failed {record['failed']} of "
                  f"{record['attempted']} jobs, fail_frac {record['fail_frac']:.3g}")
    finally:
        cli.main = original


def check_refuses_without_sources() -> None:
    bare = run.WORK_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "figures", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok   without src/ the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    check_metrics()
    check_corruption_counts_as_failure()
    check_refuses_without_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
