"""Command-line front end: bound sweeps, dominance checks, scheme
verification, and entropy test batches.

Exit codes: 0 success, 1 a mathematical check failed, 2 usage or
configuration error (an ``InputError`` from any module), 3 output could
not be written, 4 internal error (traceback on stderr).  Outputs are
deterministic: identical flags and seed produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import traceback
from fractions import Fraction
from pathlib import Path

import macckit

from . import bounds, schemes, serialize
from .params import DEFAULT_TOL, InputError, MaccParams

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

OUTPUT_DIR_ENV = "MACCKIT_OUT_DIR"


def parse_grid(spec: str) -> list[Fraction]:
    """Parse "start:stop:count" with exact rational endpoints."""
    pieces = spec.split(":")
    if len(pieces) != 3:
        raise InputError(f"grid must look like start:stop:count, got {spec!r}")
    try:
        count = int(pieces[2])
    except ValueError as exc:
        raise InputError(f"bad grid {spec!r}: {exc}") from exc
    return bounds.uniform_grid(pieces[0], pieces[1], count)


def parse_families(spec: str) -> list[str]:
    aliases = {alias: f.id for f in bounds.FAMILIES.values() for alias in f.aliases}
    families = []
    for name in spec.split(","):
        name = name.strip()
        family = aliases.get(name, name)
        if family not in bounds.FAMILY_IDS:
            raise InputError(
                f"unknown bound family {name!r}; known: {', '.join(bounds.FAMILY_IDS)}"
            )
        if family not in families:
            families.append(family)
    return families


def _grid_from(args: argparse.Namespace, params: MaccParams) -> list[Fraction]:
    return bounds.default_memory_grid(params) if args.grid is None else parse_grid(args.grid)


def _output_path(args: argparse.Namespace, default_name: str) -> Path:
    if args.out is not None:
        return Path(args.out)
    return Path(os.environ.get(OUTPUT_DIR_ENV, ".")) / default_name


def _write_text(path: Path, write) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as stream:
            write(stream)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_bounds(args: argparse.Namespace) -> int:
    params = MaccParams(K=args.K, L=args.L, N=args.N)
    families = parse_families(args.families)
    grid = _grid_from(args, params)

    curves = [bounds.sweep_curve(params, family, grid) for family in families]
    for curve in curves:
        if not curve.points:
            print(f"note: {bounds.FAMILIES[curve.bound_id].empty_note(params)}", file=sys.stderr)

    path = _output_path(args, f"bounds_K{params.K}_L{params.L}_N{params.N}.{args.format}")
    if args.format == "csv":
        _write_text(path, lambda stream: serialize.write_curves_csv(stream, curves))
    else:
        _write_text(path, lambda stream: serialize.write_curves_json(stream, curves))
    print(f"wrote {sum(len(c.points) for c in curves)} points for "
          f"{len(curves)} families to {path}")
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    params = MaccParams(K=args.K, L=args.L, N=args.N)
    grid = _grid_from(args, params)

    report = bounds.verify_dominance(params, grid)
    path = _output_path(args, f"dominance_K{params.K}_L{params.L}_N{params.N}.json")
    _write_text(path, lambda stream: serialize.write_dominance_report(stream, report.to_dict()))
    if report.ok:
        print(f"dominance holds at all {len(report.entries)} grid points; report: {path}")
        return EXIT_OK
    print(f"{len(report.violations)} dominance violations; report: {path}", file=sys.stderr)
    return EXIT_CHECK_FAILED


def cmd_simulate(args: argparse.Namespace) -> int:
    params = MaccParams(K=args.K, L=args.L, N=args.N)
    scheme = schemes.SCHEMES[args.scheme]()
    library = schemes.FileLibrary.random(params, args.F, args.seed)
    report = schemes.verify_scheme(scheme, library)
    if args.out is not None:
        _write_text(
            Path(args.out),
            lambda stream: serialize.write_simulation_report(stream, report.to_dict()),
        )
    if args.points_out is not None:
        point = (scheme.memory, report.worst_case_rate, scheme.id)
        _write_text(
            Path(args.points_out),
            lambda stream: serialize.write_achievable_points_csv(stream, [point]),
        )
    print(f"scheme {scheme.id}: worst-case rate {serialize.fraction_str(report.worst_case_rate)} "
          f"over {len(report.per_demand)} demand vectors, seed {args.seed}")
    if report.passed:
        return EXIT_OK
    print(f"{len(report.failures)} (demand, user) decode failures", file=sys.stderr)
    return EXIT_CHECK_FAILED


def cmd_entropy_test(args: argparse.Namespace) -> int:
    # conditional first: its K + 1 variables refuse an oversized alphabet
    # before any pmf is drawn; each batch seeds its own RNG, so order is free
    conditional = macckit.entropy.run_conditional_window_batch(
        args.K, args.alphabet, args.trials, args.seed, tol=args.tol
    )
    sliding = macckit.entropy.run_sliding_window_batch(
        args.K, args.alphabet, args.trials, args.seed, tol=args.tol
    )
    if args.out is not None:
        payload = {"sliding": sliding.to_dict(), "conditional": conditional.to_dict()}
        _write_text(Path(args.out), lambda stream: serialize.write_json_report(stream, payload))
    total_failures = len(sliding.failures) + len(conditional.failures)
    print(
        f"entropy checks: {args.trials} trials, min margins "
        f"{sliding.min_margin:.3e} (sliding) / {conditional.min_margin:.3e} (conditional), "
        f"{total_failures} failures"
    )
    return EXIT_OK if total_failures == 0 else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_params(parser: argparse.ArgumentParser, default: tuple[int, int, int] | None) -> None:
    helps = {"K": "number of users and caches", "L": "caches accessed per user", "N": "number of files"}
    for (name, text), value in zip(helps.items(), default or (None,) * 3):
        parser.add_argument(f"--{name}", type=int, required=default is None, default=value, help=text)


@functools.cache  # parsing keeps no state on the parser, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macckit",
        description="Rate-memory lower bounds and scheme simulation for "
        "multi-access coded caching networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="sweep bound families over a memory grid")
    _add_params(p, None)
    names = [*(family.aliases[0] for family in bounds.FAMILIES.values()), bounds.BEST]
    p.add_argument(
        "--families",
        default=",".join(names),
        help=f"comma-separated families (aliases: {', '.join(names)})",
    )
    p.add_argument("--grid", default=None, help="memory grid start:stop:count, e.g. 0:3/2:151")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help=f"output path (default under ${OUTPUT_DIR_ENV} or .)")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("compare", help="verify bound dominance relations on a grid")
    _add_params(p, None)
    p.add_argument("--grid", default=None, help="memory grid start:stop:count")
    p.add_argument("--out", default=None, help="report path")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("simulate", help="exhaustively verify a scheme on a random library")
    p.add_argument("--scheme", required=True, choices=tuple(schemes.SCHEMES))
    p.add_argument("--F", type=int, default=12, help="bits per file")
    p.add_argument("--seed", type=int, default=0, help="library fill seed")
    _add_params(p, (3, 2, 3))
    p.add_argument("--out", default=None, help="verification report path (JSON)")
    p.add_argument("--points-out", default=None, help="achievable (M, R) CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("entropy-test", help="batch sliding-window entropy checks")
    p.add_argument("--K", type=int, default=3, help="number of window variables")
    p.add_argument("--alphabet", type=int, default=2, help="alphabet size per variable")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--out", default=None, help="report path (JSON)")
    p.set_defaults(func=cmd_entropy_test)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception:  # a bug, not bad input: keep the traceback
        traceback.print_exc()
        return EXIT_INTERNAL


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
