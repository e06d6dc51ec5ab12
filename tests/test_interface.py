"""Pin the public interface that must not drift: the package's exported
names, the CLI exit codes, and every subcommand's arguments.

The --help text is left out on purpose: its layout depends on the Python
version and the terminal width, while the argument table below does not.
"""

import argparse

import macckit
from macckit import cli

EXPORTS = [
    "ACHIEVABLE_POINTS_323", "BoundCurve", "BoundPoint", "CacheContents", "DominanceReport",
    "FAMILY_IDS", "FileLibrary", "JointPmf", "MaccParams", "Rational", "Scheme",
    "SubpacketizationError", "Transmission", "VerificationReport", "access_window",
    "all_demand_vectors", "best_lower_bound", "check_conditional_window",
    "check_sliding_window", "cutset_bound", "cyclic_index", "default_memory_grid",
    "hkd2_lemma3_bound", "hkd_lemma2_bound", "improved_bound", "lower_convex_envelope",
    "marginal_entropy", "memory_share", "optimal_tradeoff_323",
    "run_conditional_window_batch", "run_sliding_window_batch", "scheme_appendix_b",
    "scheme_full_access_corner_323", "scheme_zero_memory", "sweep_curve",
    "uncoded_threshold_gap", "uniform_grid", "verify_dominance", "verify_scheme",
    "window_entropy_sum",
]

HELP = (("-h", "--help"), "help", argparse.SUPPRESS, False, None, None)


def _params(required, defaults=(None, None, None)):
    return [
        ((f"--{name}",), name, default, required, None, int)
        for name, default in zip("KLN", defaults)
    ]


#: (option_strings, dest, default, required, choices, type) per subcommand
ARGUMENTS = {
    "bounds": [
        HELP,
        *_params(required=True),
        (("--families",), "families", "cutset,improved,hkd,hkd2,best", False, None, None),
        (("--grid",), "grid", None, False, None, None),
        (("--format",), "format", "csv", False, ("csv", "json"), None),
        (("--out",), "out", None, False, None, None),
    ],
    "compare": [
        HELP,
        *_params(required=True),
        (("--grid",), "grid", None, False, None, None),
        (("--out",), "out", None, False, None, None),
    ],
    "simulate": [
        HELP,
        (("--scheme",), "scheme", None, True, ("appendix-b", "corner-323", "zero-memory"), None),
        (("--F",), "F", 12, False, None, int),
        (("--seed",), "seed", 0, False, None, int),
        *_params(required=False, defaults=(3, 2, 3)),
        (("--out",), "out", None, False, None, None),
        (("--points-out",), "points_out", None, False, None, None),
    ],
    "entropy-test": [
        HELP,
        (("--K",), "K", 3, False, None, int),
        (("--alphabet",), "alphabet", 2, False, None, int),
        (("--trials",), "trials", 100, False, None, int),
        (("--seed",), "seed", 0, False, None, int),
        (("--tol",), "tol", 1e-9, False, None, float),
        (("--out",), "out", None, False, None, None),
    ],
}


def test_exports():
    assert sorted(macckit.__all__) == EXPORTS


def test_exit_codes():
    codes = (cli.EXIT_OK, cli.EXIT_CHECK_FAILED, cli.EXIT_USAGE, cli.EXIT_IO, cli.EXIT_INTERNAL)
    assert codes == (0, 1, 2, 3, 4)


def test_subcommand_arguments():
    (subparsers,) = [
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    found = [
        (name, [
            (tuple(a.option_strings), a.dest, a.default, a.required, a.choices, a.type)
            for a in parser._actions
        ])
        for name, parser in subparsers.choices.items()
    ]
    assert found == list(ARGUMENTS.items())  # subcommand order too
