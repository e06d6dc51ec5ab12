"""CLI contract tests: flags, file outputs, exit-code discipline, determinism."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import macckit
from macckit.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_families,
    parse_grid,
)
from macckit.params import InputError


def run_cli(*argv):
    return main(list(argv))


class TestBoundsCommand:
    def test_csv_sweep_hits_exact_points(self, tmp_path):
        out = tmp_path / "curves.csv"
        code = run_cli(
            "bounds", "--K", "3", "--L", "2", "--N", "3",
            "--families", "cutset,improved", "--grid", "0:3/2:151",
            "--format", "csv", "--out", str(out),
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 302
        improved = {row["M"]: row["R"] for row in rows if row["family"] == "improved_thm2"}
        assert improved["1"] == "1/3"
        assert improved["3/2"] == "0"

    def test_csv_sweep_through_kink_memory(self, tmp_path):
        # step 1/6 puts the M = 2/3 kink exactly on the grid
        out = tmp_path / "curves.csv"
        code = run_cli(
            "bounds", "--K", "3", "--L", "2", "--N", "3",
            "--families", "improved", "--grid", "0:3/2:10",
            "--format", "csv", "--out", str(out),
        )
        assert code == EXIT_OK
        improved = {row["M"]: row["R"] for row in csv.DictReader(out.read_text().splitlines())}
        assert improved["2/3"] == "1"

    def test_default_families_include_all(self, tmp_path):
        out = tmp_path / "curves.csv"
        code = run_cli(
            "bounds", "--K", "10", "--L", "3", "--N", "10",
            "--grid", "0:10/3:11", "--out", str(out),
        )
        assert code == EXIT_OK
        families = {row["family"] for row in csv.DictReader(out.read_text().splitlines())}
        assert families == {"cutset_thm1", "improved_thm2", "hkd_lemma2", "hkd2_lemma3", "best"}

    def test_figure_setting_20_5_20(self, tmp_path):
        out = tmp_path / "curves.json"
        code = run_cli(
            "bounds", "--K", "20", "--L", "5", "--N", "20",
            "--grid", "0:4:41", "--format", "json", "--out", str(out),
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert len(payload["curves"]) == 5

    def test_invalid_params_exit_2(self, tmp_path):
        code = run_cli("bounds", "--K", "2", "--L", "3", "--N", "2",
                       "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_USAGE

    def test_unknown_flag_exit_2(self):
        assert run_cli("bounds", "--definitely-not-a-flag") == EXIT_USAGE

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["bounds", "--K", "3", "--L", "2", "--N", "3", "--grid", "0:3/2:31"]
        assert run_cli(*argv, "--out", str(a)) == EXIT_OK
        assert run_cli(*argv, "--out", str(b)) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_beyond_float_range(self, tmp_path, fmt):
        # cutset has min(K, N) terms, so a 400-digit N is cheap; its memories
        # pass float's range and are written as Decimal-computed decimals
        out = tmp_path / f"curves.{fmt}"
        code = run_cli("bounds", "--K", "2", "--L", "1", "--N", "9" * 400,
                       "--families", "cutset", "--format", fmt, "--out", str(out))
        assert code == EXIT_OK
        if fmt == "csv":
            rows = list(csv.DictReader(out.read_text().splitlines()))
        else:
            (curve,) = json.loads(out.read_text())["curves"]
            rows = curve["points"]
        assert len(rows) == 101
        assert (rows[0]["M_decimal"], rows[-1]["M_decimal"], rows[-1]["R_decimal"]) == ("0", "1e+400", "0")

    def test_out_dir_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MACCKIT_OUT_DIR", str(tmp_path))
        code = run_cli("bounds", "--K", "3", "--L", "2", "--N", "3", "--grid", "0:1:3")
        assert code == EXIT_OK
        assert (tmp_path / "bounds_K3_L2_N3.csv").exists()


class TestCompareCommand:
    def test_dominance_holds_10_7_10(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli("compare", "--K", "10", "--L", "7", "--N", "10",
                       "--grid", "0:10/7:51", "--out", str(out))
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["violations"] == []
        assert len(payload["points"]) == 51

    def test_report_carries_margins(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli("compare", "--K", "3", "--L", "2", "--N", "3",
                       "--out", str(out)) == EXIT_OK
        point = json.loads(out.read_text())["points"][0]
        assert {"M", "improved_margin", "cutset_margin"} <= set(point)

    def test_malformed_grid_exit_2(self, tmp_path):
        assert run_cli("compare", "--K", "3", "--L", "2", "--N", "3",
                       "--grid", "0..1..5", "--out", str(tmp_path / "r.json")) == EXIT_USAGE
        assert run_cli("compare", "--K", "3", "--L", "2", "--N", "3",
                       "--grid", "0:3/2:1", "--out", str(tmp_path / "r.json")) == EXIT_USAGE

    def test_io_failure_exit_3(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir" / "r.json"
        assert run_cli("compare", "--K", "3", "--L", "2", "--N", "3",
                       "--out", str(missing)) == EXIT_IO
        assert capsys.readouterr().err.startswith(f"error: cannot write {missing}: ")

    def test_violation_exit_1(self, tmp_path, monkeypatch):
        import dataclasses

        import macckit.bounds as bounds

        improved = bounds.FAMILIES["improved_thm2"]

        def lowered(params, **witness):
            intercept, slope = improved.coeffs(params, **witness)
            return intercept - 1, slope

        monkeypatch.setitem(
            bounds.FAMILIES, "improved_thm2", dataclasses.replace(improved, coeffs=lowered)
        )
        out = tmp_path / "report.json"
        assert run_cli("compare", "--K", "3", "--L", "2", "--N", "3",
                       "--grid", "0:3:7", "--out", str(out)) == EXIT_CHECK_FAILED
        violations = json.loads(out.read_text())["violations"]
        assert violations and {v["check"] for v in violations} == {"improved_vs_cutset"}
        # only grid points up to N/L = 3/2 are checked for improved >= cutset
        assert [v["M"] for v in violations] == ["0", "1/2", "1", "3/2"]


class TestSimulateCommand:
    def test_coded_scheme_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli("simulate", "--scheme", "appendix-b", "--F", "12",
                       "--seed", "7", "--out", str(out))
        assert code == EXIT_OK
        assert "worst-case rate 1" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["worst_case_rate"] == "1"
        assert payload["seed"] == 7
        assert all(entry["pass"] for entry in payload["per_demand"])

    def test_corner_scheme_rate_zero(self, capsys):
        assert run_cli("simulate", "--scheme", "corner-323", "--F", "12") == EXIT_OK
        assert "worst-case rate 0" in capsys.readouterr().out

    def test_zero_memory_scheme_on_custom_params(self, capsys):
        code = run_cli("simulate", "--scheme", "zero-memory",
                       "--K", "5", "--L", "2", "--N", "3", "--F", "6")
        assert code == EXIT_OK
        assert "worst-case rate 3" in capsys.readouterr().out

    def test_bad_subpacketization_exit_2(self):
        assert run_cli("simulate", "--scheme", "appendix-b", "--F", "10") == EXIT_USAGE

    def test_fixed_scheme_rejects_other_params(self):
        assert run_cli("simulate", "--scheme", "appendix-b", "--K", "4", "--L", "2",
                       "--N", "3", "--F", "12") == EXIT_USAGE

    def test_points_export(self, tmp_path):
        out = tmp_path / "points.csv"
        assert run_cli("simulate", "--scheme", "corner-323", "--F", "12",
                       "--points-out", str(out)) == EXIT_OK
        assert out.read_text() == "M,R,scheme_id\n3/2,0,corner-323\n"

    def test_failure_exit_code(self, monkeypatch):
        # a doctored report exercises the exit-1 path without corrupting state
        import macckit.cli as cli
        import macckit.schemes as schemes

        real = schemes.verify_scheme

        def sabotaged(scheme, library):
            report = real(scheme, library)
            return schemes.VerificationReport(
                scheme_id=report.scheme_id, params=report.params, F=report.F,
                seed=report.seed, worst_case_rate=report.worst_case_rate,
                per_demand=report.per_demand, failures=(((1, 1, 1), 1),),
            )

        monkeypatch.setattr(cli.schemes, "verify_scheme", sabotaged)
        assert run_cli("simulate", "--scheme", "appendix-b", "--F", "12") == EXIT_CHECK_FAILED


class TestEntropyCommand:
    def test_batches_pass(self, tmp_path):
        out = tmp_path / "entropy.json"
        code = run_cli("entropy-test", "--K", "3", "--alphabet", "2",
                       "--trials", "100", "--seed", "1", "--out", str(out))
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["sliding"]["failures"] == []
        assert payload["conditional"]["failures"] == []

    def test_zero_trials_exit_2(self):
        assert run_cli("entropy-test", "--trials", "0") == EXIT_USAGE

    def test_non_finite_tolerance_exit_2(self):
        for tol in ("nan", "inf"):
            assert run_cli("entropy-test", "--trials", "1", "--tol", tol) == EXIT_USAGE

    def test_oversized_conditional_alphabet_refused_before_sliding_batch(self, monkeypatch):
        # 2^16 outcomes fit MAX_OUTCOMES, but the conditional batch's 2^17 do not
        def ran(*args, **kwargs):
            raise RuntimeError("sliding batch ran before the refusal")

        monkeypatch.setattr(macckit.entropy, "run_sliding_window_batch", ran)
        assert run_cli("entropy-test", "--K", "16", "--alphabet", "2", "--trials", "3") == EXIT_USAGE

    def test_deterministic_reports(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["entropy-test", "--K", "3", "--alphabet", "2", "--trials", "20", "--seed", "9"]
        assert run_cli(*argv, "--out", str(a)) == EXIT_OK
        assert run_cli(*argv, "--out", str(b)) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


class TestParsers:
    def test_grid_parsing(self):
        grid = parse_grid("0:3/2:4")
        assert [str(m) for m in grid] == ["0", "1/2", "1", "3/2"]
        with pytest.raises(ValueError):
            parse_grid("0:1")
        with pytest.raises(ValueError):
            parse_grid("0:1:0")
        with pytest.raises(ValueError):
            parse_grid("a:b:c")

    def test_grid_endpoints_are_read_by_as_memory(self):
        for spec, message in (("0:1/0:3", "'1/0' is not a rational"), ("x:1:3", "'x' is not a rational")):
            with pytest.raises(InputError, match=message):
                parse_grid(spec)

    def test_family_aliases(self):
        assert parse_families("cutset,improved") == ["cutset_thm1", "improved_thm2"]
        assert parse_families("hkd_lemma2,best") == ["hkd_lemma2", "best"]
        with pytest.raises(ValueError):
            parse_families("cutset,nonsense")

    def test_help_exits_zero(self):
        assert run_cli("--help") == EXIT_OK


#: Inputs the package refuses; each must exit EXIT_USAGE whichever check
#: catches it (CLI, params, bounds, schemes or entropy).
REFUSED = [
    ("bounds", "--K", "3", "--L", "2", "--N", "3", "--grid=-1:1:5"),
    ("bounds", "--K", "3", "--L", "2", "--N", "3", "--families", ""),
    ("compare", "--K", "3", "--L", "2", "--N", "3", "--grid", "0:4:5"),
    ("simulate", "--scheme", "zero-memory", "--F", "0"),
    ("simulate", "--scheme", "appendix-b", "--seed", "-1"),
    ("entropy-test", "--seed", "-1", "--trials", "2"),
    ("entropy-test", "--K", "20", "--alphabet", "2", "--trials", "1"),
    ("entropy-test", "--tol", "-1", "--trials", "1"),
    ("entropy-test", "--K", "1"),
    ("entropy-test", "--alphabet", "1"),
]


@pytest.mark.parametrize("argv", REFUSED, ids=[" ".join(argv) for argv in REFUSED])
def test_refused_input_exits_usage(tmp_path, argv, capsys):
    assert run_cli(*argv, "--out", str(tmp_path / "out")) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "flag, message", [("--K", "K must be >= 2, got 1"), ("--alphabet", "alphabet must be >= 2, got 1")]
)
def test_vacuous_entropy_batch_message(flag, message, capsys):
    assert run_cli("entropy-test", flag, "1") == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("exc", [ValueError, KeyError])
def test_internal_error_exits_internal(monkeypatch, capsys, exc):
    # a bug inside the library is neither bad input nor an I/O failure
    import macckit.cli as cli

    def broken(*args):
        raise exc("injected")

    monkeypatch.setattr(cli.bounds, "sweep_curve", broken)
    assert run_cli("bounds", "--K", "3", "--L", "2", "--N", "3", "--grid", "0:1:3") == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "Traceback (most recent call last)" in err
    assert f"{exc.__name__}: " in err


def test_console_script_exits_with_the_code_of_main(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["macckit", "simulate", "--scheme", "appendix-b", "--F", "10"])
    with pytest.raises(SystemExit) as exited:
        macckit.cli.run()
    assert exited.value.code == EXIT_USAGE


def _child(*argv, cwd=None):
    """Run a fresh interpreter that imports the same package this suite tests."""
    src = str(Path(macckit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, cwd=cwd,
        env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )


def test_module_entry_point_exit_code():
    proc = _child("-m", "macckit.cli", "simulate", "--scheme", "appendix-b", "--F", "10")
    assert proc.returncode == EXIT_USAGE
    assert "needs F divisible by 3" in proc.stderr


NUMPY_PROBE = """
import json, sys
import macckit, macckit.cli as cli
loaded = []
for argv in (["bounds", "--K", "3", "--L", "2", "--N", "3"], ["compare", "--K", "3", "--L", "2", "--N", "3"],
             ["simulate", "--scheme", "appendix-b"], ["entropy-test", "--trials", "2"]):
    assert cli.main(argv) == cli.EXIT_OK, argv
    loaded.append("numpy" in sys.modules)
print(json.dumps(loaded))
"""


def test_numpy_loads_only_for_entropy_checks(tmp_path):
    # the bound and scheme paths are exact and pure stdlib, so they never pay for numpy
    proc = _child("-c", NUMPY_PROBE, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [False, False, False, True]


#: sha256 of output files at fixed flags.  The bound, dominance, scheme and
#: entropy code may be restructured freely, but these bytes (values,
#: witnesses and their first-in-order tie-breaks, b_cap, key order) must not
#: change.
GOLDEN_OUTPUTS = [
    (("bounds", "--K", "20", "--L", "5", "--N", "20"),
     "747b37e3609355f7456dae536213d02b70df51a93ddc0cecda46eb7f65805dc4"),
    (("bounds", "--K", "10", "--L", "7", "--N", "10"),
     "121633b3e976291517a547a95b1c18c1d647249050c24960419a97a5fc25d1d0"),
    (("bounds", "--K", "10", "--L", "6", "--N", "10"),
     "c7d2f16f6f30b877cb0c40a776056549cf90ae52c0dc65cd42dcaa347c05f4d7"),
    (("bounds", "--K", "11", "--L", "3", "--N", "11"),
     "b257c995a23201114d5ffba9f86db2d5f06b4545bb91401942a539256b3dcca0"),
    (("bounds", "--K", "10", "--L", "3", "--N", "10"),
     "7d505c07f0dbb310d88694b2a2d6d441d8788b2aeeaef9b8990b26e8327152d1"),
    (("bounds", "--K", "10", "--L", "3", "--N", "10", "--format", "json"),
     "82135e0dd5c99f49a8d55d378d8e8ec6d7c9c2ab525f0e69a857123be2bfd193"),
    (("bounds", "--K", "100", "--L", "10", "--N", "100", "--format", "json"),
     "3bf5f94cce064c9ef0ddd565f774f3ee516f8b4697241b72156c3f4554f4692f"),
    (("compare", "--K", "10", "--L", "7", "--N", "10"),
     "f911e8c4f199f923ff8980d9048e5d0f7fd7863354331be1518ce7a3b1677a4b"),
    (("simulate", "--scheme", "appendix-b", "--seed", "7"),
     "e1ec4cf4db75816348c1db62b65c772e6ec34c7fe98e3544cbbff5a364142013"),
    (("simulate", "--scheme", "zero-memory", "--K", "4", "--L", "2", "--N", "4", "--F", "8",
      "--seed", "3"),
     "f6c15c8cd93a36d6ed28c0ece04f8167ee44005e7adc965f4659d597ece75efc"),
    (("entropy-test", "--K", "3", "--alphabet", "2", "--trials", "200", "--seed", "1"),
     "f62f4e3b80ba69b0a2e13d72c06688f69fc69a5eb14655bcdd757051bb484f31"),
    (("entropy-test", "--K", "4", "--alphabet", "3", "--trials", "50", "--seed", "2"),
     "c11fdaec1ff0e365a9793d8abe7a5cfc5621e5275fd6224ab1810de9e783ffa2"),
]


@pytest.mark.parametrize(
    "argv,digest", GOLDEN_OUTPUTS, ids=["-".join(argv) for argv, _ in GOLDEN_OUTPUTS]
)
def test_golden_output_bytes(tmp_path, argv, digest):
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", str(out)) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
