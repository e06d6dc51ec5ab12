import csv
import io
import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macckit import (
    CacheContents,
    FileLibrary,
    MaccParams,
    scheme_appendix_b,
    scheme_full_access_corner_323,
    scheme_zero_memory,
    sweep_curve,
    uniform_grid,
    verify_scheme,
)
from macckit.serialize import (
    CURVE_CSV_HEADER,
    clamp,
    curve_rows,
    decimal_str,
    fraction_str,
    witness_str,
    write_achievable_points_csv,
    write_curves_csv,
    write_curves_json,
    write_json_report,
    write_simulation_report,
)

P323 = MaccParams(3, 2, 3)


@settings(max_examples=300, deadline=None)
@given(st.fractions(max_denominator=10**9))
def test_fraction_string_round_trip(x):
    assert F(fraction_str(x)) == x


def test_fraction_formats():
    assert fraction_str(F(7, 3)) == "7/3"
    assert fraction_str(F(3)) == "3"
    assert fraction_str(F(-2, 5)) == "-2/5"
    assert decimal_str(F(7, 3)) == "2.33333333333"
    assert decimal_str(F(1, 2)) == "0.5"
    # beyond the float range the 12 digits come from decimal.Decimal, in float's layout
    assert decimal_str(F(10**308)) == "1e+308"
    assert decimal_str(F(10**309, 7)) == "1.42857142857e+308"
    assert decimal_str(F(2 * 10**400, 3)) == "6.66666666667e+399"
    assert decimal_str(F(15 * 10**399)) == "1.5e+400"
    assert decimal_str(F(-(10**400))) == "-1e+400"


def test_decimals_below_float_range():
    # below the smallest normal float a float rounds to 0 or loses digits, so
    # the 12 digits come from decimal.Decimal too
    assert decimal_str(F(1, 10**400)) == "1e-400"
    assert decimal_str(F(-1, 10**400)) == "-1e-400"
    assert decimal_str(F(3, 10**320)) == "3e-320"
    assert decimal_str(F(2, 3 * 10**330)) == "6.66666666667e-331"
    assert decimal_str(F(1, 10**300)) == "1e-300"
    assert decimal_str(F(0)) == "0"


def test_witness_encoding():
    assert witness_str({"s": 1, "l": 2}) == "s=1;l=2"
    assert witness_str({"family": "best", "s": 3}) == "family=best;s=3"


def test_clamp():
    assert clamp(F(-1, 3)) == 0
    assert clamp(F(1, 3)) == F(1, 3)


def test_curve_rows_clamp_for_display():
    curve = sweep_curve(P323, "cutset_thm1", [F(1), F(2)])
    raw = [pt.R for pt in curve.points]
    assert raw[1] < 0  # unclamped value retained internally
    rows = curve_rows(curve)
    assert rows[1]["R"] == "0"


def test_csv_schema_and_round_trip():
    grid = uniform_grid(0, F(3, 2), 7)
    curves = [sweep_curve(P323, fam, grid) for fam in ("cutset_thm1", "improved_thm2")]
    stream = io.StringIO()
    write_curves_csv(stream, curves)
    reader = csv.DictReader(io.StringIO(stream.getvalue()))
    assert tuple(reader.fieldnames) == CURVE_CSV_HEADER
    rows = list(reader)
    assert len(rows) == 14
    for row in rows:
        m, r = F(row["M"]), F(row["R"])
        assert fraction_str(m) == row["M"] and fraction_str(r) == row["R"]
        assert abs(float(m) - float(row["M_decimal"])) < 1e-9


def test_json_export_records_lemma2_cap():
    curves = [sweep_curve(MaccParams(10, 3, 10), "hkd_lemma2", [F(0), F(1)])]
    stream = io.StringIO()
    write_curves_json(stream, curves)
    payload = json.loads(stream.getvalue())
    assert payload["curves"][0]["b_cap"] == 10
    assert payload["curves"][0]["points"][0]["R"] == "3/2"


def test_achievable_points_csv():
    stream = io.StringIO()
    write_achievable_points_csv(stream, [(F(2, 3), F(1), "appendix-b")])
    assert stream.getvalue() == "M,R,scheme_id\n2/3,1,appendix-b\n"


def test_json_report_refuses_non_finite_numbers():
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            write_json_report(io.StringIO(), {"min_margin": value})


def _report_payload(monkeypatch, scheme, params, F, corrupt):
    library = FileLibrary.random(params, F, seed=5)
    caches = scheme.place(library)
    if corrupt:  # flip one bit of cache 1 so some users fail to decode
        flipped = bytes([caches.caches[0][0] ^ 1]) + caches.caches[0][1:]
        caches = CacheContents(params, caches.M, F, (flipped,) + caches.caches[1:])
        monkeypatch.setattr(scheme, "place", lambda library: caches)
    return verify_scheme(scheme, library).to_dict()


@pytest.mark.parametrize(
    "scheme, params, F, corrupt",
    [
        (scheme_appendix_b(), P323, 12, False),
        (scheme_appendix_b(), P323, 12, True),
        (scheme_full_access_corner_323(), P323, 6, True),
        (scheme_zero_memory(), MaccParams(4, 2, 4), 8, False),
        (scheme_zero_memory(), MaccParams(1, 1, 1), 1, False),
    ],
)
def test_streamed_rows_equal_json_dump(monkeypatch, scheme, params, F, corrupt):
    payload = _report_payload(monkeypatch, scheme, params, F, corrupt)
    assert bool(payload["failures"]) == corrupt
    streamed = io.StringIO()
    write_simulation_report(streamed, payload)
    assert streamed.getvalue() == json.dumps(payload, indent=2, allow_nan=False) + "\n"
