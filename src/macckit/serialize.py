"""Exact-fraction serialization and the CSV/JSON export formats.

Every rational is written as an exact fraction string ("7/3"), which parses
back to the identical value, plus a 12-significant-digit decimal for plotting
convenience.  Exports clamp negative bound values at zero; the in-memory
curves keep the raw values.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import asdict
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import IO, Iterator, Sequence

CURVE_CSV_HEADER = ("M", "R", "family", "witness", "M_decimal", "R_decimal")
POINTS_CSV_HEADER = ("M", "R", "scheme_id")
_ROWS = "\x00rows"  # stands in for a report's rows while the rest is encoded
# one row of a top-level list as json.dump(..., indent=2) lays it out: a
# simulation report's per_demand row and a dominance report's point
_ROW = '{\n      "d": [\n        %s\n      ],\n      "rate": "%s",\n      "pass": %s\n    }'
_POINT = (
    '{\n      "M": "%s",\n      "improved_thm2": "%s",\n      "cutset_thm1": "%s",\n'
    '      "hkd2_lemma3": "%s",\n      "improved_vs_cutset_checked": %s,\n'
    '      "improved_margin": "%s",\n      "cutset_margin": "%s"\n    }'
)


def fraction_str(x: Fraction) -> str:
    """Exact fraction string: "7/3", integers without a denominator."""
    return str(x)


def decimal_str(x: Fraction) -> str:
    """12-significant-digit decimal approximation.  A non-zero value beyond
    the float range at either end (below sys.float_info.min floats lose
    digits) is divided out in decimal.Decimal instead, in the same layout."""
    try:
        value = float(x)
    except OverflowError:
        value = math.inf
    if not x or sys.float_info.min <= abs(value) < math.inf:
        return f"{value:.12g}"
    with localcontext() as context:
        context.prec = 12
        return f"{(Decimal(x.numerator) / x.denominator).normalize():.12g}"


def witness_str(witness: dict) -> str:
    """Compact witness encoding: "s=1;l=2" (insertion order preserved)."""
    return ";".join(f"{key}={value}" for key, value in witness.items())


def clamp(x: Fraction) -> Fraction:
    return x if x >= 0 else Fraction(0)


def curve_rows(curve) -> list[dict]:
    """Display rows for one bounds.BoundCurve: R clamped at zero, both
    serializations."""
    rows = []
    for point in curve.points:
        r = clamp(point.R)
        rows.append(
            {
                "M": fraction_str(point.M),
                "R": fraction_str(r),
                "family": curve.bound_id,
                "witness": witness_str(point.witness),
                "M_decimal": decimal_str(point.M),
                "R_decimal": decimal_str(r),
            }
        )
    return rows


def write_curves_csv(stream: IO[str], curves: Sequence) -> None:
    writer = csv.DictWriter(stream, fieldnames=CURVE_CSV_HEADER, lineterminator="\n")
    writer.writeheader()
    for curve in curves:
        writer.writerows(curve_rows(curve))


def write_curves_json(stream: IO[str], curves: Sequence) -> None:
    """One entry per curve: params, family, points, then the search caps."""
    entries = [
        {"params": asdict(c.params), "family": c.bound_id, "points": curve_rows(c), **c.caps}
        for c in curves
    ]
    json.dump({"curves": entries}, stream, indent=2)
    stream.write("\n")


def write_achievable_points_csv(
    stream: IO[str], points: Sequence[tuple[Fraction, Fraction, str]]
) -> None:
    """Achievable (M, R) pairs with the scheme that realizes each."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(POINTS_CSV_HEADER)
    for m, r, scheme_id in points:
        writer.writerow((fraction_str(m), fraction_str(r), scheme_id))


def write_json_report(stream: IO[str], payload: dict) -> None:
    # inf and nan are not JSON; refuse them rather than write an unreadable report
    json.dump(payload, stream, indent=2, allow_nan=False)
    stream.write("\n")


def _write_rows(stream: IO[str], payload: dict, key: str, rows: Iterator[str]) -> None:
    """payload as write_json_report writes it, with the rows of its top-level
    list payload[key] written from their template text instead of json's
    encoder."""
    first = next(rows, None)
    if first is None:  # an empty list has no row to stand in for
        write_json_report(stream, payload)
        return
    text = json.dumps({**payload, key: [_ROWS]}, indent=2, allow_nan=False)
    head, tail = text.split(json.dumps(_ROWS))
    stream.write(head + first)
    stream.writelines(",\n    " + row for row in rows)
    stream.write(tail + "\n")


def write_simulation_report(stream: IO[str], payload: dict) -> None:
    """A VerificationReport.to_dict(), as write_json_report writes it."""
    rows = (
        _ROW % (",\n        ".join(map(str, row["d"])), row["rate"], "true" if row["pass"] else "false")
        for row in payload["per_demand"]
    )
    _write_rows(stream, payload, "per_demand", rows)


def write_dominance_report(stream: IO[str], payload: dict) -> None:
    """A DominanceReport.to_dict(), as write_json_report writes it."""
    rows = (
        _POINT % (
            p["M"], p["improved_thm2"], p["cutset_thm1"], p["hkd2_lemma3"],
            "true" if p["improved_vs_cutset_checked"] else "false",
            p["improved_margin"], p["cutset_margin"],
        )
        for p in payload["points"]
    )
    _write_rows(stream, payload, "points", rows)
