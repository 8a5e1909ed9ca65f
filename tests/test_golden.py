"""Byte-exact golden reports.

Each digest is the sha256 of ``json.dumps(analyze_datum(datum, action),
indent=2, sort_keys=True) + "\\n"`` for a stock fixture at its default chart
windows.  Any change to the analysis layer must reproduce them exactly.
``DATUMS`` pins the builder's output at windows the reports do not reach:
13 (odd, and 1 mod 3) and 80.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from ellprym.builder import bielliptic_spec, build_cover, pirola_spec
from ellprym.cli import analyze_datum
from ellprym.covering import datum_to_json, reparametrized
from ellprym.series import TruncatedSeries

GOLDEN = {
    "pirola": (5204, "635a55599808503312ff08adc9e333e1"
                     "25a6c433bf92c609506784e2f0646ab5"),
    "bielliptic4": (4023, "f1c8bba09ed0fafc3b2e2c95d5f6b5b0"
                          "5370222f2a4880d14138294bfca39a94"),
    "bielliptic3": (3642, "8bf79ca545f78dc4c4e59ee52ab6b9f9"
                          "8c50c03a1f60fded844e0d707cbff30c"),
    "bielliptic4_no_action": (3805, "386cc9de8acba6a796aacc5127083b9d"
                                    "f58afdd42d97678ce929e82b26036c28"),
}

# (name, window): the byte length and sha256 of the datum JSON as
# `covering.save` writes it, and of the action JSON as `ellprym build
# --action-out` writes it
DATUMS = {
    ("pirola", 13): (
        (5271, "df7294f446a4aa8258aa1619624c838d"
               "a9e6d3986bda73a87806420696a1cb79"),
        (786, "2ed038f30f8e422108ac59e7173b9d44"
              "59e8b2e8eb01dace0ca6df10e0b9faaa")),
    ("pirola", 80): (
        (27857, "7615d009f65257c8467b10e0443dc167"
                "617d940b6ba229bc8bd3460813c3a0eb"),
        (786, "2f90883fe506f42412248be96012a1ab"
              "ca3f94909cfe2a1f84912e939c56f64e")),
    ("double3", 13): (
        (7559, "5dbbc57876d1aaf4e43789a01e9d2cc8"
               "ce508610c12a7d0ad859870e924babb6"),
        (825, "3f6024b6071f18c34e5017c0145b6302"
              "bd371eb2be6837422b31c4a5f703a609")),
    ("double3", 80): (
        (106296, "81ca63ccba49655d1a52594c6a3818b2"
                 "b95fc47b8cae44dfc16d0d267a224972"),
        (825, "fba38dbc90c80d4daacf8cd7272cbc44"
              "820c25c6aad8730d7557125ed4ed7edd")),
    # both points above each of x = -2, 0 and 3 are ramified, so this pins
    # the chart order within one x: a@(-2,-1) before a@(-2,1), and so on
    ("double4", 13): (
        (12411, "5267b055256c672bbc8ffc359c0c1d8e"
                "15cfe4941291090da56a3100f3f44816"),
        (1211, "812f5d143d0a01e53ed3c27a8308faa5"
               "9be97d59a424f8efee7697707122c98b")),
}
SPECS = {"pirola": pirola_spec, "double3": lambda w: bielliptic_spec(3, w),
         "double4": lambda w: bielliptic_spec(4, w)}


def _json_digest(obj):
    data = (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")
    return len(data), hashlib.sha256(data).hexdigest()


def _digest(datum, action):
    return _json_digest(analyze_datum(datum, action))


def test_stock_reports_match_golden(all_bundles):
    for name, bundle in all_bundles.items():
        assert _digest(bundle.datum, bundle.action) == GOLDEN[name], name


def test_reparametrized_report_matches_stock(biell4):
    """Every chart moved by u -> u + u^2/2 - u^3, known one term past the
    window: the chart series change in every slot above their valuations,
    and the report is the stock one without an action, byte for byte."""
    datum = biell4.datum
    field = datum.field
    subs = {}
    for j, chart in enumerate(datum.charts):
        w = chart.window()
        coeffs = [field.one(), field.scalar(Fraction(1, 2)), field.scalar(-1)]
        subs[j] = TruncatedSeries.from_coefficients(
            field, 1, coeffs + [field.zero()] * (w - 3), w + 1)
    moved = reparametrized(datum, subs)
    for chart in moved.charts:
        for s in chart.forms:
            assert all(not s.coefficient(e).is_zero()
                       for e in range(s.valuation, chart.window()))
    assert _digest(moved, None) == GOLDEN["bielliptic4_no_action"]
    assert _digest(datum, None) == GOLDEN["bielliptic4_no_action"]


@pytest.mark.parametrize("name, window", sorted(DATUMS))
def test_built_datum_matches_golden(name, window):
    result = build_cover(SPECS[name](window))
    assert (_json_digest(datum_to_json(result.datum)),
            _json_digest(result.action.to_json())) == DATUMS[name, window]
