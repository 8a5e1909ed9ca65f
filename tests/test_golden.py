"""Byte-exact golden reports.

Each digest is the sha256 of ``json.dumps(analyze_datum(datum, action),
indent=2, sort_keys=True) + "\\n"`` for a stock fixture at its default chart
windows.  Any change to the analysis layer must reproduce them exactly.
"""

import hashlib
import json
from fractions import Fraction

from ellprym.cli import analyze_datum
from ellprym.covering import reparametrized
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


def _digest(datum, action):
    text = json.dumps(analyze_datum(datum, action), indent=2,
                      sort_keys=True) + "\n"
    data = text.encode("utf-8")
    return len(data), hashlib.sha256(data).hexdigest()


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
