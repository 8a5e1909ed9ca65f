import json
import random
from fractions import Fraction as F

import pytest

from ellprym import covering
from ellprym.builder import bielliptic_spec, build_cover, pirola_spec
from ellprym.covering import (MAX_WINDOW, CoveringDatum, FiberChart,
                              RamificationChart, _parse_series,
                              _series_to_json, datum_from_json, datum_to_json, lex_pairs,
                              load, reparametrized, save, validate)
from ellprym.errors import SchemaError, ValuationError
from ellprym.scalars import MAX_SCALAR_LENGTH, FieldSpec, Matrix, Scalar
from ellprym.series import TruncatedSeries
from test_properties import _random_unit_substitution

Q = FieldSpec(1)


def _series(start, coeffs, prec):
    return TruncatedSeries.from_coefficients(Q, start, coeffs, prec)


def _fake_datum(genus=4, indices=(3, 3), degree=3):
    """Structurally complete datum with made-up series (for failure paths)."""
    charts = []
    for j, idx in enumerate(indices):
        alpha = _series(idx - 1, [1, 1], 8)
        forms = tuple(_series(i % 3, [1 + i + j], 8) for i in range(genus))
        charts.append(RamificationChart(f"a{j}", idx, alpha, forms))
    ratios = tuple(tuple(Q.scalar(1 if i == 0 else (k + 2) * (i + 1))
                         for i in range(genus)) for k in range(degree))
    fiber = FiberChart(tuple(f"x{k}" for k in range(degree)), ratios)
    return CoveringDatum(Q, genus, degree, tuple(charts), fiber,
                         tuple(f"b{i}" for i in range(genus)), 0)


def test_riemann_hurwitz_failure_detected():
    datum = _fake_datum(genus=4, indices=(3, 3))
    report = validate(datum)
    failed = {f.name for f in report.failures()}
    assert "riemann_hurwitz" in failed


def test_index_one_chart_rejected():
    datum = _fake_datum(genus=4, indices=(3, 3, 2, 1))
    report = validate(datum)
    assert any(f.name.startswith("chart_valuations") and not f.passed
               for f in report.findings)


def test_index_above_degree_rejected():
    """No point of a degree-2 cover has ramification index 3."""
    report = validate(_fake_datum(genus=4, indices=(3, 3), degree=2))
    details = {f.name: f.detail for f in report.failures()}
    assert details["chart_valuations[0]"] == "index 3 > degree 2"
    assert details["chart_valuations[1]"] == "index 3 > degree 2"


def test_validate_never_aborts_early():
    datum = _fake_datum(genus=4, indices=(3, 3))
    report = validate(datum)
    names = [f.name for f in report.findings]
    assert "riemann_hurwitz" in names
    assert "trace_consistency" in names
    assert "quadric_precision" in names


def test_multiplication_table_columns_follow_lex_pairs(pirola):
    """Column p of the table is the product of the p-th pair of
    ``lex_pairs``, the order ``diffalg`` reads tensors in."""
    datum = pirola.datum
    pairs = lex_pairs(datum.genus)
    assert pairs == sorted(pairs) and len(pairs) == len(set(pairs)) == \
        datum.genus * (datum.genus + 1) // 2
    rows, start = datum.multiplication_table.multiply.rows, 0
    for chart in datum.charts:
        f, w = chart.forms, chart.window()
        for p, (i, j) in enumerate(pairs):
            product = (f[i] * f[j]).truncate(w)
            assert [row[p] for row in rows[start:start + w]] == \
                [product.coefficient(e) for e in range(w)]
        start += w
    assert len(rows) == start + datum.degree
    for row, r in zip(rows[start:], datum.fiber.ratios):
        assert list(row) == [r[i] * r[j] for i, j in pairs]


def _residues_by_series_products(datum):
    """The residue rows of the multiplication table, each residue of
    f_i f_j / alpha read off a series product by 1/alpha: only the terms
    of f_i f_j below u^v reach u^-1, and they meet only the v terms of
    1/alpha that alpha's first v terms determine."""
    rows = []
    for c in datum.charts:
        w, v = c.window(), c.alpha_pullback.valuation
        inv_alpha = c.alpha_pullback.truncate(2 * v).inverse()
        rows.append([((c.forms[i] * c.forms[j]).truncate(w).truncate(v) *
                      inv_alpha).coefficient(-1)
                     for i, j in lex_pairs(datum.genus)])
    return Matrix(datum.field, rows)


@pytest.mark.parametrize("window", [13, 80])
@pytest.mark.parametrize("spec", [pirola_spec, lambda precision:
                                  bielliptic_spec(4, precision),
                                  lambda precision:
                                  bielliptic_spec(3, precision)],
                         ids=["pirola", "bielliptic4", "bielliptic3"])
def test_residue_rows_match_series_products(spec, window):
    """The table reads each residue row from its chart's first v product
    coefficients; dividing every product by alpha gives the same rows, on
    the stock fixtures and on a copy with every chart reparametrized."""
    datum = build_cover(spec(precision=window)).datum
    copies = [datum]
    if window == 13:
        rng = random.Random(2718)
        copies.append(reparametrized(datum, {
            j: _random_unit_substitution(datum.field, rng, 14)
            for j in range(datum.n_ramification)}))
    for d in copies:
        assert validate(d).ok
        assert d.multiplication_table.residues == \
            _residues_by_series_products(d)


def test_table_forms_each_chart_product_once(all_bundles, monkeypatch):
    """Building the table takes g(g+1)/2 series products per chart, the
    products f_i f_j themselves: none more to reach the residues (the
    products inside the inverse of each alpha pullback are not counted)."""
    counts, inside = [0], [0]
    mul, inverse = TruncatedSeries.__mul__, TruncatedSeries.inverse

    def counted_mul(self, other):
        counts[0] += not inside[0]
        return mul(self, other)

    def counted_inverse(self):
        inside[0] += 1
        try:
            return inverse(self)
        finally:
            inside[0] -= 1

    monkeypatch.setattr(TruncatedSeries, "__mul__", counted_mul)
    monkeypatch.setattr(TruncatedSeries, "inverse", counted_inverse)
    for bundle in all_bundles.values():
        datum, g = bundle.datum._replace(), bundle.datum.genus
        counts[0] = 0
        datum.multiplication_table   # a fresh datum builds its table
        assert counts[0] == datum.n_ramification * g * (g + 1) // 2


def test_validation_on_built_fixture(pirola):
    report = validate(pirola.datum)
    assert report.ok
    assert report.quadric_certified
    assert report.coefficient_budget > report.independence_bound
    # trace of the pullback form equals the degree
    tau = pirola.split.tau
    assert tau[0] == pirola.datum.field.scalar(3)


def test_round_trip_identity(pirola, tmp_path):
    path = tmp_path / "datum.json"
    save(pirola.datum, path)
    loaded = load(path)
    assert loaded == pirola.datum


def test_round_trip_byte_exact(pirola, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save(pirola.datum, p1)
    save(load(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_missing_charts_reports_pointer(pirola):
    obj = datum_to_json(pirola.datum)
    del obj["charts"]
    with pytest.raises(SchemaError) as err:
        datum_from_json(obj)
    assert err.value.pointer == "/charts"


def test_bad_scalar_reports_offending_location(pirola):
    obj = datum_to_json(pirola.datum)
    obj["fiber"]["ratios"][1][0] = "3/0x"
    with pytest.raises(SchemaError) as err:
        datum_from_json(obj)
    assert err.value.pointer.startswith("/fiber/ratios/1/0")


def test_truncated_series_schema_error(pirola):
    obj = datum_to_json(pirola.datum)
    obj["charts"][0]["alpha_pullback"]["prec"] = -99
    with pytest.raises(SchemaError) as err:
        datum_from_json(obj)
    assert "/charts/0/alpha_pullback" in err.value.pointer


def test_series_window_limit_is_inclusive():
    ok = {"valuation": -MAX_WINDOW, "prec": MAX_WINDOW, "coeffs": ["1"]}
    assert _parse_series(Q, ok, "/s").prec == MAX_WINDOW
    for key, val in (("valuation", -MAX_WINDOW - 1),
                     ("prec", MAX_WINDOW + 1)):
        with pytest.raises(SchemaError) as err:
            _parse_series(Q, dict(ok, **{key: val}), "/s")
        assert err.value.pointer == f"/s/{key}"


def test_series_common_denominator_is_not_limited():
    """Only each coefficient's string is limited: a series whose
    coefficients' common denominator has more than MAX_SCALAR_LENGTH
    digits loads, reads back exactly and round-trips."""
    obj = {"valuation": 0, "prec": 2, "coeffs": [
        f"1/{2 ** MAX_SCALAR_LENGTH}", f"1/{5 ** MAX_SCALAR_LENGTH}"]}
    s = _parse_series(Q, obj, "/s")
    assert s.den == 10 ** MAX_SCALAR_LENGTH
    assert [F(c.num[0], c.den) for c in s.coeffs] == [
        F(1, 2 ** MAX_SCALAR_LENGTH), F(1, 5 ** MAX_SCALAR_LENGTH)]
    assert _series_to_json(s) == obj
    assert _parse_series(Q, _series_to_json(s), "/s") == s


def test_load_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError):
        load(path)


def _fail(*_):
    raise AssertionError("internal fault")


@pytest.mark.parametrize("patch", [
    lambda mp: mp.setattr(Scalar, "from_string", staticmethod(_fail)),
    lambda mp: mp.setattr(covering, "FieldSpec", _fail),
], ids=["scalar", "field"])
def test_internal_fault_while_loading_is_not_a_schema_error(pirola,
                                                            monkeypatch,
                                                            patch):
    """The loader turns only the callees' ParseError and FieldError into a
    SchemaError; any other exception passes through unchanged."""
    obj = datum_to_json(pirola.datum)
    patch(monkeypatch)
    with pytest.raises(AssertionError, match="internal fault"):
        datum_from_json(obj)


def test_reparametrized_refuses_a_substitution_of_valuation_2():
    """A chart substitution is a change of local parameter, of valuation 1;
    one of valuation 2 is refused by the composition under it."""
    datum = _fake_datum()
    for phi in (_series(2, [1], 9), _series(2, [1, 3, 1], 9)):
        with pytest.raises(ValuationError,
                           match="^composition requires inner valuation 1$"):
            covering.reparametrized(datum, {0: phi})
