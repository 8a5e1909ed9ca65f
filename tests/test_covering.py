import json
import math
import random
import re
from collections import Counter
from fractions import Fraction as F

import pytest

from ellprym import covering, reader, table
from ellprym.builder import bielliptic_spec, build_cover, pirola_spec
from ellprym.covering import (MAX_WINDOW, CoveringDatum, FiberChart,
                              RamificationChart, _series_to_json,
                              datum_to_json, lex_pairs, load, reparametrized,
                              save, validate)
from ellprym.diffalg import quadric_kernel
from ellprym.errors import ParseError, SchemaError, ValuationError
from ellprym.reader import _parse_series, datum_from_json
from ellprym.scalars import MAX_SCALAR_LENGTH, FieldSpec, Matrix, Scalar
from ellprym.series import TruncatedSeries
from ellprym.table import tail_rows
from test_diffalg import dense_datum
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
    ``lex_pairs``, the order ``diffalg`` reads tensors in: in ``multiply``
    below each chart's order, in ``tail_rows`` from there to the window."""
    datum = pirola.datum
    pairs = lex_pairs(datum.genus)
    assert pairs == sorted(pairs) and len(pairs) == len(set(pairs)) == \
        datum.genus * (datum.genus + 1) // 2
    table = datum.multiplication_table
    rows, tail, start, rest = table.multiply.rows, tail_rows(datum).rows, 0, 0
    for chart, k in zip(datum.charts, table.orders):
        f, w = chart.forms, chart.window()
        for p, (i, j) in enumerate(pairs):
            product = (f[i] * f[j]).truncate(w)
            assert [row[p] for row in rows[start:start + k]] + \
                [row[p] for row in tail[rest:rest + w - k]] == \
                [product.coefficient(e) for e in range(w)]
        start, rest = start + k, rest + w - k
    assert len(rows) == start + datum.degree and len(tail) == rest
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
    """Building the table takes g(g+1)/2 products per chart, the products
    f_i f_j themselves, and packs each of the g forms once per chart: none
    more to reach the residues, and no series product (the products inside
    the inverse of each alpha pullback are not counted)."""
    counts, inside = Counter(), [0]
    inverse = TruncatedSeries.inverse

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += not inside[0]
            return fn(*args)
        return wrapper

    def counted_inverse(self):
        inside[0] += 1
        try:
            return inverse(self)
        finally:
            inside[0] -= 1

    for name in ("_pack", "_unpack"):
        monkeypatch.setattr(table, name, counted(name, getattr(table, name)))
    monkeypatch.setattr(TruncatedSeries, "__mul__",
                        counted("__mul__", TruncatedSeries.__mul__))
    monkeypatch.setattr(TruncatedSeries, "inverse", counted_inverse)
    for bundle in all_bundles.values():
        datum, g = bundle.datum._replace(), bundle.datum.genus
        counts.clear()
        datum.multiplication_table   # a fresh datum builds its table
        n = datum.n_ramification
        assert counts == Counter(_pack=n * g, _unpack=n * g * (g + 1) // 2,
                                 __mul__=0)


def full_window_table(datum):
    """The multiplication map to the whole chart windows, as the table was
    built before its rows stopped at the quadric certificate: on each chart
    every f_i f_j below the window by one series product, then the fiber
    rows."""
    field, pairs = datum.field, lex_pairs(datum.genus)
    return Matrix.stack([Matrix(field, list(zip(*(
        (c.forms[i] * c.forms[j]).coefficients_in(0, c.window())
        for i, j in pairs)))) for c in datum.charts] + [Matrix(field, [
            [r[i] * r[j] for i, j in pairs] for r in datum.fiber.ratios])])


def _check_certified_table(datum):
    """The table's rows stop at the certificate: each chart keeps its v
    residue terms and no more than its window, and the orders with the d
    fiber points reach 4g - 3 exactly.  Its kernel, and the quadric
    kernel, are those of the full-window map."""
    table, g, d = datum.multiplication_table, datum.genus, datum.degree
    assert all(c.alpha_pullback.valuation <= k <= c.window()
               for c, k in zip(datum.charts, table.orders))
    assert sum(table.orders) + d == 4 * g - 3
    assert table.multiply.nrows == sum(table.orders) + d
    kernel = full_window_table(datum).kernel_basis()
    assert table.multiply.kernel_basis() == kernel
    assert list(quadric_kernel(datum)) == kernel


@pytest.mark.parametrize("window", [13, 40, 80])
@pytest.mark.parametrize("spec", [pirola_spec, lambda precision:
                                  bielliptic_spec(4, precision),
                                  lambda precision:
                                  bielliptic_spec(3, precision)],
                         ids=["pirola", "bielliptic4", "bielliptic3"])
def test_certified_table_kernel_matches_full_window_table(spec, window):
    """On the stock fixtures the table at the certificate's size has the
    kernel of the full-window table that it replaced."""
    _check_certified_table(build_cover(spec(precision=window)).datum)


@pytest.fixture(scope="module")
def double4_at_10():
    return build_cover(bielliptic_spec(4, 10)).datum


@pytest.mark.parametrize("seed", range(20))
def test_certified_table_kernel_matches_full_window_table_dense(
        double4_at_10, seed):
    """So on each of the 20 seed classes of the dense benchmark input at
    window 10, whose every chart coefficient is nonzero."""
    _check_certified_table(dense_datum(double4_at_10, seed))


def test_orders_of_the_window_10_pirola_datum():
    """Chart 0 of the window-10 pirola datum keeps 6 coefficients and the
    others their v = 2: tests/test_cli.py corrupts form 2 on chart 0 at
    u^4, inside the table's rows, and at u^6, past them."""
    datum = build_cover(pirola_spec(precision=10)).datum
    assert datum.multiplication_table.orders == (6, 2, 2)


def test_quadric_kernel_forms_g_products_per_quadric_past_the_table(
        all_bundles, monkeypatch):
    """A fresh datum's quadric kernel forms the table's g(g+1)/2 products
    per chart to the chart's order, then, for the tail check, one product
    f_i h_i over the whole window per chart, basis quadric and nonzero h_i
    (at most g), and no series product (the rows past the certificate are
    not formed on the data of a curve); the products inside the inverse of
    each alpha pullback are not counted."""
    products, series_products, inside = Counter(), [0], [0]
    batch, mul, inverse = table._products, TruncatedSeries.__mul__, \
        TruncatedSeries.inverse

    def counted_batch(field, parts, sums, n):
        if not inside[0]:
            products[n] += sum(map(len, sums))
        return batch(field, parts, sums, n)

    def counted_mul(self, other):
        series_products[0] += not inside[0]
        return mul(self, other)

    def counted_inverse(self):
        inside[0] += 1
        try:
            return inverse(self)
        finally:
            inside[0] -= 1

    monkeypatch.setattr(table, "_products", counted_batch)
    monkeypatch.setattr(TruncatedSeries, "__mul__", counted_mul)
    monkeypatch.setattr(TruncatedSeries, "inverse", counted_inverse)
    for bundle in all_bundles.values():
        datum, g = bundle.datum._replace(), bundle.datum.genus
        products.clear()
        series_products[0] = 0
        nonzero_h = sum(len({i for (i, _), x in zip(lex_pairs(g), q) if x})
                        for q in quadric_kernel(datum))
        expected = Counter()
        for c, k in zip(datum.charts, datum.multiplication_table.orders):
            expected[k] += g * (g + 1) // 2
            expected[c.window()] += nonzero_h
        assert products == expected and series_products[0] == 0


def test_validation_on_built_fixture(pirola):
    report = validate(pirola.datum)
    assert report.ok
    assert report.quadric_certified
    assert report.coefficient_budget > report.independence_bound
    # trace of the pullback form equals the degree
    tau = covering.trace_vector(pirola.datum)
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


def reference_from_string(field, text):
    """Scalar.from_string as it was before the series loader shared its
    parser: every term read first, then put over the lcm of their
    denominators."""
    if not isinstance(text, str):
        raise ParseError(text, "scalar must be a string")
    if len(text) > MAX_SCALAR_LENGTH:
        raise ParseError(text[:20] + "...", f"scalar string longer than "
                         f"{MAX_SCALAR_LENGTH} characters")
    terms = []
    for term in re.split(r" *\+ *", text):
        m = re.fullmatch(r"(-?[0-9]+)(?:/([0-9]+))?(\*z(?:\^([0-9]+))?)?",
                         term)
        if m is None:
            raise ParseError(term)
        p, q, z, k = m.groups()
        power = 0 if z is None else 1 if k is None else int(k)
        if power >= field.degree:
            raise ParseError(term, "zeta power not reduced for this field")
        q = 1 if q is None else int(q)
        if not q:
            raise ParseError(term, "zero denominator")
        terms.append((int(p), q, power))
    den = math.lcm(*(q for _, q, _ in terms))
    num = [0] * field.degree
    for p, q, power in terms:
        num[power] += p * (den // q)
    return Scalar._make(field, num, den)


def reference_parse_series(field, obj, pointer):
    """The series loader's coefficients as they were read: one Scalar per
    string, its refusal a SchemaError at that string's pointer, and the
    constructor over the lcm of the Scalars' denominators."""
    coeffs = []
    for i, text in enumerate(obj["coeffs"]):
        try:
            coeffs.append(reference_from_string(field, text))
        except ParseError as exc:
            raise SchemaError(f"{pointer}/coeffs/{i}", str(exc)) from None
    return TruncatedSeries(field, obj["valuation"], coeffs, obj["prec"])


def _series_objects(datum):
    """(pointer, JSON object) of every series in a datum's JSON."""
    for j, c in enumerate(datum_to_json(datum)["charts"]):
        yield f"/charts/{j}/alpha_pullback", c["alpha_pullback"]
        for i, f in enumerate(c["forms"]):
            yield f"/charts/{j}/forms/{i}", f


def _outcome(parse, field, obj, pointer):
    try:
        return parse(field, obj, pointer)
    except SchemaError as exc:
        return type(exc), str(exc), exc.pointer


def test_series_loader_matches_scalar_reference(all_bundles, double4_at_10):
    """The flat-int loader reads every series of the stock data, of a dense
    datum and of the pirola action as one Scalar per string and the
    constructor did, and the writer gives back each object; on malformed
    strings both refuse with the same type, message and pointer."""
    datums = [b.datum for b in all_bundles.values()]
    datums.append(dense_datum(double4_at_10, 1))
    objects = [(d.field, ptr, obj) for d in datums
               for ptr, obj in _series_objects(d)]
    pirola = all_bundles["pirola"]
    objects += [(pirola.datum.field, f"/charts/{j}/reparam", move["reparam"])
                for j, move in enumerate(pirola.action.to_json()["charts"])]
    for field, ptr, obj in objects:
        s = _parse_series(field, obj, ptr)
        assert s == reference_parse_series(field, obj, ptr)
        assert _series_to_json(s) == obj == {
            "valuation": s.valuation, "prec": s.prec,
            "coeffs": [c.to_json() for c in s.coeffs]}
    Q3 = pirola.datum.field
    # the lcm cliff in small, coefficients 1/D over distinct 400-digit D,
    # and strings the writer never writes: terms not in lowest terms, a
    # power of z named twice, zero coefficients at both ends and inside
    rng = random.Random(20261022)
    for field, obj in [
        (Q, {"valuation": 1, "prec": 13, "coeffs": [
            f"{rng.choice((-1, 1))}/{rng.randrange(10 ** 399, 10 ** 400)}"
            for _ in range(12)]}),
        (Q3, {"valuation": -2, "prec": 9, "coeffs": [
            "0/7", "0*z + 0", "6/4 + 3/9*z", "1/2 + -1/2", "5/10*z", "0",
            "-4/8 + 2/4*z + 1/4*z", "0/3 + 0/5*z"]}),
        (Q3, {"valuation": 0, "prec": 4, "coeffs": ["0/2", "1/3 + -2/6"]})]:
        s = _parse_series(field, obj, "/s")
        assert s == reference_parse_series(field, obj, "/s")
        assert _parse_series(field, _series_to_json(s), "/s") == s
    obj = datum_to_json(pirola.datum)["charts"][1]["forms"][2]
    for bad in ["1/2 + huh*z", "1 + 2*z^2", "-3/0*z", "2/4 + 1/0",
                "1" * (MAX_SCALAR_LENGTH + 1), 7, None, ["1"],
                "1/6 + 5/4*z + -1/8", " 3", "1_000", "\u0663"]:
        for k in (0, len(obj["coeffs"]) - 1):
            edited = dict(obj, coeffs=obj["coeffs"][:k] + [bad] +
                          obj["coeffs"][k + 1:])
            want = _outcome(reference_parse_series, Q3, edited, "/s")
            assert _outcome(_parse_series, Q3, edited, "/s") == want


def test_load_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError):
        load(path)


def _fail(*_):
    raise AssertionError("internal fault")


@pytest.mark.parametrize("patch", [
    lambda mp: mp.setattr(Scalar, "from_string", staticmethod(_fail)),
    lambda mp: mp.setattr(reader, "_parse", _fail),
    lambda mp: mp.setattr(reader, "FieldSpec", _fail),
], ids=["scalar", "series", "field"])
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
