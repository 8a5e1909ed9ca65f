import copy
import json
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellprym import builder, covering, reader
from ellprym.builder import bielliptic_spec, pirola_spec, spec_to_json
from ellprym.cli import main
from ellprym.covering import (MAX_DEGREE, MAX_FUNCTION_TERMS, MAX_GENUS,
                              MAX_WINDOW, CyclicAction)
from ellprym.errors import ValidationFailed
from ellprym.scalars import MAX_SCALAR_LENGTH, Scalar


def _write_spec(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_build_writes_datum(tmp_path):
    spec_path = _write_spec(tmp_path / "spec.json",
                            spec_to_json(pirola_spec(precision=10)))
    out = tmp_path / "datum.json"
    action_out = tmp_path / "action.json"
    code = main(["build", spec_path, "--out", str(out),
                 "--action-out", str(action_out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["genus"] == 4 and obj["degree"] == 3
    assert json.loads(action_out.read_text())["order"] == 3
    # the loaders read back exactly what was built
    result = builder.build_cover(pirola_spec(precision=10))
    datum = covering.load(out)
    assert datum == result.datum
    assert CyclicAction.from_json(
        datum, json.loads(action_out.read_text())) == result.action


def test_build_refuses_to_write_an_unreadable_scalar(tmp_path, capsys,
                                                     monkeypatch):
    """A built scalar whose string is over the loader's limit stops the
    build with exit 2 before either output file is written."""
    result = builder.build_cover(pirola_spec(precision=10))
    ratios = result.datum.fiber.ratios
    long = result.datum.field.scalar(10 ** MAX_SCALAR_LENGTH)
    fiber = result.datum.fiber._replace(ratios=(
        (long,) + tuple(ratios[0][1:]),) + tuple(ratios[1:]))
    monkeypatch.setattr(builder, "build_cover", lambda spec: result._replace(
        datum=result.datum._replace(fiber=fiber)))
    spec_path = _write_spec(tmp_path / "spec.json",
                            spec_to_json(pirola_spec(precision=10)))
    out, action_out = tmp_path / "datum.json", tmp_path / "action.json"
    assert main(["build", spec_path, "--out", str(out),
                 "--action-out", str(action_out)]) == 2
    err = capsys.readouterr().err
    assert "ScalarTooLong" in err and "of 4001 characters" in err
    assert not out.exists() and not action_out.exists()


def test_build_rejects_nonprime_order(tmp_path, capsys):
    obj = spec_to_json(pirola_spec())
    obj["N"] = 4
    obj["field"] = {"cyclotomic_order": 4}
    spec_path = _write_spec(tmp_path / "spec.json", obj)
    code = main(["build", spec_path, "--out", str(tmp_path / "d.json")])
    assert code == 2
    assert "UnsupportedOrder" in capsys.readouterr().err


def test_build_unreadable_path(tmp_path):
    code = main(["build", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "d.json")])
    assert code == 2


def test_analyze_full_report(tmp_path):
    spec_path = _write_spec(tmp_path / "spec.json",
                            spec_to_json(pirola_spec(precision=10)))
    datum_path = tmp_path / "datum.json"
    action_path = tmp_path / "action.json"
    assert main(["build", spec_path, "--out", str(datum_path),
                 "--action-out", str(action_path)]) == 0
    report_path = tmp_path / "report.json"
    code = main(["analyze", str(datum_path), "--action", str(action_path),
                 "--json", "--out", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["kernel_E"]["dim_dual"] == 4
    assert report["criterion"]["dim_kernel"] == ">=2"
    assert report["quadrics"]["h0"] == 1
    assert report["equivariant"]["battery"]["ok"] is True
    assert report["ledger"]["identities"][0]["holds"] is True
    assert "conventions" in report


def test_analyze_corrupt_datum(tmp_path, capsys):
    spec_path = _write_spec(tmp_path / "spec.json",
                            spec_to_json(pirola_spec(precision=10)))
    datum_path = tmp_path / "datum.json"
    assert main(["build", spec_path, "--out", str(datum_path)]) == 0
    obj = json.loads(datum_path.read_text())
    obj["genus"] = 5   # breaks Riemann-Hurwitz
    obj["basis_names"].append("eta5")   # one name per basis form
    datum_path.write_text(json.dumps(obj))
    code = main(["analyze", str(datum_path)])
    assert code == 2
    assert "riemann_hurwitz" in capsys.readouterr().err


def test_analyze_fiber_row_not_a_list_exits_2(tmp_path, capsys):
    spec_path = _write_spec(tmp_path / "spec.json",
                            spec_to_json(pirola_spec(precision=10)))
    datum_path = tmp_path / "datum.json"
    assert main(["build", spec_path, "--out", str(datum_path)]) == 0
    obj = json.loads(datum_path.read_text())
    obj["fiber"]["ratios"][1] = 5
    datum_path.write_text(json.dumps(obj))
    code = main(["analyze", str(datum_path)])
    assert code == 2
    assert "SchemaError: /fiber/ratios/1: expected list" in \
        capsys.readouterr().err


def test_analyze_under_truncated_is_precision_error(tmp_path, capsys):
    spec_path = _write_spec(tmp_path / "spec.json",
                            spec_to_json(pirola_spec(precision=3)))
    datum_path = tmp_path / "datum.json"
    assert main(["build", spec_path, "--out", str(datum_path)]) == 0
    code = main(["analyze", str(datum_path)])
    assert code == 2
    assert "InsufficientPrecision" in capsys.readouterr().err


@pytest.mark.parametrize("exponent", [4, 6],
                         ids=["certified-rows", "past-certified-rows"])
def test_analyze_identity_violation_exits_3(tmp_path, capsys, exponent):
    """A structurally valid datum with corrupted series data trips an
    unconditional identity, which is the exit-3 contract: the coefficient
    of u^exponent of form 2 on chart 0 is changed inside the rows of the
    multiplication table, which stop at the quadric certificate (chart 0
    keeps 6, tests/test_covering.py), or past them, where only the check
    of each chart's whole window sees it."""
    spec_path = _write_spec(tmp_path / "spec.json",
                            spec_to_json(pirola_spec(precision=10)))
    datum_path = tmp_path / "datum.json"
    assert main(["build", spec_path, "--out", str(datum_path)]) == 0
    obj = json.loads(datum_path.read_text())
    assert obj["charts"][0]["forms"][2]["valuation"] == 0
    obj["charts"][0]["forms"][2]["coeffs"][exponent] = "7/2"
    datum_path.write_text(json.dumps(obj))
    code = main(["analyze", str(datum_path)])
    assert code == 3
    assert "DimensionMismatch: quadric space has dimension 0, expected 1" \
        in capsys.readouterr().err


def test_analyze_reports_byte_identical(tmp_path):
    spec_path = _write_spec(tmp_path / "spec.json",
                            spec_to_json(pirola_spec(precision=10)))
    datum_path = tmp_path / "datum.json"
    assert main(["build", spec_path, "--out", str(datum_path)]) == 0
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["analyze", str(datum_path), "--json", "--out", str(r1)]) == 0
    assert main(["analyze", str(datum_path), "--json", "--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_build_and_analyze_double_cover(tmp_path, capsys):
    """End-to-end on the double-cover fixture: explicit base point in the
    spec file and a definite minimal-kernel verdict."""
    spec_path = _write_spec(tmp_path / "spec.json",
                            spec_to_json(bielliptic_spec(4)))
    datum_path = tmp_path / "datum.json"
    assert main(["build", spec_path, "--out", str(datum_path)]) == 0
    assert main(["analyze", str(datum_path), "--text"]) == 0
    out = capsys.readouterr().out
    assert "dim_kernel: 1" in out
    assert "qminus_in_all_quadrics: False" in out


def test_demo_default_passes(capsys):
    code = main(["demo-pirola", "--precision", "12"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 7
    assert "FAIL" not in out


def test_demo_low_precision_exits_2(capsys):
    code = main(["demo-pirola", "--precision", "3"])
    assert code == 2
    assert "InsufficientPrecision" in capsys.readouterr().err


@pytest.mark.parametrize("precision", ["1", "2"])
def test_demo_window_below_order_exits_2(capsys, precision):
    assert main(["demo-pirola", "--precision", precision]) == 2
    assert f"PrecisionUnreachable: requested window {precision} is below " \
        f"N = 3" in capsys.readouterr().err


def test_demo_json_battery(tmp_path):
    out = tmp_path / "demo.json"
    code = main(["demo-pirola", "--precision", "12", "--json",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    battery = report["equivariant"]["battery"]
    assert battery["ok"] and len(battery["checks"]) == 7


@pytest.fixture(scope="module")
def pirola_built(tmp_path_factory):
    """Paths of a built pirola datum and its deck action."""
    tmp = tmp_path_factory.mktemp("pirola")
    spec_path = _write_spec(tmp / "spec.json",
                            spec_to_json(pirola_spec(precision=10)))
    datum_path, action_path = tmp / "datum.json", tmp / "action.json"
    assert main(["build", spec_path, "--out", str(datum_path),
                 "--action-out", str(action_path)]) == 0
    return datum_path, action_path


@pytest.fixture(scope="module")
def pirola_datum_obj(pirola_built):
    return json.loads(pirola_built[0].read_text())


def _analyze_edited(tmp_path, obj, edit):
    obj = copy.deepcopy(obj)
    edit(obj)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(obj))
    return main(["analyze", str(path)])


def test_analyze_oversized_scalar_exits_2(tmp_path, capsys, pirola_datum_obj):
    for text, message in (
            ("7" * 4001, "scalar string longer than 4000 characters"),
            ("1e999999", "cannot parse scalar token: '1e999999'"),
            ("1*z^2", "zeta power not reduced for this field: '1*z^2'")):
        def edit(obj):
            obj["fiber"]["ratios"][1][0] = text
        assert _analyze_edited(tmp_path, pirola_datum_obj, edit) == 2
        err = capsys.readouterr().err
        assert "SchemaError: /fiber/ratios/1/0" in err
        assert message in err


def test_chart_window_below_the_residue_terms_exits_2(tmp_path, capsys,
                                                      pirola_datum_obj):
    """A datum whose chart window is below the v = index - 1 product terms
    its residues read fails validation, which names the chart, and the
    analysis exits 2 with that failure, not a traceback."""
    def edit(obj):
        for form in obj["charts"][0]["forms"]:
            form["coeffs"] = form["coeffs"][:max(0, 1 - form["valuation"])]
            form["valuation"] = min(form["valuation"], 1)
            form["prec"] = 1
    obj = copy.deepcopy(pirola_datum_obj)
    edit(obj)
    datum = reader.datum_from_json(obj)
    assert datum.charts[0].window() == 1 < datum.charts[0].index - 1
    failed = [f.name for f in covering.validate(datum).failures()]
    assert failed == ["chart_valuations[0]"]
    with pytest.raises(ValidationFailed, match=r"chart_valuations\[0\]: "
                       "window 1 < index-1 = 2"):
        covering.require_valid(datum)
    assert _analyze_edited(tmp_path, pirola_datum_obj, edit) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ValidationFailed: ")
    assert "chart_valuations[0]: window 1 < index-1 = 2" in err
    assert "Traceback" not in err


def test_alpha_pullback_below_the_residue_terms_exits_2(tmp_path, capsys,
                                                        pirola_datum_obj):
    """1/alpha is read from alpha's first index - 1 terms, so the residue
    rows need each alpha pullback known below u^(2(index-1)).  A datum whose
    chart 0 alpha is known only below u^3 still passes validation (the
    builder's own short windows do too), and the analysis exits 2 where the
    table reads 1/alpha, naming the chart, its alpha precision and the 4 it
    needs, not a traceback."""
    def edit(obj):
        alpha = obj["charts"][0]["alpha_pullback"]
        alpha["coeffs"] = alpha["coeffs"][:3 - alpha["valuation"]]
        alpha["prec"] = 3
    obj = copy.deepcopy(pirola_datum_obj)
    edit(obj)
    datum = reader.datum_from_json(obj)
    assert datum.charts[0].index == 3
    assert covering.validate(datum).ok
    assert _analyze_edited(tmp_path, pirola_datum_obj, edit) == 2
    err = capsys.readouterr().err
    label = pirola_datum_obj["charts"][0]["label"]
    assert err == (f"error: InsufficientPrecision: chart 0 ({label}): alpha "
                   "pullback prec 3 < 2(index-1) = 4, the terms that "
                   "1/alpha is read from\n")


@pytest.mark.parametrize("path", [
    ("genus",), ("degree",), ("field", "cyclotomic_order"),
    ("charts", 0, "index"), ("charts", 0, "alpha_pullback", "valuation"),
    ("charts", 0, "forms", 1, "prec")])
def test_analyze_bool_for_int_exits_2(tmp_path, capsys, pirola_datum_obj,
                                      path):
    def edit(obj):
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = True
    assert _analyze_edited(tmp_path, pirola_datum_obj, edit) == 2
    pointer = "/" + "/".join(str(k) for k in path)
    assert f"SchemaError: {pointer}: expected int" in capsys.readouterr().err


@pytest.mark.parametrize("key,cap", [("genus", MAX_GENUS),
                                     ("degree", MAX_DEGREE)])
def test_analyze_genus_or_degree_above_limit_exits_2(tmp_path, capsys,
                                                     pirola_datum_obj, key,
                                                     cap):
    assert pirola_datum_obj[key] <= cap

    def edit(obj):
        obj[key] = cap + 1
    assert _analyze_edited(tmp_path, pirola_datum_obj, edit) == 2
    assert f"SchemaError: /{key}: expected at most {cap}" in \
        capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("genus", -1), ("degree", -2)])
def test_analyze_negative_genus_or_degree_exits_2(tmp_path, capsys,
                                                  pirola_datum_obj, key,
                                                  value):
    """A negative genus or degree is refused at its own member, not at the
    list whose length it sets (basis_names, fiber labels)."""
    def edit(obj):
        obj[key] = value
    assert _analyze_edited(tmp_path, pirola_datum_obj, edit) == 2
    assert f"SchemaError: /{key}: expected at least 0" in \
        capsys.readouterr().err


def test_analyze_more_charts_than_riemann_hurwitz_allows_exits_2(tmp_path,
                                                                 capsys):
    """Every chart has index >= 2, so at most 2 * MAX_GENUS - 2 charts can
    pass validation; the loader refuses more before parsing any chart, where
    validation of 800 charts of window 200 at genus 16 would run for
    seconds."""
    g, cap = MAX_GENUS, 2 * MAX_GENUS - 2
    empty = {"valuation": 0, "prec": MAX_WINDOW, "coeffs": []}
    obj = {"field": {"cyclotomic_order": 1}, "genus": g, "degree": 2,
           "basis_names": [f"b{i}" for i in range(g)],
           "alpha_index_hint": None,
           "charts": [{"label": f"a{j}", "index": 2, "alpha_pullback": empty,
                       "forms": [empty] * g} for j in range(800)],
           "fiber": {"labels": ["x1", "x2"], "ratios": [["1"] * g] * 2}}
    path = tmp_path / "charts.json"
    path.write_text(json.dumps(obj))
    start = time.process_time()
    assert main(["analyze", str(path)]) == 2
    assert time.process_time() - start < 1
    assert f"SchemaError: /charts: expected at most {cap} charts" in \
        capsys.readouterr().err


# A valid scalar string that only the edits below write into a datum.
SENTINEL = "31/37"


@pytest.mark.parametrize("edit,message", [
    (lambda obj: obj["charts"][0]["alpha_pullback"].update(
        coeffs=[SENTINEL] * 1000 + ["bad"]),
     "/charts/0/alpha_pullback: coefficients extend beyond the stated "
     "precision"),
    (lambda obj: obj["charts"][0].update(forms=[
        {"valuation": 0, "prec": 1, "coeffs": [SENTINEL]}] * (MAX_GENUS + 1)),
     f"/charts/0/forms: expected at most {MAX_GENUS} forms"),
    (lambda obj: obj["fiber"].update(
        ratios=[[SENTINEL] * 4] * (MAX_DEGREE + 1)),
     f"/fiber/ratios: expected at most {MAX_DEGREE} rows"),
    (lambda obj: obj["fiber"]["ratios"][2].extend([SENTINEL] * MAX_GENUS),
     f"/fiber/ratios/2: expected at most {MAX_GENUS} entries"),
], ids=["series-beyond-prec", "forms", "ratio-rows", "ratio-entries"])
def test_analyze_oversized_list_is_refused_before_parsing(
        tmp_path, capsys, monkeypatch, pirola_datum_obj, edit, message):
    """Each list is refused by its length before any element is parsed: no
    SENTINEL string reaches Scalar.from_string or the series loader's
    parser.  A series too long for its precision is refused so even when
    it also holds a malformed string."""
    assert SENTINEL not in json.dumps(pirola_datum_obj)
    parsed, from_string, parse = [], Scalar.from_string, reader._parse

    def counting(read):
        def wrapper(field, text):
            parsed.append(text)
            return read(field, text)
        return wrapper
    monkeypatch.setattr(Scalar, "from_string",
                        staticmethod(counting(from_string)))
    monkeypatch.setattr(reader, "_parse", counting(parse))
    assert _analyze_edited(tmp_path, pirola_datum_obj, edit) == 2
    assert f"SchemaError: {message}" in capsys.readouterr().err
    assert SENTINEL not in parsed


def test_analyze_chart_missing_a_form_exits_2(tmp_path, capsys,
                                              pirola_datum_obj):
    """The independence certificate reads g forms on every chart; a chart
    with fewer is reported, not indexed past its end."""
    def edit(obj):
        obj["charts"][0]["forms"].pop()
    assert _analyze_edited(tmp_path, pirola_datum_obj, edit) == 2
    assert "3 form expansions, expected g = 4" in capsys.readouterr().err


@pytest.mark.parametrize("form, prec", [(0, -5), (1, -1), (3, -40)])
def test_analyze_form_unknown_below_zero_exits_2(tmp_path, capsys, form, prec):
    """A form that is zero only below a negative exponent says nothing about
    a pole there: the chart rule flags it, and the independence certificate
    reads one coefficient per exponent of each chart window, so its matrix
    has rank at most g."""
    g = 4
    obj = covering.datum_to_json(
        builder.build_cover(bielliptic_spec(g, 40)).datum)

    def edit(obj):
        obj["charts"][0]["forms"][form] = {"valuation": prec, "prec": prec,
                                           "coeffs": []}
    assert _analyze_edited(tmp_path, obj, edit) == 2
    assert f"chart_valuations[0]: form {form} is not known below exponent 0" \
        in capsys.readouterr().err
    findings = covering.validate(
        covering.load(tmp_path / "edited.json")).findings
    detail = next(f.detail for f in findings
                  if f.name == "independence_certificate")
    assert int(detail.split()[1]) <= g


@pytest.mark.parametrize("names", [["x"], ["x", "y", "z", 4]],
                         ids=["short", "not-str"])
def test_analyze_basis_names_not_genus_strings_exits_2(tmp_path, capsys,
                                                       pirola_datum_obj,
                                                       names):
    def edit(obj):
        obj["basis_names"] = names
    assert _analyze_edited(tmp_path, pirola_datum_obj, edit) == 2
    assert "SchemaError: /basis_names: expected 4 strings" in \
        capsys.readouterr().err


@pytest.mark.parametrize("labels", [["P0", "P1"], ["P0", "P1", 2]],
                         ids=["short", "not-str"])
def test_analyze_fiber_labels_not_degree_strings_exits_2(tmp_path, capsys,
                                                         pirola_datum_obj,
                                                         labels):
    def edit(obj):
        obj["fiber"]["labels"] = labels
    assert _analyze_edited(tmp_path, pirola_datum_obj, edit) == 2
    assert "SchemaError: /fiber/labels: expected 3 strings" in \
        capsys.readouterr().err


def test_analyze_action_not_json_exits_2(tmp_path, capsys, pirola_built):
    action = tmp_path / "action.json"
    action.write_text("not json")
    code = main(["analyze", str(pirola_built[0]), "--action", str(action)])
    assert code == 2
    assert "error: SchemaError: : invalid JSON" in capsys.readouterr().err


def test_build_spec_not_utf8_exits_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_bytes(b"\xff\xfe{}")
    code = main(["build", str(spec), "--out", str(tmp_path / "d.json")])
    assert code == 2
    assert "error: SchemaError: : invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[" * 200_000, "1" * 5_000],
                         ids=["deeply_nested", "long_integer"])
@pytest.mark.parametrize("role", ["datum", "spec", "action"])
def test_file_that_does_not_decode_as_json_exits_2(tmp_path, capsys,
                                                    pirola_built, role, text):
    """Nesting past the parser's recursion limit and an integer over
    Python's 4300-digit limit are refused like bad syntax, for every file
    the CLI reads."""
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    argv = {"datum": ["analyze", str(bad)],
            "spec": ["build", str(bad), "--out", str(tmp_path / "d.json")],
            "action": ["analyze", str(pirola_built[0]), "--action", str(bad)]}
    assert main(argv[role]) == 2
    assert "error: SchemaError: : invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "build", "demo"])
def test_out_in_missing_directory_exits_2(tmp_path, capsys, pirola_built,
                                          command):
    out = str(tmp_path / "missing" / "out.json")
    argv = {"analyze": ["analyze", str(pirola_built[0]), "--json"],
            "build": ["build", _write_spec(tmp_path / "spec.json",
                                           spec_to_json(pirola_spec(10)))],
            "demo": ["demo-pirola", "--precision", "12", "--json"]}[command]
    assert main(argv + ["--out", out]) == 2
    assert "error: FileNotFoundError" in capsys.readouterr().err


def test_demo_text_out_writes_file(tmp_path, capsys):
    out = tmp_path / "demo.txt"
    assert main(["demo-pirola", "--precision", "12", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    text = out.read_text()
    assert text.startswith("degree-3 Galois cover demo")
    assert text.count("PASS") == 7


def _pop(key):
    return lambda obj: obj.pop(key)


def _set(key, value):
    return lambda obj: obj.update({key: value})


def _reparams(**members):
    """Set these members of every chart move's reparametrization."""
    def edit(obj):
        for move in obj["charts"]:
            move["reparam"].update(members)
    return edit


@pytest.mark.parametrize("edit,message", [
    (_pop("charts"), "/charts: missing required member"),
    (_set("order", 0), "/order: expected int >= 2"),
    (_set("order", True), "/order: expected int"),
    (lambda obj: obj.update(matrix=obj["matrix"][:2]),
     "/matrix: expected 4 x 4 strings"),
    (lambda obj: obj["matrix"][1].__setitem__(2, 1),
     "/matrix/1/2: scalar must be a string"),
    (_set("charts", []), "/charts: expected 3 chart moves"),
    (lambda obj: obj["charts"][0].update(target=9),
     "/charts/0/target: expected a chart index below 3"),
    (_set("fiber_permutation", [0]),
     "/fiber_permutation: expected a permutation of 0..2"),
    (_set("fiber_permutation", [1, True, 0]),
     "/fiber_permutation: expected a permutation of 0..2"),
    (_set("fiber_permutation", [0, 1, 2, "x"]),
     "/fiber_permutation: expected a permutation of 0..2"),
    (lambda obj: obj["charts"][1]["reparam"].update(valuation=-10 ** 6),
     "/charts/1/reparam/valuation: expected absolute value at most "
     f"{MAX_WINDOW}"),
    (_reparams(valuation=2), "/charts/0/reparam: expected valuation 1 and "
     "prec at least the chart window 10"),
    (_reparams(valuation=0), "/charts/0/reparam: expected valuation 1 and "
     "prec at least the chart window 10"),
    (_reparams(prec=2), "/charts/0/reparam: expected valuation 1 and prec "
     "at least the chart window 10"),
], ids=["missing-member", "order-0", "order-bool", "matrix-rows",
        "matrix-entry", "no-charts", "target-range", "perm-short",
        "perm-bool", "perm-long", "window-above-limit", "reparam-valuation-2",
        "reparam-valuation-0", "reparam-below-window"])
def test_analyze_malformed_action_exits_2(tmp_path, capsys, pirola_built,
                                          edit, message):
    datum_path, action_path = pirola_built
    obj = json.loads(action_path.read_text())
    edit(obj)
    action = tmp_path / "action.json"
    action.write_text(json.dumps(obj))
    assert main(["analyze", str(datum_path), "--action", str(action)]) == 2
    assert f"SchemaError: {message}" in capsys.readouterr().err


def test_analyze_action_of_lower_order_exits_3(tmp_path, capsys,
                                                pirola_built):
    datum_path, action_path = pirola_built
    obj = json.loads(action_path.read_text())
    obj["order"] = 6
    action = tmp_path / "action.json"
    action.write_text(json.dumps(obj))
    assert main(["analyze", str(datum_path), "--action", str(action)]) == 3
    assert ("IdentityViolated: generator matrix has order 3, not the stated "
            "6") in capsys.readouterr().err


@pytest.mark.parametrize("edit,message", [
    (_set("N", True), "/N: expected int"),
    (_set("precision", True), "/precision: expected int"),
    (lambda obj: obj["field"].update(cyclotomic_order=True),
     "/field/cyclotomic_order: expected int"),
    (_set("field", []), "/field: expected dict"),
    (_set("h", {"P": 5}), "/h/P: expected list"),
    (_set("precision", MAX_WINDOW + 1),
     f"/precision: expected at most {MAX_WINDOW}"),
    (_set("h", {"Q": ["1"] * (MAX_FUNCTION_TERMS + 1)}),
     f"/h/Q: expected at most {MAX_FUNCTION_TERMS} coefficients"),
    (_set("field", {"cyclotomic_order": 8}),
     "/field/cyclotomic_order: unsupported cyclotomic order 8; supported: "
     "(1, 2, 3, 4, 5, 6, 7, 11, 13)"),
], ids=["N-bool", "precision-bool", "order-bool", "field-list", "h-P-int",
        "precision-above-limit", "h-Q-above-limit", "order-8"])
def test_build_malformed_spec_exits_2(tmp_path, capsys, edit, message):
    obj = spec_to_json(pirola_spec(precision=10))
    edit(obj)
    spec_path = _write_spec(tmp_path / "spec.json", obj)
    assert main(["build", spec_path, "--out", str(tmp_path / "d.json")]) == 2
    assert f"SchemaError: {message}" in capsys.readouterr().err


def test_build_singular_curve_exits_2(tmp_path, capsys):
    obj = spec_to_json(pirola_spec(precision=10))
    obj["E"] = {"A": "0", "B": "0"}
    spec_path = _write_spec(tmp_path / "spec.json", obj)
    assert main(["build", spec_path, "--out", str(tmp_path / "d.json")]) == 2
    assert "singular curve" in capsys.readouterr().err


@pytest.mark.parametrize("P,message", [
    (["1000000000000000000000001", "1"],
     "BuilderError: rational root search refused: the constant coefficient "
     "of the norm polynomial has 160 bits, above the limit 1000000000000"),
    (["5040", "0", "5040"], "PointOutsideField"),
    (["720720", "1", "720720"],
     "BuilderError: rational root search refused: 3645 x 3645 candidate "
     "pairs on 5 coefficients make 66430125 steps, above the limit 50000"),
], ids=["25-digit-constant", "content-5040", "720720"])
def test_build_rational_root_search_is_bounded(tmp_path, capsys, P, message):
    """The divisor search runs on the primitive norm polynomial and refuses
    one whose end coefficients or candidate count are too large, so each of
    these specs exits 2 in under a second (they stalled the build before)."""
    spec_path = _write_spec(tmp_path / "spec.json", {
        "E": {"A": "0", "B": "1"}, "h": {"P": P, "Q": []}, "N": 2,
        "c": "auto", "precision": 12})
    start = time.process_time()
    assert main(["build", spec_path, "--out", str(tmp_path / "d.json")]) == 2
    assert time.process_time() - start < 1
    assert message in capsys.readouterr().err


def test_analyze_datum_window_above_limit_exits_2(tmp_path, capsys,
                                                  pirola_datum_obj):
    def edit(obj):
        for chart in obj["charts"]:
            for series in [chart["alpha_pullback"], *chart["forms"]]:
                series["prec"] = 10 ** 6
    assert _analyze_edited(tmp_path, pirola_datum_obj, edit) == 2
    assert ("SchemaError: /charts/0/alpha_pullback/prec: expected absolute "
            f"value at most {MAX_WINDOW}") in capsys.readouterr().err


def test_analyze_index_above_degree_exits_2(tmp_path, capsys,
                                            pirola_datum_obj):
    """Cut to one fiber point, the degree-3 pirola datum passes every other
    check, but no point of a degree-1 cover has ramification index 3."""
    def edit(obj):
        obj["degree"] = 1
        obj["fiber"]["labels"] = obj["fiber"]["labels"][:1]
        obj["fiber"]["ratios"] = obj["fiber"]["ratios"][:1]
    assert _analyze_edited(tmp_path, pirola_datum_obj, edit) == 2
    assert "chart_valuations[0]: index 3 > degree 1;" in \
        capsys.readouterr().err


def _hint_with_ones(k):
    def edit(obj):
        obj["alpha_index_hint"] = k
        for row in obj["fiber"]["ratios"]:
            row[k] = "1"
    return edit


def _hint_swapped(obj):
    obj["alpha_index_hint"] = 1
    for row in obj["fiber"]["ratios"]:
        row[0], row[1] = row[1], row[0]


@pytest.mark.parametrize("edit,k", [
    (_hint_with_ones(1), 1), (_hint_with_ones(2), 2), (_hint_with_ones(3), 3),
    (_hint_swapped, 1)], ids=["ones-1", "ones-2", "ones-3", "swap-0-1"])
def test_analyze_hint_not_the_pullback_on_charts_exits_2(
        tmp_path, capsys, pirola_datum_obj, edit, k):
    """A hinted form whose fiber column is all ones but whose chart series
    are not the alpha pullback is refused by validation.  Unchecked, hint 3
    exited 0 with a report from the wrong alpha, and the others exited 3."""
    assert _analyze_edited(tmp_path, pirola_datum_obj, edit) == 2
    assert (f"trace_consistency: trace vector nonzero; form {k} differs from "
            "the alpha pullback at charts [0, 1, 2]") in \
        capsys.readouterr().err


def _ratio_column(k, values):
    def edit(obj):
        for row, value in zip(obj["fiber"]["ratios"], values):
            row[k] = value
    return edit


def _chart0_series(member, key, value):
    """Set one member of chart 0's alpha pullback or of one of its forms."""
    def edit(obj):
        chart = obj["charts"][0]
        series = chart["alpha_pullback"] if member == "alpha" else \
            chart["forms"][member]
        series[key] = value
    return edit


def _unhinted_alpha_coefficient(obj):
    obj["alpha_index_hint"] = None
    obj["charts"][0]["alpha_pullback"]["coeffs"][3] = "5"


@pytest.mark.parametrize("edit,message", [
    (_set("alpha_index_hint", 7), "ValidationFailed: datum failed "
     "validation: trace_consistency: trace vector nonzero; alpha index 7 out "
     "of range"),
    (_set("alpha_index_hint", 1), "ValidationFailed: datum failed "
     "validation: trace_consistency: trace vector nonzero; trace at alpha "
     "index = 0, expected 3; form 1 differs from the alpha pullback at "
     "charts [0, 1, 2]"),
    (_ratio_column(0, ["2", "0", "1"]), "ValidationFailed: datum failed "
     "validation: trace_consistency: trace vector nonzero; alpha column of "
     "ratios is not all ones"),
    (_chart0_series("alpha", "valuation", 1), "ValidationFailed: datum "
     "failed validation: chart_valuations[0]: alpha pullback valuation 1 != "
     "index-1 = 2; trace_consistency: trace vector nonzero; form 0 differs "
     "from the alpha pullback at charts [0]"),
    (_chart0_series(1, "valuation", -1), "ValidationFailed: datum failed "
     "validation: chart_valuations[0]: form 1 has a pole (valuation -1)"),
    (lambda obj: obj["field"].update(cyclotomic_order=8),
     "SchemaError: /field/cyclotomic_order: unsupported cyclotomic order 8; "
     "supported: (1, 2, 3, 4, 5, 6, 7, 11, 13)"),
    (_unhinted_alpha_coefficient, "ValidationFailed: no basis combination "
     "matches the alpha pullback data"),
], ids=["hint-out-of-range", "hint-not-alpha", "alpha-column-not-ones",
        "alpha-valuation", "form-pole", "field-order-8",
        "unhinted-alpha-unsolvable"])
def test_analyze_refused_datum_exits_2(tmp_path, capsys, pirola_datum_obj,
                                       edit, message):
    """Each edit of the window-10 pirola datum is refused with exit 2 and
    one stderr line naming the failure, not a traceback."""
    assert _analyze_edited(tmp_path, pirola_datum_obj, edit) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_analyze_action_order_outside_the_field_exits_2(tmp_path, capsys,
                                                        pirola_built):
    """Q(zeta_3) has no primitive 4th root of unity, so the stock action
    stated with order 4 is refused before its matrix is read as an
    order-4 generator."""
    datum_path, action_path = pirola_built
    obj = json.loads(action_path.read_text())
    obj["order"] = 4
    action = tmp_path / "action.json"
    action.write_text(json.dumps(obj))
    assert main(["analyze", str(datum_path), "--action", str(action)]) == 2
    assert capsys.readouterr().err == \
        "error: FieldError: field lacks a primitive 4-th root of unity\n"


@pytest.mark.parametrize("spec,message", [
    ({**spec_to_json(pirola_spec(10)), "c": {"x": "1", "y": "1"}},
     "InputError: point (1, 1) is not on the curve"),
    ({**spec_to_json(pirola_spec(10)), "h": {"P": ["-1", "-1"], "Q": ["1"]}},
     "FieldTooSmall: no admissible base point with an exact root found in "
     "the search range; supply one explicitly or rescale the cover function"),
    ({"E": {"A": "-1", "B": "0"}, "h": {"P": [], "Q": ["1"]}, "N": 2,
      "c": "auto", "precision": 10},
     "UnsupportedRamification: valuation -3 at O: need v = 1 or 2 | v"),
], ids=["base-point-off-curve", "no-base-point", "ramification-at-O"])
def test_build_refused_spec_exits_2(tmp_path, capsys, spec, message):
    """A base point off the curve, a cover function -2 times the pirola
    one (no rational point searched, off its divisor, has an exact cube
    root of its value in Q(zeta_3)), and w^2 = y on y^2 = x^3 - x (a pole
    of order 3 at O, odd for a double cover) each exit 2 with one stderr
    line."""
    spec_path = _write_spec(tmp_path / "spec.json", spec)
    assert main(["build", spec_path, "--out", str(tmp_path / "d.json")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["build", "demo"])
def test_precision_flag_above_limit_exits_2(tmp_path, capsys, command):
    assert MAX_WINDOW >= 80
    argv = {"build": ["build", _write_spec(tmp_path / "spec.json",
                                           spec_to_json(pirola_spec(10))),
                      "--out", str(tmp_path / "d.json")],
            "demo": ["demo-pirola"]}[command]
    assert main(argv + ["--precision", str(MAX_WINDOW + 1)]) == 2
    assert (f"PrecisionUnreachable: requested window {MAX_WINDOW + 1} is "
            f"above the limit {MAX_WINDOW}") in capsys.readouterr().err


# -- property: mutated inputs end in exit 0, 2 or 3 ---------------------------

def _paths(obj, prefix=()):
    """Every member and item of a JSON document, as key paths."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


# "_" and "\u0663" (Arabic-Indic three) are taken by int() but not by the
# scalar grammar
SCALAR_TEXT = st.text(alphabet="0123456789-+*/^ze. _\u0663", max_size=12)
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-4, 24),
    st.sampled_from([10 ** 6, -10 ** 6, 2 ** 70, math.inf, math.nan, 0.5]),
    SCALAR_TEXT, st.lists(st.integers(-2, 2) | SCALAR_TEXT, max_size=4),
    st.dictionaries(st.sampled_from(["valuation", "prec", "coeffs", "P"]),
                    st.integers(-2, 12) | SCALAR_TEXT, max_size=3))


@st.composite
def _mutations(draw, docs):
    """(document name, mutated copy): one member replaced by another JSON
    value or deleted, or one scalar string rewritten."""
    name = draw(st.sampled_from(sorted(docs)))
    obj = copy.deepcopy(docs[name])
    path = draw(st.sampled_from(list(_paths(obj))))
    if not path:
        return name, draw(JSON_VALUES)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    kind = draw(st.sampled_from(["replace", "delete", "scalar"]))
    if kind == "delete":
        del parent[path[-1]]
    elif kind == "scalar" and isinstance(parent[path[-1]], str):
        text = parent[path[-1]]
        cut = draw(st.integers(0, len(text)))
        parent[path[-1]] = text[:cut] + draw(SCALAR_TEXT) + text[cut + 1:]
    else:
        parent[path[-1]] = draw(JSON_VALUES)
    return name, obj


@pytest.fixture(scope="module")
def pirola_docs(pirola_built):
    datum_path, action_path = pirola_built
    return {"datum": json.loads(datum_path.read_text()),
            "action": json.loads(action_path.read_text()),
            "spec": spec_to_json(pirola_spec(precision=10))}


def test_mutated_inputs_exit_0_2_or_3(pirola_docs, tmp_path_factory):
    """No mutation of the pirola datum, action or spec ends in a traceback:
    every error is an InputError (exit 2) or an IdentityError (exit 3),
    which ``main`` turns into its exit code."""
    tmp = tmp_path_factory.mktemp("mutated")
    files = {name: tmp / f"{name}.json" for name in pirola_docs}

    @settings(max_examples=250, derandomize=True, deadline=None,
              database=None)
    @given(_mutations(pirola_docs))
    def check(mutation):
        name, obj = mutation
        for other, doc in pirola_docs.items():
            files[other].write_text(json.dumps(doc if other != name else obj))
        out = str(tmp / "out.json")
        argv = ["build", str(files["spec"]), "--out", out] \
            if name == "spec" else \
            ["analyze", str(files["datum"]), "--action",
             str(files["action"]), "--json", "--out", out]
        assert main(argv) in (0, 2, 3)

    check()
