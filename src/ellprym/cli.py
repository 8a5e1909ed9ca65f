"""Batch front door: build covering data, analyze it, run the demo battery.

Exit codes: 0 success, 2 input or build error, 3 violation of a
theorem-mandated identity on otherwise valid input.  Reports embed the
normalization conventions (no 2*pi*i on residue slots, base differential
dx/y, character relabeling) so results are interpretable on their own.
JSON output is deterministic: two runs on identical inputs are
byte-identical.  Each subcommand imports the layers it runs, on top of what
every command loads (this module, ``covering``, ``scalars``, ``series`` and
``errors``): ``build`` adds only ``builder``; ``analyze`` adds the reader
of its files and the analysis (``reader``, ``table``, ``diffalg``,
``prym``, ``geometry``), and with ``--action`` the battery and the change
of local parameter it moves forms by (``equivariant``, ``compose``);
``demo-pirola`` builds and runs the battery, so it loads every module but
``reader``.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import covering
from .errors import IdentityError, InputError

CONVENTIONS = {
    "residue_slots": "no 2*pi*i factor",
    "base_differential": "dx/y (all data ratio-normalized, choice inert)",
    "character_labels":
        "for order 3 the generator is squared if needed so the designated "
        "primitive root has the larger eigenspace",
}


def analyze_datum(datum, action=None):
    """Full analysis pipeline; returns the report dict."""
    from . import diffalg, geometry, prym
    report = {"conventions": CONVENTIONS,
              "validation": covering.require_valid(datum).to_json()}

    split = diffalg.trace_split(datum)
    quadrics = diffalg.quadric_kernel(datum)
    ke = prym.kernel_E(datum, split)
    crit = prym.kernel_full(ke)
    decs = [geometry.decompose_quadric(split, G) for G in quadrics]
    checks = geometry.functpoint_check(datum, decs, ke)
    point = geometry.halfgeo_criterion(datum, decs, crit)
    ledger = geometry.dimension_ledger(datum, decs, ke)

    g, n = datum.genus, datum.n_ramification
    report["dims"] = {
        "genus": g,
        "degree": datum.degree,
        "ramification_points": n,
        "branch_excess": datum.reduced_branch_excess(),
    }
    report["kernel_E"] = {
        "dim_dual": ke.dim_dual,
        "dim_dual_identity": f"g(g-1)/2 - n + 1 = {g * (g - 1) // 2 - n + 1}",
        "dim_primal": ke.dim_primal,
        "dim_primal_identity": "always 1 for non-hyperelliptic covers",
    }
    report["quadrics"] = {
        "h0": len(quadrics),
        "h0_identity": f"(g-2)(g-3)/2 = {(g - 2) * (g - 3) // 2}",
        "dual_route_checks": checks,
    }
    report["distinguished_point"] = point
    report["ledger"] = ledger
    report["criterion"] = crit.to_json()

    if action is not None:
        from . import equivariant
        equivariant.validate_action(datum, action)
        if not equivariant.action_fixes_alpha(split, action):
            raise IdentityError("action does not fix the pullback form line")
        eig = equivariant.eigenspaces(action)
        s2 = equivariant.sym2_eigenspaces(split, eig)
        report["equivariant"] = {
            "order": action.order,
            "eigendims": list(eig.dims),
            "sym2_eigendims": [len(b) for b in s2.full],
            "sym2_minus_eigendims": [len(b) for b in s2.minus],
            "generator_relabeled": eig.relabeled,
        }
        if datum.genus == 4 and action.order == 3 and datum.degree == 3:
            report["equivariant"]["battery"] = equivariant.run_battery(
                datum, action, eig, s2, decs, ke, crit)
    return report


def _write(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump(report, json_mode, out):
    if json_mode:
        text = covering.json_text(report)
    else:
        lines = []
        _render_text(report, lines)
        text = "\n".join(lines) + "\n"
    _write(text, out)


def _render_text(report, lines, prefix=""):
    for key in sorted(report):
        val = report[key]
        if isinstance(val, dict):
            lines.append(f"{prefix}{key}:")
            _render_text(val, lines, prefix + "  ")
        elif isinstance(val, list):
            lines.append(f"{prefix}{key}: {json.dumps(val, sort_keys=True)}")
        else:
            lines.append(f"{prefix}{key}: {val}")


def cmd_build(args):
    from . import builder
    spec = builder.spec_from_json(covering.read_json(args.spec))
    if args.precision is not None:
        spec = spec._replace(precision=args.precision)
    result = builder.build_cover(spec)
    # serialized first, so a ScalarTooLong in either leaves neither file
    action = result.action.to_json() if args.action_out else None
    covering.save(result.datum, args.out)
    if action is not None:
        _write(covering.json_text(action), args.action_out)
    print(f"wrote covering datum to {args.out} "
          f"(genus {result.datum.genus}, degree {result.datum.degree}, "
          f"base point {result.base_point})")
    return 0


def cmd_analyze(args):
    datum = covering.load(args.datum)
    action = None
    if args.action:
        from .reader import action_from_json
        action = action_from_json(datum, covering.read_json(args.action))
    _dump(analyze_datum(datum, action), args.json, args.out)
    return 0


def cmd_demo(args):
    from . import builder
    precision = args.precision if args.precision is not None else 40
    result = builder.build_cover(builder.pirola_spec(precision))
    report = analyze_datum(result.datum, result.action)
    battery = report["equivariant"]["battery"]
    if not battery["ok"]:
        battery["failure_note"] = (
            "first suspect: the stock fixture's membership in the intended "
            "cover family, not the analysis pipeline")
    if args.json:
        _dump(report, True, args.out)
    else:
        lines = ["degree-3 Galois cover demo "
                 f"(genus 4, window {precision} coefficients/chart)",
                 f"base point {result.base_point}, "
                 f"dim Ker (base-fixed codifferential) = "
                 f"{report['kernel_E']['dim_dual']}, "
                 f"h0(quadrics) = {report['quadrics']['h0']}"]
        lines += [f"{'PASS' if check['passed'] else 'FAIL'}  "
                  f"{check['name']}: {check['detail']}"
                  for check in battery["checks"]]
        if not battery["ok"]:
            lines.append(f"note: {battery['failure_note']}")
        _write("\n".join(lines) + "\n", args.out)
    return 0 if battery["ok"] else 3


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ellprym",
        description="Exact Prym period-map codifferentials for covers of "
                    "elliptic curves")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a covering datum from a "
                                           "cyclic cover spec")
    p_build.add_argument("spec", help="path to the cover spec JSON")
    p_build.add_argument("--out", required=True, help="output datum path")
    p_build.add_argument("--action-out", default=None,
                         help="optional path for the deck action JSON")
    p_build.add_argument("--precision", type=int, default=None,
                         help="chart coefficient window override")
    p_build.set_defaults(func=cmd_build)

    p_an = sub.add_parser("analyze", help="analyze a covering datum")
    p_an.add_argument("datum", help="path to the covering datum JSON")
    p_an.add_argument("--action", default=None,
                      help="optional deck action JSON for equivariant checks")
    group = p_an.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="JSON report")
    group.add_argument("--text", dest="json", action="store_false",
                       help="plain text report (default)")
    p_an.add_argument("--out", default=None, help="write the report here")
    p_an.set_defaults(func=cmd_analyze, json=False)

    p_demo = sub.add_parser("demo-pirola",
                            help="build the degree-3 Galois fixture and run "
                                 "the full verification battery")
    p_demo.add_argument("--precision", type=int, default=None,
                        help="chart coefficient window (default 40)")
    dgroup = p_demo.add_mutually_exclusive_group()
    dgroup.add_argument("--json", action="store_true", help="JSON report")
    dgroup.add_argument("--text", dest="json", action="store_false",
                        help="PASS/FAIL lines (default)")
    p_demo.add_argument("--out", default=None, help="write the report here")
    p_demo.set_defaults(func=cmd_demo, json=False)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except IdentityError as exc:
        print(f"identity violation: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
