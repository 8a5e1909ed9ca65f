"""Run the ellprym CLI with a timing span around every public function.

    python perfbench/traced_cli.py TRACE_OUT <ellprym arguments...>

Every public function and method of the package (plus the arithmetic
operators of its classes) is replaced by a wrapper, at every module and
class binding that refers to it: ``multiply`` bound in ``prym`` and
``geometry``, ``nu`` in ``geometry`` and ``equivariant``, aliases such as
``Scalar.__radd__``.  A wrapper counts calls per caller, and records
inclusive time (outermost activation only) and own time (time while it is
the innermost active span).  Aggregates stay in memory and are written to
TRACE_OUT as JSON once the command has returned.  Nothing under src/
changes.
"""

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction

MODULES = ("scalars", "series", "covering", "builder", "diffalg", "prym",
           "geometry", "equivariant", "cli")
OPERATORS = frozenset({"__add__", "__radd__", "__sub__", "__rsub__",
                       "__neg__", "__mul__", "__rmul__", "__truediv__",
                       "__rtruediv__", "__pow__"})
ROOT = "<root>"


class Tracer:
    """Span aggregates by span name; the innermost active span owns the clock."""

    def __init__(self):
        self.stack = [ROOT]
        self.edges = defaultdict(int)        # (caller, callee) -> calls
        self.inclusive = defaultdict(float)  # span -> seconds, outermost only
        self.own = defaultdict(float)        # span -> seconds while innermost
        self.depth = defaultdict(int)
        self.last = time.perf_counter()

    def wrap(self, name, fn):
        clock = time.perf_counter
        stack, edges, own = self.stack, self.edges, self.own
        inclusive, depth = self.inclusive, self.depth
        tracer = self

        def span(*args, **kwargs):
            start = clock()
            parent = stack[-1]
            own[parent] += start - tracer.last
            edges[parent, name] += 1
            active = depth[name]
            depth[name] = active + 1
            stack.append(name)
            tracer.last = start
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                own[name] += end - tracer.last
                tracer.last = end
                stack.pop()
                depth[name] = active
                if not active:
                    inclusive[name] += end - start

        span.__wrapped__ = fn
        return span

    def snapshot(self):
        calls = defaultdict(int)
        for (_, callee), n in self.edges.items():
            calls[callee] += n
        return {"calls": dict(calls),
                "callers": {f"{a} > {b}": n for (a, b), n in self.edges.items()},
                "inclusive_s": dict(self.inclusive),
                "own_s": dict(self.own)}


def with_hook(span, hook):
    def hooked(*args, **kwargs):
        result = span(*args, **kwargs)
        hook(args, result)
        return result
    return hooked


def instrument(tracer, hooks):
    """Wrap every public function once and rebind it wherever it is bound.

    ``hooks`` maps a span name to ``hook(args, result)``, called after the
    span has closed.
    """
    mods = [importlib.import_module(f"ellprym.{m}") for m in MODULES]
    wrapped = {}

    def wrapper(fn, short):
        if fn not in wrapped:
            name = f"{short}.{fn.__qualname__}"
            span = tracer.wrap(name, fn)
            hook = hooks.get(name)
            wrapped[fn] = span if hook is None else with_hook(span, hook)
        return wrapped[fn]

    for mod in mods:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, val in list(vars(mod).items()):
            if getattr(val, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(val) and not attr.startswith("_"):
                wrapper(val, short)
            elif inspect.isclass(val):
                for key, raw in list(vars(val).items()):
                    if key.startswith("_") and key not in OPERATORS:
                        continue
                    if isinstance(raw, (staticmethod, classmethod)):
                        setattr(val, key,
                                type(raw)(wrapper(raw.__func__, short)))
                    elif inspect.isfunction(raw):
                        setattr(val, key, wrapper(raw, short))
    for mod in mods:
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in wrapped:
                setattr(mod, attr, wrapped[val])


def height_bits(datum_json):
    """Largest numerator or denominator bit length among the datum's scalars."""
    texts = [row for chart in datum_json["charts"]
             for series in [chart["alpha_pullback"], *chart["forms"]]
             for row in series["coeffs"]]
    texts += [x for row in datum_json["fiber"]["ratios"] for x in row]
    bits = 0
    for text in texts:
        for term in text.split(" + "):
            q = Fraction(term.split("*")[0])
            bits = max(bits, abs(q.numerator).bit_length(),
                       q.denominator.bit_length())
    return bits


def main(argv):
    trace_out, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    datums = []
    cells = [0]

    def rref_cells(args, _):
        cells[0] += args[0].nrows * args[0].ncols

    instrument(tracer, {
        "covering.save": lambda args, _: datums.append(args[0]),
        "covering.load": lambda _, datum: datums.append(datum),
        "builder.build_cover": lambda _, result: datums.append(result.datum),
        "scalars.Matrix.rref": rref_cells,
    })
    from ellprym import cli, covering

    tracer.last = time.perf_counter()
    code = cli.main(cli_argv)
    result = tracer.snapshot()
    exit_start = time.process_time()
    result["rref_cells"] = cells[0]
    result["datum"] = None
    if datums:
        result["datum"] = {
            "genus": datums[0].genus,
            "charts": len(datums[0].charts),
            "height_bits": max(height_bits(covering.datum_to_json(d))
                               for d in datums),
        }
    result["exit_work_s"] = time.process_time() - exit_start
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
