"""Write the input file of one benchmark workload, using the program's library.

    python perfbench/inputs.py build-double3-w40 WINDOW SEED OUT
    python perfbench/inputs.py analyze-double4-dense-w40 WINDOW SEED OUT

The build input is ``spec_to_json(bielliptic_spec(3, WINDOW))``.  The dense
analyze input is the stock genus-4 double-cover datum with every chart
moved to a seeded random local parameter by ``covering.reparametrized``;
``OUT.stock`` receives the stock datum it started from.  Prints one JSON
line with the sha256 digest and byte length of each file written, which
the caller compares against ``golden.json``.  This runs outside every
timed measurement.
"""

import json
import random
import sys
from fractions import Fraction

from ellprym import builder, covering
from ellprym.series import TruncatedSeries
from run import digest


NONZERO = (-3, -2, -1, 1, 2, 3)


def substitutions(datum, seed):
    """Per chart, u -> +-u + c2 u^2 + c3 u^3, known exactly one term past the
    chart window.

    With valuation 1, a unit linear coefficient and precision window + 1,
    ``transform_form`` keeps every chart window unchanged.  A cubic already
    makes every chart coefficient nonzero; higher random terms would only
    slow the composition that makes the input.
    """
    rng = random.Random(seed)
    field = datum.field
    subs = {}
    for j, chart in enumerate(datum.charts):
        window = chart.window()
        coeffs = [field.scalar(rng.choice((1, -1)))]
        coeffs += [field.scalar(Fraction(rng.choice(NONZERO), rng.randint(1, 3)))
                   for _ in range(2)]
        coeffs += [field.zero()] * (window - 3)
        subs[j] = TruncatedSeries.from_coefficients(field, 1, coeffs,
                                                    window + 1)
    return subs


def main(argv):
    workload, window, seed, out = argv[0], int(argv[1]), int(argv[2]), argv[3]
    if workload == "build-double3-w40":
        spec = builder.spec_to_json(builder.bielliptic_spec(3, window))
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(spec, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(json.dumps({"spec": digest(out)}))
        return 0
    if workload == "analyze-double4-dense-w40":
        stock = builder.build_cover(builder.bielliptic_spec(4, window)).datum
        covering.save(stock, out + ".stock")
        dense = covering.reparametrized(stock, substitutions(stock, seed))
        before = [c.window() for c in stock.charts]
        after = [c.window() for c in dense.charts]
        if before != after:
            print(f"error: chart windows changed from {before} to {after}",
                  file=sys.stderr)
            return 2
        covering.save(dense, out)
        print(json.dumps({"stock_datum": digest(out + ".stock"),
                          "datum": digest(out)}))
        return 0
    print(f"error: workload {workload!r} takes no input file", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
