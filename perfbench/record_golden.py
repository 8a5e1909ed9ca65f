"""Record golden.json: the digest of every benchmark input and output.

    python3 perfbench/record_golden.py [WINDOW ...]     (default: 40 10)

Run from the root of a checkout whose reports are trusted.  For the dense
analyze workload it generates the input of every seed class, records its
digest, and checks that its report is byte-identical to the report on the
stock datum, so that one report digest covers every seed.
"""

import json
import os
import sys

import run


def cli(bench, argv):
    _, _, code = run.run_process([sys.executable, "-m", "ellprym.cli", *argv],
                                 bench.env)
    if code != 0:
        sys.exit(f"ellprym {' '.join(argv)} exited with {code}")


def record(root, window, work):
    def out(name):
        return os.path.join(work, f"{name}.json")

    def bench(workload):
        b = run.Bench(root, workload, window, 0, None, work)
        b.check_program()
        return b

    golden = {}
    demo = bench("demo-galois-w40")
    cli(demo, run.cli_argv(demo.workload, window, None,
                           {"report": out("demo")}))
    golden[demo.workload] = {"report": run.digest(out("demo"))}

    build = bench("build-double3-w40")
    entry = build.generate_input(0, out("spec"))
    cli(build, run.cli_argv(build.workload, window, out("spec"),
                            {"datum": out("datum"), "action": out("action")}))
    entry.update(datum=run.digest(out("datum")),
                 action=run.digest(out("action")))
    golden[build.workload] = entry

    dense = bench("analyze-double4-dense-w40")
    stock = None
    by_seed = []
    for seed_class in range(run.SEED_CLASSES):
        got = dense.generate_input(seed_class, out("dense"))
        if stock is None:
            stock = got["stock_datum"]
            cli(dense, run.cli_argv(dense.workload, window, out("dense") + ".stock",
                                    {"report": out("report")}))
            report = run.digest(out("report"))
        if got["stock_datum"] != stock:
            sys.exit("the stock datum differs between seed classes")
        cli(dense, run.cli_argv(dense.workload, window, out("dense"),
                                {"report": out("report")}))
        if run.digest(out("report")) != report:
            sys.exit(f"seed class {seed_class}: the dense report differs "
                     "from the stock report")
        by_seed.append(got["datum"])
        print(f"window {window} seed class {seed_class}: {got['datum']}",
              flush=True)
    golden[dense.workload] = {"stock_datum": stock, "report": report,
                              "datum_by_seed": by_seed}
    return golden


def main(argv):
    windows = [int(w) for w in argv] or [run.WINDOW, run.SMOKE_WINDOW]
    root = os.getcwd()
    path = os.path.join(run.HERE, "golden.json")
    data = {"windows": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    for window in windows:
        with run.scratch_dir() as work:
            data["windows"][str(window)] = record(root, window, work)
    data["commit"] = run.environment(root)["git_commit"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
