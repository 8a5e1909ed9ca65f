"""Benchmark of the three ellprym CLI paths, measured from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --smoke     # window 10, seconds

Run it from the root of a source checkout; it imports nothing from the
program.  Every timed invocation is ``python -m ellprym.cli ...`` in a fresh
process, one at a time (a closed loop with one client), pinned to one CPU
that it shares with a reference loop run by this process; its CPU time is
rescaled by the reference's speed over the same interval.  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
separate traced run (see traced_cli.py).  Every output is compared with the
digests in golden.json; a nonzero exit or a mismatch counts as a failed
invocation.  The last line of standard output is the JSON result.
See README.md in this directory.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
WINDOW = 40
SMOKE_WINDOW = 10
SMOKE_SECONDS = 1
# --seed picks one of this many pinned dense-analyze inputs (seed modulo it);
# golden.json holds the datum digest of each.
SEED_CLASSES = 20
MIN_SAMPLES = 1
SETUP_SAMPLES = 15
TRACED_RUNS = 2
INVOCATION_TIMEOUT_S = 150
# Nominal seconds of one reference_chunk() on an unloaded host (Xeon, 2 vCPU,
# Python 3.12); norm_cpu_s and setup_s are expressed at this speed.
REF_CHUNK_S = 0.25e-3

# workload -> names of the output files it checks against golden.json
OUTPUTS = {
    "demo-galois-w40": ("report",),
    "build-double3-w40": ("datum", "action"),
    "analyze-double4-dense-w40": ("report",),
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def digest(path):
    with open(path, "rb") as fh:
        data = fh.read()
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under perfbench/work, removed afterwards."""
    root = os.path.join(HERE, "work")
    os.makedirs(root, exist_ok=True)
    path = tempfile.mkdtemp(dir=root)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(root)


def cli_argv(workload, window, input_path, outs):
    """The arguments a user would give ``ellprym`` for this workload."""
    if workload == "demo-galois-w40":
        argv = ["demo-pirola", "--json", "--out", outs["report"]]
        return argv if window == WINDOW else argv + ["--precision", str(window)]
    if workload == "build-double3-w40":
        return ["build", input_path, "--out", outs["datum"],
                "--action-out", outs["action"]]
    return ["analyze", input_path, "--json", "--out", outs["report"]]


REF_A = [Fraction(i + 1, 2 * i + 3) for i in range(12)]
REF_B = [Fraction(3 * i - 1, i + 5) for i in range(12)]


def reference_chunk():
    """A fixed slice of exact arithmetic, like the program's own inner loops."""
    return [sum((REF_A[i] * REF_B[k - i] for i in range(k + 1)), Fraction(0))
            for k in range(12)]


def pin_to_one_cpu():
    """Keep this process and every child on one CPU, so the reference loop
    shares the child's CPU and sees the same host speed.  Returns the CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Run:
    """One finished process: its wall and CPU seconds, peak RSS, exit code,
    and the CPU seconds per reference_chunk() measured while it ran."""

    def __init__(self, wall, cpu, rss_mb, code, chunk_s):
        self.wall, self.cpu, self.rss_mb = wall, cpu, rss_mb
        self.code, self.chunk_s = code, chunk_s

    def norm(self, cpu=None):
        """CPU seconds rescaled to a host running the reference at REF_CHUNK_S."""
        return (self.cpu if cpu is None else cpu) * REF_CHUNK_S / self.chunk_s


def run_process(cmd, env, reference=True):
    """Run cmd to its end on this process's CPU.

    With `reference`, this process runs reference_chunk() in a loop until the
    child exits, so the two share the CPU in turn; the chunk's CPU time then
    measures the host's speed over exactly the child's life.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
    cpu0 = time.process_time()
    chunks = 0
    try:
        while True:
            if reference:
                reference_chunk()
                chunks += 1
            else:
                time.sleep(0.005)
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - start > INVOCATION_TIMEOUT_S:
                proc.kill()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    chunk_s = (time.process_time() - cpu0) / chunks if chunks else REF_CHUNK_S
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
               proc.returncode, chunk_s)


def calibrate():
    """Median seconds of a fixed pure-Python loop: a slowed host reads higher."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(500_000):
            acc += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment(root, nproc):
    model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    src = os.path.join(root, "src", "ellprym")
    tree = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            tree.update(name.encode() + b"\0")
            with open(os.path.join(src, name), "rb") as fh:
                tree.update(fh.read())
    return {"python": platform.python_version(),
            "nproc": nproc,
            "cpu_model": model, "git_commit": commit,
            "src_sha256": tree.hexdigest()}


class Bench:
    """One workload at one window in one checkout: inputs, invocations, checks."""

    def __init__(self, root, workload, window, seed, golden, work):
        self.root = root
        self.workload = workload
        self.window = window
        self.golden = golden
        self.work = work
        self.seed_class = seed % SEED_CLASSES
        path = os.path.join(root, "src")
        if os.environ.get("PYTHONPATH"):
            path += os.pathsep + os.environ["PYTHONPATH"]
        self.env = dict(os.environ, PYTHONPATH=path)
        self.attempted = 0
        self.failed = 0
        self.input_path = None
        self.input_bytes = 0
        self.output_bytes = {}

    def check_program(self):
        """Fail unless `ellprym.cli` imports from this checkout's src/."""
        cli = os.path.join(self.root, "src", "ellprym", "cli.py")
        if not os.path.isfile(cli):
            raise BenchError(f"no program here: {cli} is missing")
        proc = subprocess.run(
            [sys.executable, "-c",
             "import ellprym.cli, sys; sys.stdout.write(ellprym.cli.__file__)"],
            env=self.env, capture_output=True, text=True, timeout=60,
            check=False)
        if proc.returncode != 0 or \
                os.path.realpath(proc.stdout) != os.path.realpath(cli):
            raise BenchError("cannot import ellprym.cli from src/: "
                             + proc.stderr.strip()[-500:])

    def generate_input(self, seed_class, path):
        """Write the input with inputs.py; return the digests it reports."""
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "inputs.py"), self.workload,
             str(self.window), str(seed_class), path],
            env=self.env, capture_output=True, text=True,
            timeout=INVOCATION_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise BenchError("input generation failed: "
                             + proc.stderr.strip()[-1000:])
        return json.loads(proc.stdout.splitlines()[-1])

    def prepare_input(self):
        """Write the workload's input and check its digests (untimed)."""
        if self.workload == "demo-galois-w40":
            return
        path = os.path.join(self.work, "input.json")
        got = self.generate_input(self.seed_class, path)
        want = self.expected_input()
        if got != want:
            raise BenchError(
                f"generated input differs from golden.json for seed class "
                f"{self.seed_class}: got {got}, want {want}")
        self.input_path = path
        self.input_bytes = got.get("datum", {}).get("bytes", 0)

    def expected_input(self):
        g = self.golden
        if self.workload == "build-double3-w40":
            return {"spec": g["spec"]}
        return {"stock_datum": g["stock_datum"],
                "datum": g["datum_by_seed"][self.seed_class]}

    def invoke(self, traced=False):
        """One checked invocation; returns (Run, trace or None).

        Untraced invocations share their CPU with the reference loop; traced
        ones run alone, so that their span times read as CPU time."""
        outs = {name: os.path.join(self.work, f"out-{name}.json")
                for name in OUTPUTS[self.workload]}
        argv = cli_argv(self.workload, self.window, self.input_path, outs)
        if traced:
            trace_path = os.path.join(self.work, "trace.json")
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"),
                   trace_path, *argv]
        else:
            cmd = [sys.executable, "-m", "ellprym.cli", *argv]
        run = run_process(cmd, self.env, reference=not traced)
        ok = run.code == 0
        if not ok:
            print(f"invocation failed with exit code {run.code}: {cmd}",
                  file=sys.stderr)
        self.output_bytes = {}
        for name, path in outs.items():
            try:
                got = digest(path)
                os.remove(path)
            except OSError:
                got = None
            if got != self.golden[name]:
                ok = False
                print(f"output {name} differs from golden.json: {got}",
                      file=sys.stderr)
            self.output_bytes[name] = got["bytes"] if got else 0
        trace = None
        if traced:
            try:
                with open(trace_path, encoding="utf-8") as fh:
                    trace = json.load(fh)
                os.remove(trace_path)
                run.cpu -= trace["exit_work_s"]
            except (OSError, ValueError) as exc:
                ok = False
                print(f"traced run wrote no trace: {exc}", file=sys.stderr)
        self.attempted += 1
        self.failed += not ok
        return run, trace

    def sample(self, seconds):
        """Untraced invocations for about `seconds` (at least MIN_SAMPLES):
        the last one starts only if at least half of it fits."""
        runs = []
        start = time.perf_counter()
        while len(runs) < MIN_SAMPLES or \
                time.perf_counter() - start + runs[-1].wall / 2 < seconds:
            runs.append(self.invoke()[0])
        return runs

    def setup_runs(self):
        """Fresh interpreters importing ellprym.cli, each beside the reference."""
        cmd = [sys.executable, "-c", "import ellprym.cli"]
        run_process(cmd, self.env)  # writes the bytecode cache
        runs = []
        for _ in range(SETUP_SAMPLES):
            run = run_process(cmd, self.env)
            if run.code != 0:
                raise BenchError("importing ellprym.cli failed")
            runs.append(run)
        return runs


def tail_percentile(values):
    """Highest of p99/p95/p90/p75 with at least ten samples above it, or None."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def describe(name, values, unit):
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    text = (f"{name}: median {med:.4f} {unit}  q1 {q1:.4f}  q3 {q3:.4f}  "
            f"n {len(values)}")
    tail = tail_percentile(values)
    if tail:
        text += f"  p{tail[0]} {tail[1]:.4f}"
    return text


def layer_of(span):
    """Layer of a span name: its module, with Matrix split out of scalars."""
    return "scalars.Matrix" if span.startswith("scalars.Matrix.") \
        else span.split(".", 1)[0]


def layer_metrics(traces, untraced_cpu, datum_bytes, report_bytes):
    """Per-layer metrics from the traced runs; times are medians over runs."""
    first = traces[0]
    calls = first["calls"]
    S, M, T = "scalars.Scalar.", "scalars.Matrix.", "series.TruncatedSeries."

    def count(*spans):
        return sum(calls.get(s, 0) for s in spans)

    def med(key, span):
        return statistics.median(t[key].get(span, 0.0) for t in traces)

    def incl(span):
        return med("inclusive_s", span)

    def self_s(layer):
        return statistics.median(
            sum(v for k, v in t["own_s"].items() if layer_of(k) == layer)
            for t in traces)

    products = first["callers"].get(f"diffalg.multiply > {T}__mul__", 0)
    datum = first["datum"] or {"genus": 0, "charts": 0, "height_bits": 0}
    g = datum["genus"]
    useful = datum["charts"] * g * (g + 1) // 2
    traced_cpu = statistics.median(t["cpu_s"] for t in traces)
    return {
        "scalars.mul.calls": count(S + "__mul__"),
        "scalars.add.calls": count(S + "__add__", S + "__sub__",
                                   S + "__rsub__", S + "__neg__"),
        "scalars.inverse.calls": count(S + "inverse"),
        "scalars.self_s": self_s("scalars"),
        "scalars.height_bits": datum["height_bits"],
        "scalars.Matrix.rref.calls": count(M + "rref"),
        "scalars.Matrix.rref.cells": first["rref_cells"],
        "scalars.Matrix.rref_s": incl(M + "rref"),
        "scalars.Matrix.self_s": self_s("scalars.Matrix"),
        "series.mul.calls": count(T + "__mul__"),
        "series.mul.self_s": med("own_s", T + "__mul__"),
        "series.inverse.calls": count(T + "inverse"),
        "series.inverse_s": incl(T + "inverse"),
        "series.compose.calls": count(T + "compose"),
        "series.compose_s": incl(T + "compose"),
        "series.reversion_s": incl(T + "reversion"),
        "series.newton_solve_s": incl("series.newton_solve"),
        "series.self_s": self_s("series"),
        "builder.build_cover_s": incl("builder.build_cover"),
        "builder.base_series_s": incl("builder.base_series"),
        "builder.divisor_of_s": incl("builder.divisor_of"),
        "builder.self_s": self_s("builder"),
        "covering.validate.calls": count("covering.validate"),
        "covering.validate_s": incl("covering.validate"),
        "covering.load_s": incl("covering.load"),
        "covering.save_s": incl("covering.save"),
        "covering.datum_bytes": datum_bytes,
        "covering.self_s": self_s("covering"),
        "diffalg.multiply.calls": count("diffalg.multiply"),
        "diffalg.multiply_s": incl("diffalg.multiply"),
        "diffalg.multiply.series_products": products,
        "diffalg.useful_product_ratio": useful / products if products else 0.0,
        "diffalg.trace_split_s": incl("diffalg.trace_split"),
        "diffalg.quadric_kernel_s": incl("diffalg.quadric_kernel"),
        "diffalg.self_s": self_s("diffalg"),
        "prym.codifferential.calls": count("prym.codifferential"),
        "prym.codifferential_s": incl("prym.codifferential"),
        "prym.nu.calls": count("prym.nu"),
        "prym.kernel_E_s": incl("prym.kernel_E"),
        "prym.kernel_full_s": incl("prym.kernel_full"),
        "prym.self_s": self_s("prym"),
        "geometry.functpoint_check_s": incl("geometry.functpoint_check"),
        "geometry.halfgeo_criterion_s": incl("geometry.halfgeo_criterion"),
        "geometry.dimension_ledger_s": incl("geometry.dimension_ledger"),
        "geometry.self_s": self_s("geometry"),
        "equivariant.validate_action.calls":
            count("equivariant.validate_action"),
        "equivariant.validate_action_s": incl("equivariant.validate_action"),
        "equivariant.sym2_eigenspaces_s": incl("equivariant.sym2_eigenspaces"),
        "equivariant.run_battery_s": incl("equivariant.run_battery"),
        "equivariant.self_s": self_s("equivariant"),
        "cli.analyze_datum_s": incl("cli.analyze_datum"),
        "cli.self_s": self_s("cli"),
        "cli.report_bytes": report_bytes,
        "trace_overhead": traced_cpu / untraced_cpu - 1,
    }


def with_units(values, declared):
    """Attach the units BENCHMARK.json declares; the two name sets must agree."""
    names = {m["name"] for m in declared}
    if names != set(values):
        raise BenchError("metrics differ from BENCHMARK.json: "
                         f"{sorted(names ^ set(values))}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def measure(bench, seconds, contract):
    setup = bench.setup_runs()
    runs = bench.sample(seconds)
    norm = [r.norm() for r in runs]
    setup_norm = [r.norm() for r in setup]
    rss = [r.rss_mb for r in runs]
    print(describe("norm_cpu_s", norm, "s"))
    print("norm_cpu_s samples: " + " ".join(f"{v:.4f}" for v in norm))
    print(describe("setup_s", setup_norm, "s"))
    print(describe("peak_rss_mb", rss, "MB"))
    print(describe("wall_s (beside the reference loop)",
                   [r.wall for r in runs], "s"))
    print(describe("cpu_s", [r.cpu for r in runs], "s"))
    print(describe("reference_chunk_ms",
                   [r.chunk_s * 1e3 for r in runs + setup], "ms"))
    return with_units({"norm_cpu_s": statistics.median(norm),
                       "setup_s": statistics.median(setup_norm),
                       "peak_rss_mb": statistics.median(rss)},
                      contract["end_to_end"])


def measure_traced(bench, seconds, contract):
    untraced = statistics.median(r.cpu for r in bench.sample(seconds))
    traces = []
    for _ in range(TRACED_RUNS):
        run, trace = bench.invoke(traced=True)
        if trace is None:
            return None
        trace["cpu_s"] = run.cpu
        traces.append(trace)
    if any(t["calls"] != traces[0]["calls"] for t in traces):
        print("traced runs disagree on call counts", file=sys.stderr)
        bench.failed += 1
    out = bench.output_bytes
    datum_bytes = out.get("datum", bench.input_bytes)
    values = layer_metrics(traces, untraced, datum_bytes,
                           out.get("report", 0))
    layers = sorted({layer_of(s) for s in traces[0]["calls"]})
    traced = ", ".join(f"{t['cpu_s']:.4f}" for t in traces)
    print(f"untraced cpu_s median {untraced:.4f} s; traced cpu_s {traced}")
    print(f"layers with spans: {', '.join(layers)}")
    metrics = with_units(values, contract["per_layer"])
    for name, m in metrics.items():
        print(f"{name}: {m['value']} {m['unit']}")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(OUTPUTS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"window {SMOKE_WINDOW}, {SMOKE_SECONDS} s: "
                             "checks the harness quickly")
    args = parser.parse_args(argv)
    window = SMOKE_WINDOW if args.smoke else WINDOW
    root = os.getcwd()
    nproc = len(os.sched_getaffinity(0))
    cpu = pin_to_one_cpu()
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            contract = json.load(fh)
        with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
            golden = json.load(fh)["windows"][str(window)][args.workload]
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else contract["run_seconds"]

    # SIGTERM unwinds like an exception, so the running child is killed
    # and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        with scratch_dir() as work:
            bench = Bench(root, args.workload, window, args.seed, golden, work)
            bench.check_program()
            env = environment(root, nproc)
            before = calibrate()
            bench.prepare_input()
            if args.trace:
                metrics = measure_traced(bench, seconds, contract)
            else:
                metrics = measure(bench, seconds, contract)
            env["calibration_s"] = {"before": before, "after": calibrate()}
            env.update(workload=args.workload, window=window, seed=args.seed,
                       seed_class=bench.seed_class, pinned_cpu=cpu)
            print("environment: " + json.dumps(env, sort_keys=True))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if metrics is None:
        print("error: a traced run failed", file=sys.stderr)
        return 2
    print(json.dumps({"correct": bench.failed == 0,
                      "attempted": bench.attempted,
                      "failed": bench.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
