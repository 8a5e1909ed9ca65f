"""Print the lines of each package module that the tier-1 tests never run.

    python tools/linecov.py [pytest arguments...]

Runs pytest in this process (by default ``-q -p no:cacheprovider tests``)
under a ``sys.settrace`` line tracer that records the lines executed in
``src/ellprym``, then prints, per module, its executable lines (those that
``co_lines`` maps bytecode to) that no test executed.  Standard library
only.  Code that the tests run in a subprocess is not seen.  Tracing slows
the suite several times over, so a test with a CPU-time bound may fail
under it; the exit status is pytest's.
"""

import os
import sys
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "ellprym")


def executable_lines(path):
    """Every line some bytecode of the module's code objects maps to."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines, todo = set(), [code]
    while todo:
        co = todo.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        todo.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


def ranges(numbers):
    """'3-5, 9' for [3, 4, 5, 9]."""
    runs = []
    for n in sorted(numbers):
        if runs and n == runs[-1][1] + 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    modules = {os.path.join(PACKAGE, name): executable_lines(
        os.path.join(PACKAGE, name))
        for name in sorted(os.listdir(PACKAGE)) if name.endswith(".py")}
    seen = {path: set() for path in modules}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def scope(frame, event, arg):
        return local if frame.f_code.co_filename in seen else None

    import pytest
    threading.settrace(scope)
    sys.settrace(scope)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider",
                                      os.path.join(ROOT, "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path, lines in modules.items():
        missed = lines - seen[path]
        total += len(missed)
        print(f"{os.path.basename(path)}: {len(missed)} of {len(lines)} "
              f"lines unexecuted" + (f": {ranges(missed)}" if missed else ""))
    print(f"total: {total} of {sum(map(len, modules.values()))} lines "
          "unexecuted")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
