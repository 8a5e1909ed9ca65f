"""Print how much of the package one CLI command reaches.

    python tools/reach.py <ellprym command and arguments...>

Runs ``ellprym.cli.main`` on the arguments in this process, with its
standard output discarded, under a ``sys.setprofile`` hook that records
every code object called.  It then prints one line: the command, its exit
status, the AST nodes of the package functions it called (each matched to
its ``def``; a nested def counts once), and the AST nodes and names of the
package modules it loaded, which ``tests/test_source.py`` pins per command.
Run it in a fresh interpreter per command, from the directory that the
command's file arguments are relative to.  Standard library only.
"""

import ast
import contextlib
import io
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from ellprym.cli import main as cli_main
    called = set()
    sys.setprofile(lambda frame, event, _: event == "call"
                   and called.add(frame.f_code))
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli_main(argv)
    sys.setprofile(None)
    files = sorted(m.__file__ for n, m in list(sys.modules.items())
                   if n.split(".")[0] == "ellprym")
    names = sorted(n.split(".")[1] for n in sys.modules
                   if n.startswith("ellprym."))
    trees = {}
    for f in files:
        with open(f, encoding="utf-8") as fh:
            trees[f] = ast.parse(fh.read())
    defs = {(f, min([d.lineno for d in n.decorator_list] + [n.lineno]),
             n.name): n
            for f, t in trees.items() for n in ast.walk(t)
            if isinstance(n, ast.FunctionDef)}
    reached = {id(x) for c in called
               for n in [defs.get((c.co_filename, c.co_firstlineno,
                                   c.co_name))] if n
               for x in ast.walk(n)}
    loaded = sum(1 for t in trees.values() for _ in ast.walk(t))
    print(f"{' '.join(argv)}: exit {status}; {len(reached)} AST nodes in the "
          f"package functions it calls, {loaded} in the {len(files)} package "
          f"modules it loads: {' '.join(names)}")


if __name__ == "__main__":
    main(sys.argv[1:])
