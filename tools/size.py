"""Print the source lines and AST nodes of each package module.

    python tools/size.py

One line per module of ``src/ellprym``, then their total: the lines that
ROADMAP's "Quality of design" aim asks to shrink, and the AST nodes, which
a run pays to compile for each module it loads.  Standard library only.
"""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    rows = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "ellprym", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        rows.append((os.path.relpath(path, ROOT), len(text.splitlines()),
                     sum(1 for _ in ast.walk(ast.parse(text)))))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    for path, lines, nodes in rows:
        print(f"{lines:6d} lines {nodes:7d} AST nodes  {path}")


if __name__ == "__main__":
    main()
