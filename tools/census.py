"""Print the outcomes of the command line on 1,500 mutated inputs.

    python tools/census.py

Draws 1,500 derandomized mutations of the window-10 degree-3 Galois
fixture's datum, action and spec with ``tests/test_cli.py::_mutations``
and runs each through ``ellprym.cli.main`` in this process, as
``test_mutated_inputs_exit_0_2_or_3`` does: a mutated spec through
``build``, a mutated datum or action through ``analyze --action --json``.
Its drawing function has that test's source, so with ``derandomize`` the
draws are the same on every run and every tree.  Prints the count per
document and per exit code, then per exit code, error class and head of
its message (a SchemaError's pointer and message, without the token it
quotes; digits as ``#``), then one sha256 over every outcome in
order (document, exit code, stderr, output bytes), which two trees share
exactly when every outcome is the same.  Standard library and hypothesis.
"""

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def census(tmp):
    """Run the mutations with their files in the directory tmp."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from hypothesis import given, settings
    from test_cli import _mutations

    from ellprym.builder import pirola_spec, spec_to_json
    from ellprym.cli import main as cli_main

    spec = tmp / "fixture-spec.json"
    spec.write_text(json.dumps(spec_to_json(pirola_spec(precision=10))))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(["build", str(spec), "--out", str(tmp / "d.json"),
                         "--action-out", str(tmp / "a.json")]) == 0
    pirola_docs = {"datum": json.loads((tmp / "d.json").read_text()),
                   "action": json.loads((tmp / "a.json").read_text()),
                   "spec": spec_to_json(pirola_spec(precision=10))}
    files = {name: tmp / f"{name}.json" for name in pirola_docs}
    documents, exits, errors = Counter(), Counter(), Counter()
    digest = hashlib.sha256()

    def main(argv):
        out = Path(argv[argv.index("--out") + 1])
        if out.exists():
            out.unlink()
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli_main(argv)
        document = "spec" if argv[0] == "build" else next(
            (name for name in ("datum", "action")
             if files[name].read_text() != json.dumps(pirola_docs[name])),
            "unchanged")
        documents[document] += 1
        exits[code] += 1
        text = err.getvalue()
        if text:
            # the class, then at most two more fields: a SchemaError's
            # pointer and message, not the token it quotes
            head = ": ".join(text.strip().split(": ")[1:4])
            errors[code, re.sub(r"[0-9]+", "#", head)[:76]] += 1
        output = out.read_bytes() if out.exists() else b""
        digest.update(json.dumps([document, code, text,
                                  hashlib.sha256(output).hexdigest()]
                                 ).encode() + b"\n")
        return code

    # the source of test_mutated_inputs_exit_0_2_or_3's function, decorators
    # included, seeds the derandomized draws
    @settings(max_examples=1500, derandomize=True, deadline=None,
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
    print(f"{sum(documents.values())} mutations: " + ", ".join(
        f"{n} {name}" for name, n in sorted(documents.items())))
    print("exit codes: " + ", ".join(
        f"{n} exit {code}" for code, n in sorted(exits.items())))
    for (code, head), n in sorted(errors.items()):
        print(f"{n:5d}  exit {code}  {head}")
    print(f"outcome digest {digest.hexdigest()}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as name:
        census(Path(name))
