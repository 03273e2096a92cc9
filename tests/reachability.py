"""Which functions of src/curvemul the documented traffic leaves uncalled.

    python tests/reachability.py

Under sys.setprofile the script records the qualified name of every
src/curvemul function called while it runs, in one process:

* every job of the three perfbench workloads (imported, one seed), without
  their checks, which read the library as an oracle
* README's doctest
* the CLI commands in CLI below

It then takes every def in src/curvemul (from ast, by qualified name), and
compares the ones never called with tests/unreached.txt, one
``module:qualname`` a line.  It exits 1 and prints both differences when they
differ, and 0 otherwise.  Its summary line also gives the line count of
src/curvemul, as ``wc -l`` counts it; nothing gates on the count.  It is a
script rather than a test module so that the tier-1 suite does not grow by
its run time.
"""

import ast
import contextlib
import doctest
import io
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PKG = os.path.join(ROOT, "src", "curvemul")
ALLOWLIST = os.path.join(HERE, "unreached.txt")
GOLDEN = os.path.join(HERE, "golden")
SEED = 1

CLI = [
    ["construct", "--q", "9", "--n", "4"],
    ["construct", "--q", "16", "--n", "4", "--genus", "1"],
    ["construct", "--q", "3", "--n", "5", "--allow-degree2", "--mode", "exhaustive"],
    ["curves", "--q", "9"],
    ["bound", "--q", "3", "--n", "6", "--depth", "3"],
    ["brute-rank", "--q", "2", "--n", "2", "--max", "3"],
    ["verify", "--file", os.path.join(GOLDEN, "formula_16_4_g0_case1.json"),
     "--mode", "sampled", "--pairs", "2000"],
    ["verify", "--file", os.path.join(GOLDEN, "formula_9_7_n1_16_case1.json"),
     "--mode", "sampled", "--pairs", "2000"],
    ["asym", "--q", "16", "--tmax", "4"],
    ["compare-table"],
]


def defined():
    """({module:qualname} of every def in the package, as co_qualname spells
    it; the package's line count)."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + child.name
                yield from walk(child, prefix + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)
    out, lines = set(), 0
    for name in sorted(os.listdir(PKG)):
        if name.endswith(".py"):
            with open(os.path.join(PKG, name)) as fh:
                source = fh.read()
            lines += source.count("\n")
            out.update("%s:%s" % (name[:-3], q) for q in walk(ast.parse(source), ""))
    return out, lines


def run_traffic():
    """Run the workloads, the doctest and the CLI; return the failures."""
    import workloads
    from curvemul import cli
    failures = []
    with tempfile.TemporaryDirectory() as workdir:
        for workload in workloads.WORKLOADS.values():
            ctx = {}
            for job in workload(SEED, workdir):
                ctx[job.name] = job.run(ctx)
    result = doctest.testfile(os.path.join(ROOT, "README.md"), module_relative=False)
    if result.failed or not result.attempted:
        failures.append("README doctest: %s" % (result,))
    for argv in CLI:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code:
            failures.append("exit %s: curvemul %s" % (code, " ".join(argv)))
    return failures


def main():
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    called, seen = set(), set()
    prefix = PKG + os.sep

    def hook(frame, event, arg):
        if event == "call" and (code := frame.f_code) not in seen:
            seen.add(code)
            if code.co_filename.startswith(prefix):
                called.add("%s:%s" % (os.path.basename(code.co_filename)[:-3], code.co_qualname))
    sys.setprofile(hook)
    try:
        failures = run_traffic()
    finally:
        sys.setprofile(None)
    for failure in failures:
        print(failure)
    names, lines = defined()
    unreached = names - called
    with open(ALLOWLIST) as fh:
        listed = {line.strip() for line in fh if line.strip() and not line.startswith("#")}
    for sign, diff in (("+", unreached - listed), ("-", listed - unreached)):
        for name in sorted(diff):
            print("%s %s" % (sign, name))
    print("%d of %d defs unreached; %s; src/curvemul has %d lines" % (
        len(unreached), len(names),
        "as listed" if unreached == listed else "+ not listed, - listed but called", lines))
    return 1 if failures or unreached != listed else 0


if __name__ == "__main__":
    sys.exit(main())
