"""Golden outputs: formula files, the comparison table, curve rows and bound
certificates, pinned byte for byte.

Refactors must not change what curvemul writes.  The files under
tests/golden/ were recorded before the element-representation refactor
(`curves_q8_min13.txt` before N2 came from the zeta function,
`curves_q9.txt`, `curves_q32_min42.txt` and `curves_q49_min60.txt` before
the Weierstrass sweeps ran on raw indices, `curves_q27_min38.txt` (the p = 3
normal form) and `curves_q7_min13.txt` (the full sweep, a1 and a3 nonzero
included) before the odd-characteristic sweep read per-(b2, b4) rows,
`bound_depth3_wide.txt` before best_bound stopped at the rank floor,
`formula_9_7_n1_16_case1.json` before genus-1 local conditions became
congruences over F_q[x]) with
`PYTHONPATH=src python tests/test_golden.py`.  The recorder writes only the
files that are missing: an existing file whose content differs is left as it
is, named on stderr, and the exit code is 1, so adding a file never re-records
a pinned output.  The test recomputes every output and compares bytes.
"""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
import time

from curvemul import ccma, cli
from curvemul.gf import canonical_extension, prime_field
from curvemul.function_field import EllipticCurve, curve_search

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
BOUND_QS = (2, 3, 4, 5, 7, 8, 9, 16)
BOUND_NS = range(2, 7)
# the cells of the benchmark's bound sweep that bound_depth3.txt leaves out
WIDE_CELLS = ([(q, n) for q in BOUND_QS for n in (7, 8)]
              + [(q, n) for q in (25, 32, 49, 64) for n in range(2, 9)])


def _cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0:
        raise AssertionError("curvemul %s exited %d" % (" ".join(argv), code))
    return out.getvalue()


def _formula_file(formula):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.json")
        ccma.save_formula(formula, path)
        with open(path) as fh:
            return fh.read()


def _genus1_16_6():
    """Genus-1 case 1 over F_16 at n = 6, on the N1 = 25 curve
    y^2 + y = x^3 + 8: its degree-6 places live in F_(2^24), above the 2^20
    point budget.  Recorded when the fiber solver became algebraic; the
    place search refused it before."""
    F16 = canonical_extension(prime_field(2), 4)
    return ccma.construct_case1(16, 6, EllipticCurve(F16, 0, 0, 1, 0, 8))


def _genus1_9_7():
    """Genus-1 case 1 over F_9 at n = 7 on y^2 = x^3 + x (N1 = 16).  Its Q
    is the flip of D's degree-7 place, so every L(2D) value at Q is taken
    where the denominator vanishes."""
    F9 = canonical_extension(prime_field(3), 2)
    return ccma.construct_case1(9, 7, EllipticCurve(F9, 0, 0, 0, 1, 0))


def _bounds(cells):
    return "".join(_cli("bound", "--q", str(q), "--n", str(n), "--depth", "3") for q, n in cells)


def golden_outputs():
    """{file name under tests/golden: text} for every pinned output."""
    F4 = canonical_extension(prime_field(2), 2)
    curve = curve_search(F4, 9)[0].curve
    formulas = {
        "formula_2_2_g0_case1.json": ccma.construct_case1(2, 2),
        "formula_4_3_g0_case1.json": ccma.construct_case1(4, 3),
        "formula_16_4_g0_case1.json": ccma.construct_case1(16, 4),
        "formula_4_4_n1_9_case1.json": ccma.construct_case1(4, 4, curve),
        "formula_16_6_n1_25_case1.json": _genus1_16_6(),
        "formula_9_7_n1_16_case1.json": _genus1_9_7(),
        "formula_2_3_g0_case3.json": ccma.construct_case3(2, 3),
        "formula_compose_2_2_4_2.json": ccma.compose(ccma.construct_case1(2, 2),
                                                     ccma.construct_case1(4, 2)),
        "formula_compose_3_2_9_4.json": ccma.compose(ccma.construct_case1(3, 2),
                                                     ccma.construct_case1(9, 4)),
    }
    out = {name: _formula_file(f) for name, f in formulas.items()}
    out["compare_table.txt"] = _cli("compare-table")
    out["curves_q4.txt"] = _cli("curves", "--q", "4")
    out["curves_q5.txt"] = _cli("curves", "--q", "5")
    out["curves_q8_min13.txt"] = _cli("curves", "--q", "8", "--min-n1", "13")
    # one normal-form family per characteristic: p = 3, p = 2, p >= 5
    out["curves_q9.txt"] = _cli("curves", "--q", "9")
    out["curves_q27_min38.txt"] = _cli("curves", "--q", "27", "--min-n1", "38")
    out["curves_q7_min13.txt"] = _cli("curves", "--q", "7", "--min-n1", "13")
    out["curves_q32_min42.txt"] = _cli("curves", "--q", "32", "--min-n1", "42")
    out["curves_q49_min60.txt"] = _cli("curves", "--q", "49", "--min-n1", "60")
    out["bound_depth3.txt"] = _bounds((q, n) for q in BOUND_QS for n in BOUND_NS)
    out["bound_depth3_wide.txt"] = _bounds(WIDE_CELLS)
    return out


def record(outputs, directory):
    """Write each output whose file is missing; name on stderr, and leave
    alone, each existing file whose content differs.  Returns the exit code."""
    os.makedirs(directory, exist_ok=True)
    code = 0
    for name, text in outputs.items():
        path = os.path.join(directory, name)
        if not os.path.exists(path):
            with open(path, "w", newline="") as fh:
                fh.write(text)
            continue
        with open(path, newline="") as fh:
            if fh.read() != text:
                print("%s differs from the code's output; left as it is" % path, file=sys.stderr)
                code = 1
    return code


def test_golden_outputs_byte_identical():
    outputs = golden_outputs()
    assert sorted(outputs) == sorted(os.listdir(GOLDEN))
    for name, text in outputs.items():
        with open(os.path.join(GOLDEN, name), newline="") as fh:
            assert text == fh.read(), name


def test_genus1_formula_above_point_budget():
    t0 = time.perf_counter()
    formula = _genus1_16_6()
    elapsed = time.perf_counter() - t0
    assert elapsed < 3.0, "construct_case1(16, 6) on the N1 = 25 curve took %.2fs" % elapsed
    assert formula.rank == 12 and formula.tower.ext_field.size == 2 ** 24
    assert ccma.verify(formula, "tensor").passed
    with open(os.path.join(GOLDEN, "formula_16_6_n1_25_case1.json"), newline="") as fh:
        assert _formula_file(formula) == fh.read()


COLD_9_7 = """
import sys, time
sys.path.insert(0, sys.argv[1])
from test_golden import _genus1_9_7
t0 = time.perf_counter()
formula = _genus1_9_7()
print(time.perf_counter() - t0, formula.rank)
"""


def test_genus1_odd_formula_at_a_flip_place_budget():
    # from cold, in a fresh interpreter: no table or place scan is shared
    # with the tests that ran before
    src = os.path.dirname(os.path.dirname(os.path.abspath(ccma.__file__)))
    done = subprocess.run([sys.executable, "-c", COLD_9_7, os.path.dirname(GOLDEN)],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    elapsed, rank = done.stdout.split()
    assert rank == "14"
    assert float(elapsed) < 0.6, "construct_case1(9, 7) on y^2 = x^3 + x took %ss" % elapsed


def test_recorder_writes_only_missing_files(tmp_path, capsys):
    (tmp_path / "same.txt").write_text("a\n")
    (tmp_path / "pinned.txt").write_text("old\n")
    code = record({"same.txt": "a\n", "pinned.txt": "new\n", "missing.txt": "m\n"},
                  str(tmp_path))
    assert code == 1 and "pinned.txt" in capsys.readouterr().err
    assert (tmp_path / "pinned.txt").read_text() == "old\n"
    assert (tmp_path / "missing.txt").read_text() == "m\n"
    assert record({"same.txt": "a\n"}, str(tmp_path)) == 0


if __name__ == "__main__":
    sys.exit(record(golden_outputs(), GOLDEN))
