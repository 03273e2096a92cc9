"""Self-tests of the benchmark itself (about half a minute).

    python3 perfbench/selftest.py

Checks that a corrupted formula is counted as a failed job even when the
library's own verification is made to accept everything, that traced and
untraced passes give the same output digests, and that BENCHMARK.json's names
and counts stay within the benchmark contract.
"""

import json
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def recorded(workload):
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh)[workload]


def test_corrupted_formula_is_a_failure():
    from curvemul import ccma
    picked = ("f16_2", "f16_3")
    jobs = [j for j in workloads.large_ext_formulas(0, None) if j.name in picked]
    clean = child.run_pass(jobs, recorded("large_ext_formulas"))
    assert clean["errors"] == {}, clean["errors"]

    construct, verify = ccma.construct_case1, ccma.verify

    def corrupted(*args, **kwargs):
        f = construct(*args, **kwargs)
        (xs, c), rest = f.terms[0], f.terms[1:]
        E = f.tower.ext_field
        bad = E.vadd(c, E.value_of(E.one_index))
        return ccma.SymmetricBilinearFormula(f.tower, ((xs, bad),) + rest, f.provenance)

    def accept_all(formula, mode="auto", pairs=ccma.DEFAULT_SAMPLES, seed=0):
        return ccma.VerificationReport(True, "sampled", pairs, seed=seed)

    ccma.construct_case1, ccma.verify = corrupted, accept_all
    try:
        result = child.run_pass(jobs, recorded("large_ext_formulas"))
    finally:
        ccma.construct_case1, ccma.verify = construct, verify
    fail_ratio = len(result["errors"]) / result["jobs"]
    assert fail_ratio > 0, result
    for name in picked:
        text = " ".join(result["errors"][name])
        assert "basis pair" in text and "digest" in text, text


def pass_digests(workload, trace):
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_selftest") as work:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), "--root", ROOT,
             "--workload", workload, "--seed", "7", "--trace", str(trace),
             "--workdir", work], stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_outputs_match_untraced():
    plain = pass_digests("cli_bound_sweep", 0)
    traced = pass_digests("cli_bound_sweep", 1)
    assert plain["errors"] == {} and traced["errors"] == {}, (plain["errors"], traced["errors"])
    assert plain["digests"] == traced["digests"]
    assert plain["digests"] == recorded("cli_bound_sweep")
    measured = set(traced["layers"]) | {"trace.overhead_ratio"}
    missing = {n for n in layer_names() if n not in measured and not n.endswith(".src_lines")}
    assert not missing, missing


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def layer_names():
    return [m["name"] for m in spec()["per_layer"]]


def test_metric_names_and_counts():
    s = spec()
    metrics = s["end_to_end"] + s["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in s["workloads"]]
    assert len(names) == len(set(names)), "a name is used twice"
    for m in metrics:
        assert NAME.match(m["name"]), m
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), m
    assert 1 <= len(s["end_to_end"]) <= 16 and 1 <= len(s["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in s["end_to_end"])
    assert "setup_s" in [m["name"] for m in s["end_to_end"]]
    assert 2 <= len(s["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in s["workloads"])
    assert sorted(w["name"] for w in s["workloads"]) == sorted(workloads.WORKLOADS)


def main():
    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print("PASS %s" % name)
            except Exception as e:  # report every test, then exit nonzero
                failed += 1
                print("FAIL %s: %r" % (name, e))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
