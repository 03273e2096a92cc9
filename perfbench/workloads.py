"""The three workloads, as lists of jobs.

A job runs inside the timed interval and returns its raw output; its check
runs after the interval and turns that output into the canonical text whose
digest is compared with the recorded one, plus a list of errors.  The seed
sets the sampled-verification seeds and the job order; the (q, n) sets are
fixed because they set how much work a pass does.

Jobs look library functions up on their modules when they run, never bind
them at set-up, so that the tracing wrappers installed after set-up see them.
"""

import contextlib
import io
import json
import os
import random

import oracle

SAMPLED_PAIRS = 2000
LARGE_NS = range(2, 6)
BOUND_QS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 32, 49, 64)
BOUND_NS = range(2, 9)
ASYM_QS = (16, 25, 49, 64, 81)


class Job:
    __slots__ = ("name", "deps", "run", "check")

    def __init__(self, name, run, check, deps=()):
        self.name = name
        self.run = run        # ctx -> output; ctx maps finished job names to outputs
        self.check = check    # output -> (canonical text, [errors])
        self.deps = tuple(deps)


def order(jobs, rng):
    """A seeded random order in which every job follows its dependencies."""
    pending = list(jobs)
    done = set()
    out = []
    while pending:
        ready = [j for j in pending if all(d in done for d in j.deps)]
        job = ready[rng.randrange(len(ready))]
        pending.remove(job)
        done.add(job.name)
        out.append(job)
    return out


def formula_of(output):
    """Formula jobs return a formula, or a (formula, verification report) pair."""
    return output[0] if isinstance(output, tuple) else output


def _formula_check(rank):
    def check(output):
        formula = formula_of(output)
        text = oracle.formula_text(formula)
        errors = oracle.expect("rank", formula.rank, rank) + oracle.basis_pair_errors(formula)
        if isinstance(output, tuple):
            report = output[1]
            text += "\nverify %s %s %d" % (report.passed, report.mode, report.pairs_checked)
            errors += oracle.expect("verify passed", report.passed, True)
        return text, errors
    return check


# ---------------------------------------------------------------------------
# large_ext_formulas: genus-0 formulas over F_16 and tower compositions
# ---------------------------------------------------------------------------

def large_ext_formulas(seed, workdir):
    from curvemul import ccma, gf
    rng = random.Random(seed)

    def irreducible(ctx):
        return gf.find_irreducible(gf.canonical_extension(gf.prime_field(2), 4), 6)

    def irreducible_check(poly):
        return repr(poly), (oracle.expect("degree", poly.degree, 6)
                            + oracle.expect("monic", poly.is_monic(), True))

    # The degree-6 search over F_16 is the one FieldTower.canonical(16, 6) runs.
    jobs = [Job("irreducible_16_6", irreducible, irreducible_check)]
    for n in LARGE_NS:
        s = rng.randrange(1 << 31)

        def run(ctx, n=n, s=s):
            f = ccma.construct_case1(16, n, seed=s)
            return f, ccma.verify(f, "auto", pairs=SAMPLED_PAIRS, seed=s)
        jobs.append(Job("f16_%d" % n, run, _formula_check(2 * n - 1)))

    def tower(name, outer, inner, rank, deps=()):
        s = rng.randrange(1 << 31)

        def run(ctx):
            return ccma.compose(outer(ctx), inner(ctx), pairs=SAMPLED_PAIRS, seed=s)
        return Job(name, run, _formula_check(rank), deps)

    def built(q, n):
        return lambda ctx: ccma.construct_case1(q, n)

    def job_output(name):
        return lambda ctx: formula_of(ctx[name])

    jobs += [
        tower("tower_9", built(2, 2), built(4, 2), 9),
        tower("tower_27", job_output("tower_9"), job_output("f16_2"), 27, ("tower_9", "f16_2")),
        tower("tower_45", job_output("tower_9"), job_output("f16_3"), 45, ("tower_9", "f16_3")),
        tower("tower_21", built(3, 2), built(9, 4), 21),
    ]
    return order(jobs, rng)


# ---------------------------------------------------------------------------
# small_field_curves: table fields only, curve sweeps and exhaustive checks
# ---------------------------------------------------------------------------

def small_field_curves(seed, workdir):
    from curvemul import ccma, function_field, gf
    rng = random.Random(seed)

    def catalog(p, d):
        def run(ctx):
            return function_field.curve_search(gf.canonical_extension(gf.prime_field(p), d), 0)

        def check(entries):
            rows = function_field.catalog_rows(entries)
            return "\n".join(rows), oracle.hasse_weil_errors(rows)
        return run, check

    def elliptic(ctx):
        curve = next(e.curve for e in ctx["catalog_F4"] if e.n1 == 9)
        f = ccma.construct_case1(4, 4, curve)
        return f, ccma.verify(f, "exhaustive")

    def elliptic_check(output):
        text, errors = _formula_check(8)(output)
        return text, errors + oracle.expect("products", output[1].pairs_checked, 4 ** 8)

    def brute(q, n, max_rank, want):
        def check(rank):
            return repr(rank), oracle.expect("brute rank", rank, want)
        return (lambda ctx: ccma.brute_force_symmetric_rank(q, n, max_rank)), check

    jobs = [Job("catalog_F3", *catalog(3, 1)), Job("catalog_F4", *catalog(2, 2)),
            Job("catalog_F5", *catalog(5, 1)),
            Job("elliptic_4_4", elliptic, elliptic_check, ("catalog_F4",)),
            # mu_sym_2(2) = mu_sym_3(2) = 3; mu_sym_2(3) = 6, so none of rank <= 5
            Job("brute_2_2", *brute(2, 2, 4, 3)), Job("brute_3_2", *brute(3, 2, 4, 3)),
            Job("brute_2_3", *brute(2, 3, 5, None))]
    return order(jobs, rng)


# ---------------------------------------------------------------------------
# cli_bound_sweep: the documented CLI traffic through curvemul.cli.main
# ---------------------------------------------------------------------------

def run_cli(argv):
    from curvemul import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _first_record(stdout):
    return dict(kv.split("=", 1) for kv in stdout.splitlines()[0].split(" "))


def cli_bound_sweep(seed, workdir):
    from curvemul import ccma
    rng = random.Random(seed)

    def command(argv, extra_check=None):
        def check(output):
            code, stdout = output
            errors = oracle.expect("exit code", code, 0)
            if not errors and extra_check is not None:
                errors += extra_check(stdout)
            return stdout, errors
        return (lambda ctx: run_cli(argv)), check

    def bound_check(n):
        def check(stdout):
            value = int(_first_record(stdout)["value"])
            if value < 2 * n - 1:  # every symmetric formula has rank >= 2n - 1
                return ["bound %d is below the rank lower bound %d" % (value, 2 * n - 1)]
            return []
        return check

    def curves_check(stdout):
        rows = stdout.splitlines()
        return (oracle.hasse_weil_errors(rows)
                + oracle.expect("N1 >= 9 rows", all(int(r.split(",")[4]) >= 9 for r in rows), True))

    def round_trip(name, argv, rank):
        path = os.path.join(workdir, name + ".json")

        def run(ctx):
            made = run_cli(["construct"] + argv + ["--out", path])
            checked = run_cli(["verify", "--file", path])
            return made, checked

        def check(output):
            (code1, out1), (code2, out2) = output
            with open(path) as fh:
                file_text = fh.read()
            text = out1.replace(workdir, "$WORKDIR") + out2 + file_text
            errors = oracle.expect("construct exit code", code1, 0)
            errors += oracle.expect("verify exit code", code2, 0)
            if not errors:
                formula = ccma.formula_from_dict(json.loads(file_text))
                errors += oracle.expect("rank", int(_first_record(out1)["rank"]), rank)
                errors += oracle.basis_pair_errors(formula)
            return text, errors
        return run, check

    jobs = []
    for q in BOUND_QS:
        for n in BOUND_NS:
            jobs.append(Job("bound_%d_%d" % (q, n),
                            *command(["bound", "--q", str(q), "--n", str(n), "--depth", "3"],
                                     bound_check(n))))
    jobs.append(Job("compare_table", *command(["compare-table"], oracle.table_errors)))
    for q in ASYM_QS:
        jobs.append(Job("asym_%d" % q, *command(["asym", "--q", str(q), "--tmax", "4"])))
    jobs.append(Job("round_trip_4_4_g1", *round_trip(
        "f44", ["--q", "4", "--n", "4", "--genus", "1"], 8)))
    jobs.append(Job("round_trip_2_3_deg2", *round_trip(
        "f23", ["--q", "2", "--n", "3", "--genus", "0", "--allow-degree2"], 6)))
    jobs.append(Job("round_trip_16_5", *round_trip("f165", ["--q", "16", "--n", "5"], 9)))
    jobs.append(Job("curves_4", *command(["curves", "--q", "4", "--min-n1", "9"], curves_check)))
    return order(jobs, rng)


WORKLOADS = {w.__name__: w for w in (large_ext_formulas, small_field_curves, cli_bound_sweep)}
