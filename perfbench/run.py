"""curvemul benchmark: one workload, one seed, untraced or traced.

    python3 perfbench/run.py --workload large_ext_formulas --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --record-digests

Each pass runs in a fresh interpreter (perfbench/child.py), one at a time,
while another pass can still end within --seconds.  With --trace 0 the last stdout line carries the
end-to-end metrics of BENCHMARK.json (medians over the passes); with --trace 1
untraced and traced passes alternate and it carries the per-layer metrics.
The line before it describes the host and the source.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench_work")
PROBES_PER_PASS = 2       # set-up-only interpreters before each untraced pass
RUN_LIMIT_S = 160         # start no pass that could end after this
MODULES = ("gf", "function_field", "ccma", "bounds", "cli", "series", "linalg")


def spawn(workload, seed, trace, extra=(), timeout=RUN_LIMIT_S):
    """Run one child; returns (its JSON result, the monotonic time it was started)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--root", ROOT,
           "--workload", workload, "--seed", str(seed), "--trace", str(trace),
           "--workdir", WORKDIR] + list(extra)
    # A fixed hash seed keeps set and dict orders, and so the work, the same in every pass.
    env = dict(os.environ, PYTHONHASHSEED="0")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout, env=env)
    except subprocess.TimeoutExpired:
        print("run.py: a %s pass overran %.0f s" % (workload, timeout), file=sys.stderr)
        return None, t_spawn
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, t_spawn
    return json.loads(lines[-1]), t_spawn


def src_lines():
    counts = {}
    for mod in MODULES:
        path = os.path.join(ROOT, "src", "curvemul", mod + ".py")
        if os.path.exists(path):
            with open(path) as fh:
                counts[mod] = sum(1 for _ in fh)
        else:
            counts[mod] = 0
    pkg = os.path.join(ROOT, "src", "curvemul")
    total = 0
    for name in os.listdir(pkg):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                total += sum(1 for _ in fh)
    counts["src"] = total
    return counts


def commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def measure(workload, seed, seconds, trace):
    """Run passes; returns (setup samples, untraced results, traced results, failures).
    A set-up sample is a pair (seconds, scale to the reference speed)."""
    setups, plain, traced = [], [], []
    failures = 0
    t_start = time.monotonic()
    if not trace:
        spawn(workload, seed, 0, ["--setup-only"])  # writes the bytecode caches
    t_passes = time.monotonic()
    longest = 0.0
    while True:
        kind = 1 if trace and len(traced) < len(plain) else 0
        t0 = time.monotonic()
        probes = []
        if not trace:
            # Set-up probes sit between the passes, so that they sample the
            # same stretch of the host's speed as the passes do.
            for _ in range(PROBES_PER_PASS):
                res, t_spawn = spawn(workload, seed, 0, ["--setup-only"])
                if res is None:
                    failures += 1
                else:
                    probes.append((res["t_ready"] - t_spawn, res["setup_scale"]))
        res, t_spawn = spawn(workload, seed, kind,
                             timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - t_start)))
        if res is None:
            failures += 1
            break
        if kind == 0:
            probes.append((res["t_ready"] - t_spawn, res["setup_scale"]))
        setups += probes
        (traced if kind else plain).append(res)
        now = time.monotonic()
        longest = max(longest, now - t0)
        # Start another pass only if it can end within `seconds`, judged by
        # the longest pass (with its probes) so far, so that the run keeps to
        # its length.
        done = now - t_passes + longest > seconds and (not trace or traced)
        if done or now - t_start + 1.2 * longest > RUN_LIMIT_S:
            break
    return setups, plain, traced, failures


def median_of(results, key):
    return statistics.median(r[key] for r in results)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="rewrite perfbench/digests.json from this source tree")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "curvemul", "__init__.py")):
        print("run.py: no curvemul source under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.record_digests:
        return record_digests(spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        ap.error("--workload must be one of %s" % ", ".join(names))

    setups, plain, traced, failures = measure(args.workload, args.seed, args.seconds, args.trace)
    passes = plain + traced
    attempted = sum(r["jobs"] for r in passes) + failures
    failed = sum(len(r["errors"]) for r in passes) + failures
    for r in passes:
        for job, errs in sorted(r["errors"].items()):
            print("FAIL %s: %s" % (job, "; ".join(errs)), file=sys.stderr)
    if not plain or (args.trace and not traced):
        print("run.py: no pass completed", file=sys.stderr)
        return 1

    lines = src_lines()
    if args.trace:
        values = {"trace.overhead_ratio":
                  median_of(traced, "scaled_wall_s") / median_of(plain, "scaled_wall_s")}
        for key in traced[0]["layers"]:
            values[key] = statistics.median_low(r["layers"][key] for r in traced)
        for mod, count in lines.items():
            values[mod + ".src_lines"] = count
        declared = spec["per_layer"]
    else:
        values = {
            "wall_s": median_of(plain, "scaled_wall_s"),
            "cpu_s": median_of(plain, "scaled_cpu_s"),
            "setup_s": statistics.median(t * scale for t, scale in setups),
            "peak_rss_mb": median_of(plain, "peak_rss_mb"),
            "pass_ratio": (attempted - failed) / attempted,
        }
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print("run.py: metrics not measured: %s" % ", ".join(missing), file=sys.stderr)
        return 1

    print(json.dumps({"info": {
        "workload": args.workload, "seed": args.seed,
        "untraced_wall_s": [r["wall_s"] for r in plain],
        "traced_wall_s": [r["wall_s"] for r in traced],
        "ref_samples": [r["ref_samples"] for r in plain + traced], "setup_samples": len(setups),
        "unscaled_setup_s": statistics.median(t for t, _ in setups) if setups else None,
        "python": sys.version.split()[0], "nproc": os.cpu_count(), "commit": commit(),
        "src_lines": lines}}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


def record_digests(spec):
    """Digests of every job's canonical output, from two seeds that must agree."""
    table = {}
    for w in spec["workloads"]:
        runs = [spawn(w["name"], seed, 0, ["--record"], timeout=600)[0] for seed in (0, 1)]
        if any(r is None or r["errors"] for r in runs):
            print("run.py: %s fails its checks; digests not recorded" % w["name"],
                  file=sys.stderr)
            return 1
        if runs[0]["digests"] != runs[1]["digests"]:
            print("run.py: %s outputs depend on the seed" % w["name"], file=sys.stderr)
            return 1
        table[w["name"]] = runs[0]["digests"]
    with open(os.path.join(HERE, "digests.json"), "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
