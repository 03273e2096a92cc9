"""One pass of one workload in a fresh interpreter.

The library keeps memo caches (interned fields, irreducible polynomials, the
degree-2 formula, curve statistics, best bounds), so a second pass in the same
process would mostly be lookups; ``run.py`` starts this script once per pass.
It prints one JSON line: when set-up ended, the timed interval's wall and CPU
seconds, raw and at the reference speed, peak RSS, each job's output digest
and errors and, when traced, the per-layer numbers.

A shared VM can switch between speeds (a 2-vCPU VM switched between two,
about 1.75 times apart, every few seconds to minutes).  So a fixed pure-Python
reference loop is timed right after set-up and between jobs, at least every
REF_EVERY_S, outside the jobs' timed intervals.  A job's scale is
REF_NOMINAL_S over the mean of the samples before and after it; its seconds
times its scale are its seconds at the reference speed.
"""

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
REF_STEPS = 150000       # steps in one round of the reference loop
REF_NOMINAL_S = 0.014    # one round's time on a 2-vCPU VM with Python 3.11.7, in its faster state
REF_EVERY_S = 0.25       # longest stretch of jobs between two reference samples


def reference_s(rounds=1):
    """Median seconds of a round of a fixed pure-Python loop: how fast the
    host runs Python just now.  It allocates nothing that outlives it."""
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        acc = 0
        for i in range(REF_STEPS):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def mul_rate(q, n, seed, count):
    """Index multiplications per second in the canonical F_(q^n): median of
    five timed batches of the same seeded pairs."""
    from curvemul import FieldTower
    E = FieldTower.canonical(q, n).ext_field
    rng = random.Random(seed)
    pairs = [(rng.randrange(E.size), rng.randrange(E.size)) for _ in range(count)]
    mul = E.mul
    mul(1, 1)  # builds the tables of a table field
    rates = []
    for _ in range(5):
        t0 = time.perf_counter()
        for a, b in pairs:
            mul(a, b)
        rates.append(count / (time.perf_counter() - t0))
    return statistics.median(rates)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true",
                    help="report digests without comparing them to digests.json")
    args = ap.parse_args(argv)

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import curvemul
    if not os.path.abspath(curvemul.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit("curvemul was imported from %s, not from %s" % (curvemul.__file__, src))
    import workloads
    os.makedirs(args.workdir, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=args.workdir)
    try:
        jobs = workloads.WORKLOADS[args.workload](args.seed, scratch)
        t_ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"t_ready": t_ready, "setup_scale": REF_NOMINAL_S / reference_s(3)}))
            return 0
        recorded = None
        if not args.record:
            with open(os.path.join(HERE, "digests.json")) as fh:
                recorded = json.load(fh)[args.workload]
        result = run_pass(jobs, recorded, args.trace)
        result["t_ready"] = t_ready
        tracer = result.pop("tracer")
        if tracer is not None:
            spans_path = os.path.join(args.workdir, "%s.spans.json" % args.workload)
            result["layers"] = traced_layers(tracer, spans_path, args.seed)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run_pass(jobs, recorded, trace=False):
    """Run the jobs in order inside the timed interval, then check them.
    recorded maps job names to output digests; None skips that comparison."""
    import oracle
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.on = True
    ctx = {}
    errors = {job.name: [] for job in jobs}
    refs = [reference_s(3)]      # the first also scales this pass's set-up
    timed = []                   # (wall s, CPU s, index of the sample before) per job
    last_ref = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = job.name
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            ctx[job.name] = job.run(ctx)
        except Exception as e:  # a failing job is counted, the pass goes on
            traceback.print_exc()
            errors[job.name].append("raised %s: %s" % (type(e).__name__, e))
        t1 = time.perf_counter()
        timed.append((t1 - t0, time.process_time() - c0, len(refs) - 1))
        if t1 - last_ref > REF_EVERY_S or i == len(jobs) - 1:
            refs.append(reference_s())
            last_ref = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.on = False
    scales = [2 * REF_NOMINAL_S / (refs[k] + refs[k + 1]) for _, _, k in timed]

    digests = {}
    for job in jobs:
        if job.name not in ctx:
            continue
        try:
            text, errs = job.check(ctx[job.name])
        except Exception as e:
            traceback.print_exc()
            errors[job.name].append("check raised %s: %s" % (type(e).__name__, e))
            continue
        errors[job.name] += errs
        digests[job.name] = oracle.digest(text)
        if recorded is not None and digests[job.name] != recorded.get(job.name):
            errors[job.name].append("output digest differs from the recorded one")

    return {
        "wall_s": sum(w for w, _, _ in timed),
        "cpu_s": sum(c for _, c, _ in timed),
        "scaled_wall_s": sum(w * f for (w, _, _), f in zip(timed, scales)),
        "scaled_cpu_s": sum(c * f for (_, c, _), f in zip(timed, scales)),
        "setup_scale": REF_NOMINAL_S / refs[0],
        "ref_samples": len(refs),
        "peak_rss_mb": peak_rss_mb,
        "digests": digests,
        "errors": {name: errs for name, errs in errors.items() if errs},
        "jobs": len(jobs),
        "tracer": tracer,
    }


def traced_layers(tracer, spans_path, seed):
    import spans
    tracer.write(spans_path)
    layers = spans.layer_metrics(tracer)
    layers["gf.mul_per_s.F256"] = mul_rate(4, 4, seed, 50000)
    layers["gf.mul_per_s.F4096"] = mul_rate(16, 3, seed, 5000)
    return layers


if __name__ == "__main__":
    sys.exit(main())
