"""nordlimit benchmark: one workload per invocation, result as JSON.

    python3 perfbench/run.py --workload {sweep,limit,diagnostics} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; nordlimit is imported from its
`src/` directory, never from an installed copy.  The run is a sequence of
closed-loop rounds, one at a time, until another round would end after S
seconds (at least one round, and at least 3 set-ups).  A round sets the
workload up until 0.3 s of set-up is measured (at least once), then runs one
pass.  `setup_s` is the median set-up, `wall_s` the median pass; both are
thus sampled across the whole run, whose host speed drifts.  Each pass is
timed to a checked solution: it includes the output oracle of
`workloads.py`.  A pass that raises ValueError, RuntimeError or
ArithmeticError, exits non-zero or fails its oracle counts as failed.

With --trace 0 the metrics are the end-to-end ones (`wall_s`, `setup_s`,
`peak_rss_mb`).  With --trace 1 the run alternates untraced and traced
passes and reports the per-layer metrics of `spans.py`; the spans of every
traced pass are written to `.perfbench_out/`.  The line before the result
records the machine, the pinned thread counts, the seed, every pass and the
oracle facts.  Exit code 2 means the benchmark could not run at all.
"""

import os

# pin every native thread pool before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("NORDLIMIT_OUT", None)  # it would redirect the CLI's outputs

import argparse
import gc
import glob
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time

import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# each round sets up until this much set-up is measured; a run sets up at
# least SETUP_MIN times
SETUP_ROUND_S = 0.3
SETUP_MIN = 3
ERRORS = (ValueError, RuntimeError, ArithmeticError)


def import_program():
    """Import nordlimit from ROOT/src; None if the checkout does not hold it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "nordlimit", "__init__.py")):
        return None
    sys.path.insert(0, src)
    nl = importlib.import_module("nordlimit")
    importlib.import_module("nordlimit.cli")  # imports every other module
    return nl


def machine():
    import numpy
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "fft_backend": "numpy.fft (pocketfft)",
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "platform": platform.platform()}
    try:
        import scipy
        info["scipy"] = scipy.__version__
    except ImportError:
        info["scipy"] = None
    try:
        info["blas"] = numpy.show_config(mode="dicts")[
            "Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        info["blas"] = None
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), None)
        for idx in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
            level, kind, size = (_read(os.path.join(idx, f))
                                 for f in ("level", "type", "size"))
            if kind in ("Unified", "Data"):
                info["L%s_%s" % (level, kind.lower())] = size
    except OSError:
        pass
    return info


def _read(path):
    with open(path) as fh:
        return fh.read().strip()


def timed(fn):
    gc.collect()
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        bad = fn()
    except ERRORS as exc:
        bad = ["%s: %s" % (type(exc).__name__, exc)]
    return {"wall_s": time.perf_counter() - w0,
            "cpu_s": time.process_time() - c0, "failures": bad or []}


def measure(nl, wl, seconds, trace):
    """Run rounds for `seconds`.

    A round sets up until SETUP_ROUND_S of set-up is measured, then runs one
    untraced pass, followed with --trace 1 by one traced pass.  Rounds stop
    when another one would end after `seconds` and SETUP_MIN set-ups are
    done, or when a set-up fails.
    """
    setups, passes, tracers = [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        first = len(setups)
        while len(setups) == first or (
                sum(s["wall_s"] for s in setups[first:]) < SETUP_ROUND_S):
            setups.append(timed(wl.setup))
        if any(s["failures"] for s in setups[first:]):
            break
        for traced in (False, True)[:1 + trace]:
            if traced:
                tracer = spans.Tracer(nl)
                with tracer.installed():
                    p = timed(wl.run_pass)
                p["layers"] = spans.layer_metrics(tracer.spans, p["wall_s"])
                p["span_problems"] = spans.accounting_problems(
                    tracer.spans, p["wall_s"])
                tracers.append(tracer)
            else:
                p = timed(wl.run_pass)
            passes.append(dict(p, traced=traced))
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds and len(setups) >= SETUP_MIN:
            break
    return setups, passes, tracers


def per_layer(passes):
    """Medians of the per-layer metrics over the traced passes of a run."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    med = lambda values: statistics.median(values) if values else 0.0
    values = {k: med([p["layers"][k] for p in traced])
              for k in (traced[0]["layers"] if traced else ())}
    t_wall = med([p["wall_s"] for p in traced])
    u_wall = med([p["wall_s"] for p in untraced])
    values.update({"process.cpu_s": med([p["cpu_s"] for p in untraced]),
                   "process.traced_wall_s": t_wall,
                   "process.untraced_wall_s": u_wall,
                   "process.tracing_overhead_s": t_wall - u_wall})
    return {k: {"value": values.get(k, 0.0), "unit": u}
            for k, u in spans.metric_units().items()}


def end_to_end(setups, passes):
    ok = [p["wall_s"] for p in passes if not p["failures"]]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"wall_s": {"value": statistics.median(ok or [p["wall_s"] for p in passes] or [0.0]),
                       "unit": "s"},
            "setup_s": {"value": statistics.median(s["wall_s"] for s in setups),
                        "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    nl = import_program()
    if nl is None:
        print("error: no nordlimit sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2

    work_dir = os.path.join(ROOT, ".perfbench_work",
                            "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work_dir)
    try:
        wl = workloads.WORKLOADS[args.workload](nl, work_dir, args.seed)
        setups, passes, tracers = measure(nl, wl, args.seconds, args.trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    # a failed set-up leaves no pass: it counts as one failed operation
    attempted = max(1, len(passes))
    failed = sum(1 for p in passes if p["failures"]) or int(
        any(s["failures"] for s in setups))
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine(), "fail_frac": failed / attempted,
              "setups_s": [s["wall_s"] for s in setups],
              "passes": [{k: p[k] for k in ("wall_s", "cpu_s", "failures", "traced")}
                         for p in passes],
              "facts": wl.facts}
    if args.trace:
        metrics = per_layer(passes)
        record["span_problems"] = [p["span_problems"] for p in passes
                                   if p["traced"]]
        record["outside_spans_share"] = [
            p["layers"]["process.outside_spans_s"] / p["wall_s"]
            for p in passes if p["traced"]]
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        for i, tracer in enumerate(tracers):
            tracer.write(os.path.join(out_dir, "spans-%s-seed%d-pass%d.json"
                                      % (args.workload, args.seed, i)))
    else:
        metrics = end_to_end(setups, passes)

    for p in setups + passes:
        for reason in p["failures"]:
            print("FAILED: %s" % reason, file=sys.stderr)
    print(json.dumps({"record": record}, default=float))
    for name, m in metrics.items():
        print("%-40s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
