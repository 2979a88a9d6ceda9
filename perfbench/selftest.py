"""Self-test of the benchmark.

    python3 perfbench/selftest.py

For each workload it runs `run.py --trace 1` twice, with two different
seeds, and checks that

* both runs pass their oracles;
* every count metric repeats exactly between the two runs, and the finite-c
  and limit right-hand sides take 40 and 36 scalar 3D transforms;
* every child span lies inside its parent, and the time of a traced pass
  outside every span is between 0 and 5% of the pass;
* the spans of every traced pass were written.

It also checks, without running the program, that the same seed gives the
same INI and that changing the seed changes only the seeded perturbation
keys.  Exit code 0 when every check holds.  It takes a few minutes.
"""

import configparser
import glob
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SEEDS = (11, 12)
# count metrics each workload must reproduce exactly
EXPECTED = {
    "sweep": {"fields.transforms_per_rhs.en": 40, "fields.transforms_per_rhs.ep": 36,
              "euler_nordstrom.steps": 38, "euler_nordstrom.rhs_evals": 152,
              "euler_poisson.steps": 1, "euler_poisson.rhs_evals": 4},
    "limit": {"fields.transforms_per_rhs.ep": 36, "euler_poisson.steps": 5,
              "euler_poisson.rhs_evals": 20, "euler_nordstrom.steps": 0},
    "diagnostics": {"euler_nordstrom.steps": 0, "euler_poisson.steps": 0},
}


def check_inputs():
    """Same seed, same INI; another seed changes only the seeded keys."""
    problems = []
    for wl in workloads.WORKLOADS.values():
        a, b = (workloads.config_text(wl.n, seed, wl.run_keys) for seed in SEEDS)
        if a != workloads.config_text(wl.n, SEEDS[0], wl.run_keys):
            problems.append("%s: config_text is not deterministic" % wl.name)
        pa, pb = configparser.ConfigParser(), configparser.ConfigParser()
        pa.read_string(a)
        pb.read_string(b)
        changed = {(s, k) for s in pa.sections() for k in pa[s]
                   if pa[s][k] != pb.get(s, k, fallback=None)}
        changed |= {(s, k) for s in pb.sections() for k in pb[s] if not pa.has_option(s, k)}
        expected = {("perturbation", k) for k in workloads.SEEDED}
        if changed != expected:
            problems.append("seed changed %s, expected exactly %s"
                            % (sorted(changed), sorted(expected)))
    return problems


def traced_run(workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit("%s exited %d:\n%s" % (" ".join(cmd), out.returncode, out.stderr))
    lines = out.stdout.strip().splitlines()
    record = next(json.loads(l)["record"] for l in lines if l.startswith('{"record"'))
    return json.loads(lines[-1]), record


def check_workload(workload):
    problems = []
    runs = [traced_run(workload, seed) for seed in SEEDS]
    for (result, record), seed in zip(runs, SEEDS):
        if not result["correct"] or result["failed"]:
            problems.append("%s seed %d failed: %s" % (workload, seed, record["passes"]))
        for span_problems in record["span_problems"]:
            problems += ["%s seed %d: %s" % (workload, seed, p)
                         for p in span_problems]
        pattern = os.path.join(ROOT, ".perfbench_out",
                               "spans-%s-seed%d-pass*.json" % (workload, seed))
        if not glob.glob(pattern):
            problems.append("no spans written for %s seed %d" % (workload, seed))
    first, second = (r[0]["metrics"] for r in runs)
    for name, m in first.items():
        if m["unit"] in ("count", "B") and m["value"] != second[name]["value"]:
            problems.append("%s: %s is %r with seed %d but %r with seed %d"
                            % (workload, name, m["value"], SEEDS[0],
                               second[name]["value"], SEEDS[1]))
    for name, want in EXPECTED[workload].items():
        got = first[name]["value"]
        if got != want:
            problems.append("%s: %s is %r, expected %r" % (workload, name, got, want))
    print("%-12s %s" % (workload, "ok" if not problems else "FAILED"))
    return problems


def main():
    problems = check_inputs()
    print("%-12s %s" % ("inputs", "ok" if not problems else "FAILED"))
    for workload in workloads.WORKLOADS:
        problems += check_workload(workload)
    for p in problems:
        print("  " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
