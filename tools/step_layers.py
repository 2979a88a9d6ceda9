"""Per-call numbers of both steppers, as one JSON line.

    python3 tools/step_layers.py [ROOT] [--reps N]

nordlimit is imported from ROOT/src (default: this checkout), so that two
checkouts can be measured in turn.  The state is the Gaussian bump of the
tests (eta, p amplitudes 0.05, v = (0.05, 0.02, 0.01), G = 0.05).

* Finite c, at 32**3: the bump lifted to c = 10 and dt = 0.005, the step of
  the benchmark's `diagnostics` set-up.  Reported: the median wall time of
  `fluid_rhs(state, co)` (its two gradients included) and of `etd_step`,
  and the tracemalloc peak of one `fluid_rhs(state, co)`: the temporaries
  of the fluid block.
* The limit, at 64**3: the bump with its potential solved and dt = 0.02,
  the step of the benchmark's `limit` workload.  Reported: the median wall
  time of `ep.step`, `newtonian_rhs` and `solve_constraint`, the
  tracemalloc peak of one `ep.step` (the step's own allocations: the state
  it starts from was built before), and the `transform_threads` of the
  grid, which the run had.
"""

import argparse
import json
import math
import os
import statistics
import sys
import time
import tracemalloc


def median_ms(fn, reps):
    fn()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def traced_peak_mb(fn):
    """The tracemalloc peak of one fn() call, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("root", nargs="?",
                    default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("--reps", type=int, default=100)
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(os.path.abspath(args.root), "src"))
    import nordlimit  # before numpy: it pins the BLAS threads
    from nordlimit import eos
    from nordlimit import euler_nordstrom as en
    from nordlimit import euler_poisson as ep
    from nordlimit.fields import Grid3, transform_threads
    from nordlimit.initial_data import (PerturbationSpec, build_newtonian_data,
                                        lift_to_relativistic)

    spec = PerturbationSpec(amp_eta=0.05, amp_p=0.05, amp_v=(0.05, 0.02, 0.01),
                            center=(math.pi,) * 3, width=math.pi / 4)
    consts_inf = eos.PhysicalConstants(grav_g=0.05, kappa=1.0, c=math.inf)

    def bundle(n):
        return build_newtonian_data(
            spec, consts_inf, eos.PolytropicEos(), Grid3(n, 2.0 * math.pi),
            admissible_box=((0.5, 1.5), (0.5, 1.5)))

    state = en.from_bundle(lift_to_relativistic(
        bundle(32), eos.PhysicalConstants(grav_g=0.05, kappa=1.0, c=10.0)))
    co = state.coefficients()
    fluid_ms = median_ms(lambda: en.fluid_rhs(state, co), args.reps)
    fluid_mb = traced_peak_mb(lambda: en.fluid_rhs(state, co))
    stepper = en.EtdStepper(state, 0.005)
    current = [state]

    def etd_step():
        current[0] = en.etd_step(current[0], stepper)

    etd_ms = median_ms(etd_step, max(1, args.reps // 5))
    del state, co, stepper, current

    limit = ep.with_constraint(ep.from_bundle(bundle(64), consts_inf))
    ep_step_ms = median_ms(lambda: ep.step(limit, 0.02), max(1, args.reps // 5))
    ep_step_mb = traced_peak_mb(lambda: ep.step(limit, 0.02))
    rhs_ms = median_ms(lambda: ep.newtonian_rhs(limit), args.reps)
    solve_ms = median_ms(lambda: ep.solve_constraint(limit), args.reps)
    print(json.dumps({"root": os.path.abspath(args.root),
                      "fluid_rhs_ms": fluid_ms, "etd_step_ms": etd_ms,
                      "fluid_rhs_transient_mb": fluid_mb,
                      "ep_step_ms": ep_step_ms, "newtonian_rhs_ms": rhs_ms,
                      "solve_constraint_ms": solve_ms,
                      "ep_step_transient_mb": ep_step_mb,
                      "transform_threads": transform_threads(64)}))


if __name__ == "__main__":
    main()
