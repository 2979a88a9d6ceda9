"""Per-call numbers of the finite-c stepper at 32**3, as one JSON line.

    python3 tools/step_layers.py [ROOT] [--reps N]

nordlimit is imported from ROOT/src (default: this checkout), so that two
checkouts can be measured in turn.  The state is the Gaussian bump of the
tests (eta, p amplitudes 0.05, v = (0.05, 0.02, 0.01), G = 0.05) lifted to
c = 10, and dt = 0.005, the step of the benchmark's `diagnostics` set-up.
Reported: the median wall time of `fluid_rhs(state, co)` (its two gradients
included) and of `etd_step`, and the tracemalloc peak of one
`fluid_rhs(state, co)`: the temporaries of the fluid block.
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
    from nordlimit.fields import Grid3
    from nordlimit.initial_data import (PerturbationSpec, build_newtonian_data,
                                        lift_to_relativistic)

    grid = Grid3(32, 2.0 * math.pi)
    spec = PerturbationSpec(amp_eta=0.05, amp_p=0.05, amp_v=(0.05, 0.02, 0.01),
                            center=(math.pi,) * 3, width=math.pi / 4)
    bundle = build_newtonian_data(
        spec, eos.PhysicalConstants(grav_g=0.05, kappa=1.0, c=math.inf),
        eos.PolytropicEos(), grid, admissible_box=((0.5, 1.5), (0.5, 1.5)))
    state = en.from_bundle(lift_to_relativistic(
        bundle, eos.PhysicalConstants(grav_g=0.05, kappa=1.0, c=10.0)))
    co = state.coefficients()

    fluid_ms = median_ms(lambda: en.fluid_rhs(state, co), args.reps)
    tracemalloc.start()
    en.fluid_rhs(state, co)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    stepper = en.EtdStepper(state, 0.005)
    current = [state]

    def one_step():
        current[0] = en.etd_step(current[0], stepper)

    step_ms = median_ms(one_step, max(1, args.reps // 5))
    print(json.dumps({"root": os.path.abspath(args.root), "n": grid.n,
                      "fluid_rhs_ms": fluid_ms, "etd_step_ms": step_ms,
                      "fluid_rhs_transient_mb": peak / 1e6}))


if __name__ == "__main__":
    main()
