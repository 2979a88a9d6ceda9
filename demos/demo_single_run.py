"""One finite-c run next to its limit run, from matched data.

Evolves both systems from the same data, pulls the finite-c solution back
to limit variables at matched output times, and prints the growing-in-time
but shrinking-in-c gap together with basic run diagnostics.

Run from the repository root:

    python3 demos/demo_single_run.py
"""

import math

# nordlimit before numpy: importing it pins BLAS to one thread
from nordlimit import euler_nordstrom as en
from nordlimit import euler_poisson as ep
from nordlimit import limit_harness as lh
from nordlimit.initial_data import lift_to_relativistic
import numpy as np

c = 20.0
sc = lh.SweepConfig(n=16)
consts_inf, consts = sc.consts(math.inf), sc.consts(c)
box = (sc.eta_box, sc.p_box)

bundle = sc.make_bundle()
lifted = lift_to_relativistic(bundle, consts)

t_final, n_outputs = 0.1, 10
print("evolving both systems to t = %g ..." % t_final)
limit = ep.run(ep.from_bundle(bundle, consts_inf), t_final,
               n_outputs=n_outputs, eta_box=box[0], p_box=box[1])
finite = en.run(en.from_bundle(lifted), t_final, n_outputs=n_outputs,
                eta_box=box[0], p_box=box[1])
assert limit.ok and finite.ok

print("limit system: %d RK4 steps of %g (%s), %d RHS evaluations"
      % (limit.steps, limit.dt, limit.dt_reason, limit.rhs_evals))
print("finite-c system: %d exponential-integrator steps of %g (%s), "
      "%d RHS evaluations;"
      % (finite.steps, finite.dt, finite.dt_reason, finite.rhs_evals))
print("  the wave operator is integrated exactly, so dt is not held to h / c")
print()
print("%8s  %16s  %16s" % ("t", "max fluid gap", "max potential gap"))
for m in range(len(limit.ts)):
    pulled = en.pull_back(finite.ws[m], finite.phis[m], consts)
    w_gap = float(np.max(np.abs(pulled - limit.ws[m])))
    phi_gap = float(np.max(np.abs(
        (finite.phis[m] - lifted.phi_bar_c)
        - (limit.phis[m] - bundle.phi_bar_inf))))
    print("%8.3f  %16.6e  %16.6e" % (limit.ts[m], w_gap, phi_gap))

print()
print("constant background potentials: limit %.6f, finite-c %.6f"
      % (bundle.phi_bar_inf, lifted.phi_bar_c))
print("their gap, %.2e, shrinks like 1/c^2" %
      abs(bundle.phi_bar_inf - lifted.phi_bar_c))
