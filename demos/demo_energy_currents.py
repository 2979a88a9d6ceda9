"""Energy-current diagnostics on a short finite-c run.

Builds perturbed initial data, mollifies it, evolves the finite-c system,
and tracks the variation (solution minus smoothed data) through its energy
current: positivity of the quadratic form along the trajectory and the
discrete defect of the exact divergence identity at every interior output.

Run from the repository root:

    python3 demos/demo_energy_currents.py
"""

# nordlimit before numpy: importing it pins BLAS to one thread
from nordlimit import energy_currents as ec
from nordlimit import euler_nordstrom as en
from nordlimit import limit_harness as lh
from nordlimit.initial_data import lift_to_relativistic, mollify_bundle
import numpy as np

c = 20.0
sc = lh.SweepConfig(n=16, amp_eta=0.03, amp_p=0.03, amp_v=(0.03, 0.0, 0.0))
consts = sc.consts(c)
box = (sc.eta_box, sc.p_box)

bundle = sc.make_bundle()
grid, eosf = bundle.grid, bundle.eos
lifted = mollify_bundle(lift_to_relativistic(bundle, consts), sc.mollify_eps)

print("running the finite-c system at c = %g ..." % c)
traj = en.run(en.from_bundle(lifted), 0.1, n_outputs=16,
              eta_box=box[0], p_box=box[1])
assert traj.ok, traj.abort_reason

rng = np.random.default_rng(0)
variations = rng.standard_normal((8, 5))
print()
print("positivity of the energy quadratic form along the run:")
for m in (0, len(traj.ts) // 2, len(traj.ts) - 1):
    bg = ec.background_coeffs(consts, eosf, traj.ws[m], traj.phis[m])
    lo, hi = ec.positivity_ratio(consts, bg, variations)
    print("  t = %5.3f   min ratio %.4f   max ratio %.4f" % (traj.ts[m], lo, hi))

report = ec.divergence_identity_check(traj, lifted.w_c, lifted.phi_c,
                                      consts, eosf, grid)
print()
print("divergence identity defect (centered differences vs exact integral):")
print("%8s  %14s  %14s  %10s" % ("t", "d/dt energy", "divergence", "defect"))
for t, lhs, rhs, defect, _, _ in report.rows[:: max(1, len(report.rows) // 6)]:
    print("%8.4f  %14.6e  %14.6e  %10.2e" % (t, lhs, rhs, defect))
print()
print("max normalized defect: %.2e  (converges at second order in the"
      % report.max_defect)
print("output interval; halve it and the defect drops by about four)")
