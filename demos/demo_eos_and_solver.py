"""The building blocks: equation-of-state family and the screened solver.

Prints closed-form values of the polytropic family at finite and infinite
light speed, the empirical rate at which finite-c thermodynamics approaches
its limit, and a worked example of the screened Poisson solver including
the background-potential root solve.

Run from the repository root:

    python3 demos/demo_eos_and_solver.py
"""

import math

import numpy as np

from nordlimit import eos
from nordlimit.fields import Grid3

eosf = eos.PolytropicEos(m0=1.0, gamma=2.0, a_inf=1.0, a1=0.0)
inf = eos.PhysicalConstants(grav_g=0.05, kappa=1.0, c=math.inf)
c10 = eos.PhysicalConstants(grav_g=0.05, kappa=1.0, c=10.0)

print("polytropic family at p = 1:")
print("  limit density        %.6f" % eos.mass_density(inf, eosf, 1.0))
print("  density at c = 10    %.6f" % eos.mass_density(c10, eosf, 1.0))
print("  limit sound speed^2  %.6f" % eos.closure(inf, eosf, 1.0)[1])
print("  c = 10 sound speed^2 %.6f" % eos.closure(c10, eosf, 1.0)[1])

slopes = eos.rate_check(eosf, (0.5, 1.5), (0.5, 1.5),
                        (10.0, 20.0, 40.0, 80.0))
print()
print("fitted approach rates toward the limit (expected near -2):")
for name, slope in sorted(slopes.items()):
    print("  %-10s %+.3f" % (name, slope))

print()
print("screened Poisson solve on a 16^3 grid:")
grid = Grid3(16, 2 * math.pi)
x, y, _ = grid.meshgrid()
kappa = 1.0
mode = np.sin(2 * x) * np.sin(y)
src = (-(5.0) - kappa**2) * mode   # (lap - kappa^2) applied to the mode
sol = grid.helmholtz_solve(src, kappa)
print("  eigenfunction recovered to %.2e" % float(np.max(np.abs(sol - mode))))

phi_bar_inf = eos.background_potential(inf, eosf, 1.0)
phi_bar_c = eos.background_potential(c10, eosf, 1.0)
print()
print("constant background potential (uniform-state root):")
print("  limit      %.8f  (closed form -4 pi G rho / kappa^2)" % phi_bar_inf)
print("  c = 10     %.8f  (safeguarded Newton root)" % phi_bar_c)
print("  gap        %.2e  (shrinks like 1/c^2)" % abs(phi_bar_inf - phi_bar_c))
