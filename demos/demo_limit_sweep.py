"""Sweep the light speed and watch the Newtonian limit emerge.

Runs the constrained limit system once and the finite-c system for a few
increasing light speeds from matched initial data, then fits log-log slopes
of the sup-in-time solution gaps.  Doubling c should cut the fluid gap by
about a factor of four (slope close to -2).

Run from the repository root:

    python3 demos/demo_limit_sweep.py
"""

import math

from nordlimit import limit_harness as lh

config = lh.SweepConfig(n=16, c_values=(10.0, 20.0, 40.0, 80.0),
                        t_final=0.1, n_outputs=10)

print("grid %d^3, box [0, %.3f)^3, c values %s"
      % (config.n, config.length, list(config.c_values)))
print("running the sweep (one limit run + one run per c) ...")
result = lh.run_sweep(config)
report = result.report

print()
print("%10s  %14s  %14s  %14s" % ("c", "supWdiff", "supPhidiff", "phiBarGap"))
for i, c in enumerate(report.c_values):
    print("%10g  %14.6e  %14.6e  %14.6e"
          % (c, report.sup_w[i], report.sup_phi[i], report.phi_bar_gap[i]))

print()
print("fluid slope          %+.3f  (rms fit residual %.3f)"
      % (report.slope_w, report.resid_w))
print("potential slope      %+.3f  (rms fit residual %.3f)"
      % (report.slope_phi, report.resid_phi))
print("background-gap slope %+.3f  (expected -2 exactly as c -> inf)"
      % report.slope_gap)
