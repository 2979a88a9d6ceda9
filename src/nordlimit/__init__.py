"""Numerical laboratory for the non-relativistic (light-speed) limit of a
self-gravitating relativistic perfect fluid with a screened scalar potential.

Modules:
    eos              polytropic equation-of-state family and backgrounds
    fields           periodic grid, spectral calculus, Sobolev norms, I/O
    initial_data     perturbed quiet-fluid data shared by both systems
    euler_nordstrom  finite-c fluid + scalar-field integrator
    euler_poisson    limit-system integrator with elliptic constraint
    energy_currents  variation energy currents, positivity, divergence identity
    limit_harness    the c-sweep convergence-rate experiment
    cli              command-line interface
"""

__version__ = "0.1.0"
