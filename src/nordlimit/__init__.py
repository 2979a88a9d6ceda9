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

Importing the package pins BLAS to one thread per process, unless the user
set the thread count: the program's own worker processes and transform
threads are its parallelism, and BLAS threads of its own in each of them
would only contend for the same cores.  The pin acts only if it comes
before numpy is first imported.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
