"""Shared set-up of the test suite.

The package is imported here, before any test module imports numpy, so
that the suite runs under the one-BLAS-thread rule of the command line:
the rule is set in the package's `__init__` and acts only if it comes
before numpy loads.
"""

import nordlimit  # noqa: F401
