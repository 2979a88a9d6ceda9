"""Shared set-up of the test suite.

The package is imported here, before any test module imports numpy, so
that the suite runs under the one-BLAS-thread rule of the command line:
the rule is set in the package's `__init__` and acts only if it comes
before numpy loads.  The `grid` (32**3 on the torus of side 2 pi) and
`eosf` (the default polytropic family) fixtures serve every module.
"""

import math

import pytest

import nordlimit  # noqa: F401
from nordlimit import eos
from nordlimit.fields import Grid3


@pytest.fixture(scope="module")
def grid():
    return Grid3(32, 2.0 * math.pi)


@pytest.fixture(scope="module")
def eosf():
    return eos.PolytropicEos()
