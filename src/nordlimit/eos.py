"""Polytropic equation-of-state family with explicit speed-of-light dependence.

The fluid is closed by a one-parameter family of barotropic-in-p equations of
state.  For a finite light speed c the proper energy density is

    rho_c(p) = m0 * (p / A_c)**(1/gamma) + p / ((gamma - 1) c**2),

with A_c = A_inf * (1 + a1 / c**2), and in the c -> infinity limit

    rho_inf(p) = m0 * (p / A_inf)**(1/gamma).

A_c does not depend on eta, so rho_c, s_c**2 and q_c depend on p alone.
Everything below is built on `closure`, which writes rho_c, the sound speed
and the pressure-equation coefficient once; `mass_density` at c = inf needs
only the rest density, which `closure` shares.
Finite-c quantities converge to their limits at rate c**-2; `rate_check`
measures that rate empirically over a sampling box.
"""

import math
from dataclasses import dataclass, field

import numpy as np

BACKGROUND_TOL = 1e-14  # |F| at which `background_potential` stops
BACKGROUND_MAX_ITER = 200  # its Newton steps at most
RATE_SAMPLES = 200  # (eta, p, phi) samples of `rate_check`
RATE_SLOPE_MAX = -1.9  # a `rate_check` slope passes at or below this


@dataclass(frozen=True)
class PhysicalConstants:
    """Gravitational coupling, potential mass parameter, and light speed.

    c = math.inf selects the Newtonian (Euler-Poisson) limit everywhere.
    kappa must be positive: the kappa -> 0 regime is outside scope and the
    elliptic/step operators divide by kappa**2.  So the square of kappa,
    and of a finite c, must be a nonzero finite float.
    """

    grav_g: float = 1.0
    kappa: float = 1.0
    c: float = math.inf

    def __post_init__(self):
        if not (self.grav_g > 0):
            raise ValueError("grav_g must be positive")
        if not (self.kappa > 0):
            raise ValueError("kappa must be positive (kappa=0 is outside scope)")
        if not (self.c > 0):
            raise ValueError("c must be positive (use math.inf for the limit)")
        # the operators divide by these squares; c * c, not c**2, which
        # raises OverflowError
        for name, value in (("kappa", self.kappa), ("c", self.c)):
            if (name == "kappa" or self.finite_c) and not (
                    0 < value * value < math.inf):
                raise ValueError("%s squared leaves the float range: %s = %g"
                                 % (name, name, value))

    @property
    def finite_c(self):
        return math.isfinite(self.c)

    @property
    def inv_c_sq(self):
        return 0.0 if not self.finite_c else 1.0 / self.c**2


@dataclass(frozen=True)
class PolytropicEos:
    """Parameters of the polytropic family.

    m0 > 0 is the mass scale, gamma > 1 the adiabatic index, a_inf > 0 the
    limiting entropy coefficient, and a1 the first-order coefficient of the
    c**-2 correction to the entropy function.
    """

    m0: float = 1.0
    gamma: float = 2.0
    a_inf: float = 1.0
    a1: float = 0.0

    def __post_init__(self):
        if not (self.m0 > 0):
            raise ValueError("m0 must be positive")
        if not (self.gamma > 1):
            raise ValueError("gamma must exceed 1")
        if not (self.a_inf > 0):
            raise ValueError("a_inf must be positive")

    def entropy_coeff(self, consts):
        """A_c = A_inf (1 + a1/c**2); equals a_inf in the limit."""
        return self.a_inf * (1.0 + self.a1 * consts.inv_c_sq)


def _rest_density(consts, eos, p):
    """m0 (p / A_c)**(1/gamma): rho_c without its p/c**2 term, rho_inf in
    the limit."""
    return eos.m0 * (p / eos.entropy_coeff(consts)) ** (1.0 / eos.gamma)


def closure(consts, eos, p, weight=1.0):
    """(rho_c, s_c**2, q_c) at pressure p > 0 with s_c**2 = (d rho_c/d p)**-1,
    q_c = s_c**2 weight (rho_c + p/c**2) = gamma weight p and weight =
    exp(4 phi/c**2) (1 in the limit).  Raises ValueError if causality
    (s_c < c) fails anywhere, naming, when p is a field, the grid point of
    the largest s_c**2."""
    p = np.asarray(p)
    rho = _rest_density(consts, eos, p)
    inv_ssq, enthalpy = rho / (eos.gamma * p), rho
    if consts.finite_c:
        icc = consts.inv_c_sq
        rho = rho + p * icc / (eos.gamma - 1.0)
        inv_ssq = inv_ssq + icc / (eos.gamma - 1.0)
        enthalpy = rho + p * icc
    ssq = 1.0 / inv_ssq
    if np.any(ssq >= consts.c**2):
        message = "sound speed reached the light speed: non-causal state"
        if ssq.ndim:
            idx = np.unravel_index(np.nanargmax(ssq), ssq.shape)
            message += " at grid point %s" % (tuple(int(i) for i in idx),)
        raise ValueError(message)
    return rho, ssq, ssq * weight * enthalpy


def potential_weight(consts, phi):
    """exp(4 phi/c**2); 1 in the limit, where phi is not needed."""
    if consts.finite_c and phi is None:
        raise ValueError("finite-c closure needs the potential")
    return np.exp(4.0 * phi * consts.inv_c_sq) if consts.finite_c else 1.0


def mass_density(consts, eos, p):
    """Proper energy density rho_c(p) (`closure`).  In the limit it is the
    rest density alone, which no causality bound constrains."""
    if not consts.finite_c:
        return _rest_density(consts, eos, np.asarray(p))
    return closure(consts, eos, p)[0]


def lorentz_factor_sq(consts, v):
    """gamma_c**2 = c**2 / (c**2 - |v|**2); identically 1 in the limit.

    v has shape (3, ...).  Raises on |v| >= c, naming the grid point of the
    largest |v|.
    """
    vsq = np.sum(np.square(np.asarray(v)), axis=0)
    if not consts.finite_c:
        return np.ones_like(vsq)
    if np.any(vsq >= consts.c**2):
        idx = np.unravel_index(np.argmax(vsq), vsq.shape)
        raise ValueError("superluminal velocity at grid point %s"
                         % (tuple(int(i) for i in idx),))
    return consts.c**2 / (consts.c**2 - vsq)


def pull_back_pressure(consts, phi, big_p):
    """The pressure p = exp(-4 phi/c**2) P of the weighted pressure P."""
    return np.exp(-4.0 * phi * consts.inv_c_sq) * big_p


def potential_source(consts, eos, big_p, phi):
    """Source R - 3 P/c**2 = exp(4 phi/c**2) rho_c(p) - 3 P/c**2 of the
    potential equation at finite c, from the weighted pressure P and phi
    alone: the r of `coefficients` (with the causality check of `closure`)
    without its Lorentz factor, q, s_c**2 or alpha."""
    p = pull_back_pressure(consts, phi, big_p)
    r = potential_weight(consts, phi) * mass_density(consts, eos, p)
    return r - 3.0 * consts.inv_c_sq * big_p


@dataclass(frozen=True)
class Coefficients:
    """Pointwise coefficient fields of a state w = (eta, P, v) with potential
    phi, shared by the matrices a0, a^k of the fluid block and the energy
    current: p = exp(-4 phi/c**2) P, r = exp(4 phi/c**2) rho_c,
    q = s_c**2 exp(4 phi/c**2) (rho_c + p/c**2) (= gamma P for this family),
    ssq = s_c**2, gam2 = gamma_c**2, alpha = gam2 (r + P/c**2) and v.
    At c = inf, P is p and alpha is r.
    """

    p: np.ndarray
    big_p: np.ndarray
    r: np.ndarray
    q: np.ndarray
    ssq: np.ndarray
    gam2: np.ndarray
    alpha: np.ndarray
    v: np.ndarray


def coefficients(consts, eos, w, phi=None):
    """`Coefficients` of w = (eta, P, v) and phi at finite c, or of
    w = (eta, p, v) at c = inf, where phi is not needed."""
    big_p, v = w[1], w[2:]
    gam2 = lorentz_factor_sq(consts, v)
    weight = potential_weight(consts, phi)
    p = pull_back_pressure(consts, phi, big_p) if consts.finite_c else big_p
    rho, ssq, q = closure(consts, eos, p, weight)
    r = weight * rho
    return Coefficients(p=p, big_p=big_p, r=r, q=q, ssq=ssq, gam2=gam2,
                        alpha=gam2 * (r + consts.inv_c_sq * big_p), v=v)


def background_potential(consts, eos, p_bar):
    """Spatially constant background potential phi_bar.

    In the limit the background constraint is linear:

        phi_bar_inf = -4 pi G rho_inf(p_bar) / kappa**2.

    For finite c it is the scalar root of

        F(phi) = kappa**2 phi + 4 pi G exp(4 phi/c**2) (rho_c(p_bar) - 3 p_bar/c**2)

    F is convex and increasing, and F < 0 at the Newtonian guess, so the
    first Newton step lands between the root and 0 and every later step
    falls monotonically toward the root.  The iteration stops at
    |F| <= BACKGROUND_TOL or, when roundoff keeps that out of reach (|phi|
    large), at the first step after the first that does not lower phi,
    whose result it returns.  A source rho_c(p_bar) - 3 p_bar/c**2 that
    is not positive has no root, and a background density rho_c(p_bar)
    that is not finite has none either: a ValueError names it and c, as it
    does when BACKGROUND_MAX_ITER steps do not converge.
    """
    g, kap = consts.grav_g, consts.kappa
    # an overflowing density is the error below, not a warning here
    with np.errstate(over="ignore", invalid="ignore"):
        rho = float(mass_density(consts, eos, p_bar))
    if not math.isfinite(rho):
        raise ValueError("background density rho_c(p_bar) must be finite: "
                         "%g at c = %g" % (rho, consts.c))
    if not consts.finite_c:
        return -4.0 * math.pi * g * rho / kap**2

    icc = consts.inv_c_sq
    src = rho - 3.0 * p_bar * icc
    if not src > 0:
        raise ValueError("background source density rho_c - 3 p/c**2 must be "
                         "positive: %.6g at c = %g" % (src, consts.c))

    phi = -4.0 * math.pi * g * src / kap**2  # Newtonian guess
    for it in range(BACKGROUND_MAX_ITER):
        e = math.exp(4.0 * phi * icc)
        f = kap**2 * phi + 4.0 * math.pi * g * e * src
        if abs(f) <= BACKGROUND_TOL:
            return phi
        step = phi - f / (kap**2 + 16.0 * math.pi * g * icc * e * src)
        if it > 0 and step >= phi:
            return step
        phi = step
    raise ValueError("background potential did not converge in %d Newton "
                     "steps: source rho_c - 3 p/c**2 = %.6g at c = %g"
                     % (BACKGROUND_MAX_ITER, src, consts.c))


def fit_slope(cs, vals):
    """Log-log least-squares slope and root-mean-square fit residual."""
    x = np.log(np.asarray(cs, float))
    # floor at 1e-300 so exactly-zero samples (quiet sweeps) stay finite
    y = np.log(np.maximum(np.asarray(vals, float), 1e-300))
    coef = np.polyfit(x, y, 1)
    resid = y - np.polyval(coef, x)
    return float(coef[0]), float(np.sqrt(np.mean(resid**2)))


def rate_check(eos, eta_box, p_box, c_values, seed=0):
    """Empirical c**-2 convergence rates of the family toward its limit.

    Samples (eta, p) uniformly from the closed boxes plus a potential sample
    in [-1, 0] (at phi = 0 the pressure coefficient q_c = gamma p exactly and
    its gap would vanish identically), evaluates the gaps |rho_c - rho_inf|,
    |s_c**2 - s_inf**2|, |q_c - q_inf| in the sup norm over the samples for
    each c, and returns a dict of fitted log-log slopes.  All three should
    sit near -2.
    """
    rng = np.random.default_rng(seed)
    rng.uniform(*eta_box, RATE_SAMPLES)  # eta: unused by the closure
    p = rng.uniform(*p_box, RATE_SAMPLES)
    phi = rng.uniform(-1.0, 0.0, RATE_SAMPLES)
    limit = closure(PhysicalConstants(c=math.inf), eos, p)
    gaps = {"rho": [], "sound_sq": [], "q": []}
    for c in c_values:
        k = PhysicalConstants(c=c)
        finite = closure(k, eos, p, potential_weight(k, phi))
        for vals, f_c, f_inf in zip(gaps.values(), finite, limit):
            vals.append(np.max(np.abs(f_c - f_inf)))
    return {name: fit_slope(c_values, vals)[0] for name, vals in gaps.items()}
