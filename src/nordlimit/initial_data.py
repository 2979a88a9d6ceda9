"""Perturbed quiet-fluid initial data shared between the two systems.

The data are a uniform background (eta_bar, p_bar, v=0) plus well-localized
Gaussian bumps; the density depends on p alone, so the bundle keeps only
p_bar of the background.  From the Newtonian fields (eta0, p0, v0) we derive

    phi0_inf = phi_bar_inf + (lap - kappa**2)**-1 [4 pi G (rho_inf(p0)
                                                  - rho_inf(p_bar))],
    psi0     = (lap - kappa**2)**-1 [-4 pi G d_k(rho_inf(p0) v0^k)],

phi0_inf by the limit system's own solve (`euler_poisson._potential`).  For
finite c the potential datum is shifted by the background constants,
phi0_c = phi0_inf - phi_bar_inf + phi_bar_c, so the deviation from the
background is identical across the family.  The finite-c fluid state evolves
the weighted pressure: w0_c = (eta0, exp(4 phi0_c/c**2) p0, v0).
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import eos as eos_mod
from . import euler_poisson as ep


@dataclass(frozen=True)
class PerturbationSpec:
    """Gaussian bump amplitudes, common center, and width for (eta, p, v)."""

    amp_eta: float = 0.0
    amp_p: float = 0.0
    amp_v: tuple = (0.0, 0.0, 0.0)
    center: tuple = (0.0, 0.0, 0.0)
    width: float = 1.0


@dataclass
class DataBundle:
    """Initial fields for both systems plus the background constants.

    w_inf stacks (eta, p, vx, vy, vz); after lift_to_relativistic the
    finite-c members (phi_c, w_c, phi_bar_c, consts) are populated, with
    w_c = (eta, exp(4 phi_c/c**2) p, v).
    """

    grid: object
    eos: object
    p_bar: float
    w_inf: np.ndarray
    phi_inf: np.ndarray
    psi0: np.ndarray
    phi_bar_inf: float
    consts: object = None
    phi_c: np.ndarray = None
    w_c: np.ndarray = None
    phi_bar_c: float = None


def gaussian_bump(grid, center, width):
    """Unit-amplitude Gaussian on the torus via minimum-image distance.

    The bump is not smooth on the torus.  The minimum-image distance has a
    kink on the faces opposite the centre, half a box away along an axis,
    where the bump is exp(-L**2 / (8 width**2)): 3.4e-4 at width pi/4 on
    L = 2 pi, and 1.1e-2 at width L/6.  Its slope jumps there, so the data
    lie in H^s only for s < 3/2.  The width must lie in (0, L/6]: the box
    is then at least six widths across, and the bump at those faces at
    most exp(-4.5) of its peak, which bounds the kink but does not remove
    it.
    """
    if not (0 < width <= grid.length / 6):
        raise ValueError("bump width must lie in (0, L/6]")
    x, y, z = grid.meshgrid()
    rsq = np.zeros_like(x)
    for coord, c0 in zip((x, y, z), center):
        d = coord - c0
        d -= grid.length * np.round(d / grid.length)
        rsq += d * d
    return np.exp(-0.5 * rsq / width**2)


def build_newtonian_data(spec, consts_inf, eos, grid, eta_bar=1.0, p_bar=1.0,
                         admissible_box=None):
    """Construct the Newtonian data bundle for the limit system.

    consts_inf must carry c = inf.  admissible_box, if given, is
    ((eta_lo, eta_hi), (p_lo, p_hi)); the data must stay inside with a 10%
    margin of the box extent, otherwise a ValueError names the worst point.
    """
    if consts_inf.finite_c:
        raise ValueError("build_newtonian_data expects c = inf constants")
    bump = gaussian_bump(grid, spec.center, spec.width)
    eta = eta_bar + spec.amp_eta * bump
    p = p_bar + spec.amp_p * bump
    v = np.stack([a * bump for a in spec.amp_v])

    if admissible_box is not None:
        for name, f, (lo, hi) in (("eta", eta, admissible_box[0]),
                                  ("p", p, admissible_box[1])):
            margin = 0.1 * (hi - lo)
            bad = (f < lo + margin) | (f > hi - margin)
            if np.any(bad):
                idx = np.unravel_index(np.argmax(bad), f.shape)
                raise ValueError(
                    "initial %s leaves the admissible box at grid point %s "
                    "(value %.6g)" % (name, tuple(int(i) for i in idx), f[idx]))
    if np.any(eta <= 0) or np.any(p <= 0):
        raise ValueError("initial data must keep eta and p positive")

    g = consts_inf.grav_g
    phi_bar_inf = eos_mod.background_potential(consts_inf, eos, p_bar)
    rho = eos_mod.mass_density(consts_inf, eos, p)
    phi_inf = ep._potential(consts_inf, eos, grid, p_bar, rho)
    # rho v near the float maximum overflows; the initial-state check aborts
    with np.errstate(over="ignore", invalid="ignore"):
        flux_div = sum(grid.derivative(rho * v[k], k) for k in range(3))
        psi0 = grid.helmholtz_solve(-4.0 * math.pi * g * flux_div, consts_inf.kappa)
    w_inf = np.concatenate([eta[None], p[None], v])
    return DataBundle(grid=grid, eos=eos, p_bar=p_bar, w_inf=w_inf,
                      phi_inf=phi_inf, psi0=psi0, phi_bar_inf=phi_bar_inf)


def lift_to_relativistic(bundle, consts):
    """Populate the finite-c members of a Newtonian bundle.

    The potential datum keeps the same deviation from its background
    constant; the evolved pressure is weighted by exp(4 phi_c / c**2).
    """
    if not consts.finite_c:
        raise ValueError("lift_to_relativistic expects finite c")
    phi_bar_c = eos_mod.background_potential(consts, bundle.eos, bundle.p_bar)
    phi_c = bundle.phi_inf - bundle.phi_bar_inf + phi_bar_c
    eta, p = bundle.w_inf[0], bundle.w_inf[1]
    big_p = eos_mod.potential_weight(consts, phi_c) * p
    w_c = np.concatenate([eta[None], big_p[None], bundle.w_inf[2:]])
    return replace(bundle, consts=consts, phi_c=phi_c, w_c=w_c,
                   phi_bar_c=phi_bar_c)


def mollify_bundle(bundle, eps):
    """Gaussian-smooth the fluid data fields of a bundle (potentials kept).

    Returns a new bundle with w_inf (and w_c if present) smoothed mode-wise;
    the potential data phi_inf / phi_c are left untouched, matching the
    role of smoothing in the trajectory-variation construction.
    """
    g = bundle.grid
    w_inf = np.stack([g.mollify(f, eps) for f in bundle.w_inf])
    out = replace(bundle, w_inf=w_inf)
    if bundle.w_c is not None:
        out = replace(out, w_c=np.stack([g.mollify(f, eps) for f in bundle.w_c]))
    return out
