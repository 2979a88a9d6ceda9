"""RK4 pseudospectral integrator for the Newtonian limit system.

Variables are w = (eta, p, v1, v2, v3); the potential is fully constrained
by the screened Poisson equation

    (lap - kappa**2) phi = 4 pi G rho_inf(p)

(on the torus the uniform part is absorbed by the constant background
potential).  The force -grad phi is therefore a linear Fourier multiplier
of the source, i k src_hat / (|k|**2 + kappa**2): a right-hand side
(`_deriv`) transforms the source together with the fluid terms and adds
the force to the velocity spectra, so no RK4 stage solves the constraint.
`step` solves it once, for the new state, whose potential the outputs
carry.  The pressure-form equations are evolved; the mass-form (evolving
R = rho_inf directly in conservation form) is kept only as an equivalence
oracle, and `newtonian_rhs`, which applies -grad phi of a solved potential
in physical space, as the oracle of `_deriv`.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import eos as eos_mod
from . import stepping


@dataclass
class NewtState:
    """Limit-system state (eta, p, v) at time t; phi is derived and cached."""

    w: np.ndarray
    t: float
    consts: object
    eos: object
    grid: object
    p_bar: float
    phi: np.ndarray = None
    pi = 0.0  # d_t phi: the c**-2 pi terms vanish at c = inf

    def pressure(self):
        """The pressure p, evolved directly in the limit system."""
        return self.w[1]


def from_bundle(bundle, consts_inf):
    return NewtState(w=bundle.w_inf.copy(), t=0.0, consts=consts_inf,
                     eos=bundle.eos, grid=bundle.grid, p_bar=bundle.p_bar)


def _limit_density(state):
    """(rho_inf, q_inf) of the state from one closure; rho_inf must be > 0."""
    r_inf, _, q_inf = eos_mod.closure(state.consts, state.eos, state.w[1])
    if np.any(r_inf <= 0):
        raise ValueError("nonpositive limit density")
    return r_inf, q_inf


def _constraint_source(consts, eos, p_bar, r_inf, out=None):
    """The constraint's source 4 pi G (rho_inf - rho_bar) for the limit
    density r_inf, written into out when given; rho_bar is the background's
    rho_inf."""
    rho_bar = float(eos_mod.mass_density(consts, eos, p_bar))
    src = np.subtract(r_inf, rho_bar, out=out)
    src *= 4.0 * math.pi * consts.grav_g
    return src


def _potential(consts, eos, grid, p_bar, r_inf):
    """The potential solving the screened constraint for r_inf."""
    phi_bar = eos_mod.background_potential(consts, eos, p_bar)
    return phi_bar + grid.helmholtz_solve(
        _constraint_source(consts, eos, p_bar, r_inf), consts.kappa)


def solve_constraint(state):
    """Potential from the screened Poisson constraint for the current w."""
    r_inf = eos_mod.mass_density(state.consts, state.eos, state.w[1])
    return _potential(state.consts, state.eos, state.grid, state.p_bar, r_inf)


def with_constraint(state):
    return replace(state, phi=solve_constraint(state))


def _fluid_terms(state, r_inf, q_inf, out):
    """d_t w of the pressure-form system without gravity, written into out
    (5, n, n, n): transport, -q_inf div v and the force -grad p / r_inf."""
    v = state.w[2:]
    dw = state.grid.gradient(state.w)
    deta, dp, dv = dw[0], dw[1], dw[2:]
    adv = lambda f_grad: np.einsum("k...,k...->...", v, f_grad)
    div_v = dv[0, 0] + dv[1, 1] + dv[2, 2]
    out[0] = -adv(deta)
    out[1] = -adv(dp) - q_inf * div_v
    out[2:] = -np.einsum("k...,jk...->j...", v, dv) - dp / r_inf
    return out


def newtonian_rhs(state, density=None):
    """d_t w of the pressure-form system; requires a cached potential, whose
    force -grad phi it applies in physical space.  density, if given, is
    the state's (rho_inf, q_inf) (`_limit_density`), for a caller that
    needs rho_inf as well."""
    if state.phi is None:
        raise ValueError("potential not cached; call with_constraint first")
    if density is None:
        density = _limit_density(state)
    out = _fluid_terms(state, *density, np.empty_like(state.w))
    out[2:] -= state.grid.gradient(state.phi)
    return out


def mass_form_rhs(state_w_r, consts, eos, grid, p_bar):
    """Oracle right-hand side evolving (eta, R, v) in conservation form.

    R = rho_inf is advanced by d_t R + d_k(R v^k) = 0 while the velocity
    equation uses the pressure recovered from R through the equation of
    state, p = A_inf (R / m0)**gamma.
    """
    eta, r_inf = state_w_r[0], state_w_r[1]
    v = state_w_r[2:]
    p = eos.a_inf * (r_inf / eos.m0) ** eos.gamma
    phi = _potential(consts, eos, grid, p_bar, r_inf)

    deta = grid.gradient(eta)
    dv = grid.gradient(v)
    dp = grid.gradient(p)
    dphi = grid.gradient(phi)
    dt_eta = -np.einsum("k...,k...->...", v, deta)
    flux_div = sum(grid.derivative(r_inf * v[k], k) for k in range(3))
    dt_r = -flux_div
    dt_v = -np.einsum("k...,jk...->j...", v, dv) - (dp + r_inf * dphi) / r_inf
    return np.concatenate([dt_eta[None], dt_r[None], dt_v])


def _deriv(state):
    """Dealiased d_t w, with gravity taken from the source spectrum.

    The fluid terms and the constraint source are transformed as one stack
    of 6 fields; the force -grad phi, with spectrum
    i k src_hat / (|k|**2 + kappa**2), is added to the velocity spectra in
    place before the 2/3 mask.  No potential is solved or read, so state.phi
    may be None.
    """
    grid = state.grid
    r_inf, q_inf = _limit_density(state)
    stack = np.empty((6,) + r_inf.shape)
    _fluid_terms(state, r_inf, q_inf, stack[:5])
    _constraint_source(state.consts, state.eos, state.p_bar, r_inf, out=stack[5])
    spec = grid.fft(stack)
    del stack, r_inf, q_inf
    src = spec[5]
    src /= grid.screened_symbol(state.consts.kappa)  # -phi_hat
    force = np.empty_like(src)
    for j, k in enumerate((grid.kx, grid.ky, grid.kz)):
        np.multiply(src, 1j * k, out=force)
        spec[2 + j] += force
    del force
    rhs = spec[:5]
    rhs *= grid.dealias_mask
    return grid.ifft(rhs)


def step(state, dt):
    """Classical RK4; the constraint is solved once, for the new state.

    `_deriv` takes gravity from the source spectrum, so the stage states
    carry no potential (phi=None); the new state's potential is what the
    outputs and the finiteness check see.
    """
    k1 = _deriv(state)
    k2 = _deriv(replace(state, w=state.w + 0.5 * dt * k1, t=state.t + 0.5 * dt,
                        phi=None))
    k3 = _deriv(replace(state, w=state.w + 0.5 * dt * k2, t=state.t + 0.5 * dt,
                        phi=None))
    k4 = _deriv(replace(state, w=state.w + dt * k3, t=state.t + dt, phi=None))
    out = replace(state, w=state.w + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0,
                  t=state.t + dt)
    return with_constraint(out)


def _rk4_stepper(state, dt):
    """The stepper `run` hands to `stepping.drive`: `step` with the fixed dt."""
    return lambda st: step(st, dt)


def run(state, t_final, cfl=0.5, n_outputs=10, eta_box=None, p_box=None):
    """Mirror of the finite-c run: fixed dt, outputs at matched times, the
    same `stepping.drive` rules.

    dt = cfl * h / max(fluid signal speed, 1), stepped with RK4.
    """
    if not (0 < cfl <= 1):
        raise ValueError("cfl must lie in (0, 1]")
    state = with_constraint(state)
    speed0 = max(stepping.fluid_signal_speed(state), 1.0)
    return stepping.drive(
        state, _rk4_stepper, cfl * state.grid.h / speed0,
        "fluid CFL" if speed0 > 1.0 else "unit speed floor",
        speed0, t_final, n_outputs, eta_box, p_box)
