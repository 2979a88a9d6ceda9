"""RK4 pseudospectral integrator for the Newtonian limit system.

Variables are w = (eta, p, v1, v2, v3); the potential is fully constrained
by the screened Poisson equation

    (lap - kappa**2) phi = 4 pi G rho_inf(p)

(on the torus the uniform part is absorbed by the constant background
potential).  Every RK4 stage solves the constraint for its own w, and its
right-hand side (`_deriv`) is the dealiased `newtonian_rhs`, which applies
the force -grad phi of the solved potential in physical space.  The
pressure-form equations are evolved; the mass-form (evolving R = rho_inf
directly in conservation form) is kept only as an equivalence oracle.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import eos as eos_mod
from . import stepping


@dataclass
class NewtState:
    """Limit-system state (eta, p, v) at time t; phi, the potential solved
    for w, is None until `with_constraint` caches it."""

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


def _potential(consts, eos, grid, p_bar, r_inf):
    """The potential solving the screened constraint for the limit density
    r_inf: the background's phi_bar plus the screened response to the
    source 4 pi G (rho_inf - rho_bar), rho_bar the background's rho_inf."""
    phi_bar = eos_mod.background_potential(consts, eos, p_bar)
    rho_bar = float(eos_mod.mass_density(consts, eos, p_bar))
    src = 4.0 * math.pi * consts.grav_g * (r_inf - rho_bar)
    return phi_bar + grid.helmholtz_solve(src, consts.kappa)


def solve_constraint(state):
    """Potential from the screened Poisson constraint for the current w."""
    r_inf = eos_mod.mass_density(state.consts, state.eos, state.w[1])
    return _potential(state.consts, state.eos, state.grid, state.p_bar, r_inf)


def with_constraint(state):
    return replace(state, phi=solve_constraint(state))


def newtonian_rhs(state, density=None):
    """d_t w of the pressure-form system: transport, -q_inf div v, the
    force -grad p / rho_inf and the force -grad phi of the cached
    potential, applied in physical space.  density, if given, is the
    state's (rho_inf, q_inf) (`_limit_density`), for a caller that needs
    rho_inf as well."""
    if state.phi is None:
        raise ValueError("potential not cached; call with_constraint first")
    r_inf, q_inf = _limit_density(state) if density is None else density
    v = state.w[2:]
    dw = state.grid.gradient(state.w)
    deta, dp, dv = dw[0], dw[1], dw[2:]
    adv = lambda f_grad: np.einsum("k...,k...->...", v, f_grad)
    div_v = dv[0, 0] + dv[1, 1] + dv[2, 2]
    out = np.empty_like(state.w)
    out[0] = -adv(deta)
    out[1] = -adv(dp) - q_inf * div_v
    out[2:] = -np.einsum("k...,jk...->j...", v, dv) - dp / r_inf
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
    """Dealiased d_t w of a state whose potential is solved."""
    return state.grid.dealias(newtonian_rhs(state))


def step(state, dt):
    """Classical RK4 with the constraint solved at every stage.

    state must carry the potential of its w (`with_constraint`), which the
    first stage reuses; the later stages and the new state each get the
    potential solved for their own w.  The outputs and the finiteness
    check read the new state's.
    """
    def stage(w, t):
        return with_constraint(replace(state, w=w, t=t))

    k1 = _deriv(state)
    k2 = _deriv(stage(state.w + 0.5 * dt * k1, state.t + 0.5 * dt))
    k3 = _deriv(stage(state.w + 0.5 * dt * k2, state.t + 0.5 * dt))
    k4 = _deriv(stage(state.w + dt * k3, state.t + dt))
    return stage(state.w + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0, state.t + dt)


def _rk4_stepper(state, dt):
    """The stepper `run` hands to `stepping.drive`: `step` with the fixed dt."""
    return lambda st: step(st, dt)


def run(state, t_final, cfl=0.5, n_outputs=10, eta_box=None, p_box=None):
    """Mirror of the finite-c run: fixed dt, outputs at matched times, the
    same `stepping.drive` rules.

    dt = cfl h / s_fluid, or the shorter output interval; RK4 steps.
    """
    if not (0 < cfl <= 1):
        raise ValueError("cfl must lie in (0, 1]")
    state = with_constraint(state)
    speed0 = stepping.fluid_signal_speed(state)
    return stepping.drive(state, _rk4_stepper, cfl * state.grid.h / speed0,
                          speed0, t_final, n_outputs, eta_box, p_box)
