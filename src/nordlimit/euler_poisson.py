"""RK4 pseudospectral integrator for the Newtonian limit system.

Variables are w = (eta, p, v1, v2, v3); the potential is fully constrained,
solved from the screened Poisson equation

    (lap - kappa**2) phi = 4 pi G rho_inf(eta, p)

at every RK4 stage (on the torus the uniform part is absorbed by the
constant background potential).  The pressure-form equations are evolved;
the mass-form (evolving R = rho_inf directly in conservation form) is kept
only as an equivalence oracle.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import eos as eos_mod


@dataclass
class NewtState:
    """Limit-system state (eta, p, v) at time t; phi is derived and cached."""

    w: np.ndarray
    t: float
    consts: object
    eos: object
    grid: object
    eta_bar: float
    p_bar: float
    phi: np.ndarray = None


def from_bundle(bundle, consts_inf):
    return NewtState(w=bundle.w_inf.copy(), t=0.0, consts=consts_inf,
                     eos=bundle.eos, grid=bundle.grid,
                     eta_bar=bundle.eta_bar, p_bar=bundle.p_bar)


def solve_constraint(state):
    """Potential from the screened Poisson constraint for the current w."""
    consts, eos = state.consts, state.eos
    rho = eos_mod.mass_density(consts, eos, state.w[0], state.w[1])
    rho_bar = float(eos_mod.mass_density(consts, eos, state.eta_bar, state.p_bar))
    phi_bar = eos_mod.background_potential(consts, eos, state.eta_bar, state.p_bar)
    return phi_bar + state.grid.helmholtz_solve(
        4.0 * math.pi * consts.grav_g * (rho - rho_bar), consts.kappa)


def with_constraint(state):
    return replace(state, phi=solve_constraint(state))


def newtonian_rhs(state):
    """d_t w of the pressure-form system; requires a cached potential."""
    if state.phi is None:
        raise ValueError("potential not cached; call with_constraint first")
    grid = state.grid
    eta, p = state.w[0], state.w[1]
    v = state.w[2:]
    r_inf = eos_mod.mass_density(state.consts, state.eos, eta, p)
    if np.any(r_inf <= 0):
        raise ValueError("nonpositive limit density")
    q_inf = eos_mod.q_coefficient(state.consts, state.eos, eta, p)

    dw = grid.gradient(state.w)
    deta, dp, dv = dw[0], dw[1], dw[2:]
    dphi = grid.gradient(state.phi)

    adv = lambda f_grad: np.einsum("k...,k...->...", v, f_grad)
    div_v = dv[0, 0] + dv[1, 1] + dv[2, 2]
    dt_eta = -adv(deta)
    dt_p = -adv(dp) - q_inf * div_v
    dt_v = -np.einsum("k...,jk...->j...", v, dv) - (dp + r_inf * dphi) / r_inf
    return np.concatenate([dt_eta[None], dt_p[None], dt_v])


def mass_form_rhs(state_w_r, consts, eos, grid, eta_bar, p_bar):
    """Oracle right-hand side evolving (eta, R, v) in conservation form.

    R = rho_inf is advanced by d_t R + d_k(R v^k) = 0 while the velocity
    equation uses the pressure recovered from R through the equation of
    state, p = A_inf(eta) (R / m0)**gamma.
    """
    eta, r_inf = state_w_r[0], state_w_r[1]
    v = state_w_r[2:]
    p = eos.a_inf * (r_inf / eos.m0) ** eos.gamma
    rho_bar = float(eos_mod.mass_density(consts, eos, eta_bar, p_bar))
    phi_bar = eos_mod.background_potential(consts, eos, eta_bar, p_bar)
    phi = phi_bar + grid.helmholtz_solve(
        4.0 * math.pi * consts.grav_g * (r_inf - rho_bar), consts.kappa)

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
    state = with_constraint(state)
    return state.grid.dealias(newtonian_rhs(state))


def step(state, dt):
    """Classical RK4 with the constraint re-solved at every stage."""
    k1 = _deriv(state)
    k2 = _deriv(replace(state, w=state.w + 0.5 * dt * k1, t=state.t + 0.5 * dt))
    k3 = _deriv(replace(state, w=state.w + 0.5 * dt * k2, t=state.t + 0.5 * dt))
    k4 = _deriv(replace(state, w=state.w + dt * k3, t=state.t + dt))
    out = replace(state, w=state.w + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0,
                  t=state.t + dt)
    return with_constraint(out)


def max_signal_speed(state):
    v = state.w[2:]
    ssq = eos_mod.sound_speed_sq(state.consts, state.eos, state.w[0], state.w[1])
    fluid = float(np.max(np.sqrt(np.sum(v * v, axis=0)))) + float(np.max(np.sqrt(ssq)))
    return max(fluid, 1.0)


@dataclass
class Trajectory:
    ts: list
    ws: list
    phis: list
    dt: float
    abort_reason: str = None
    dt_reason: str = None
    steps: int = 0
    rhs_evals: int = 0

    @property
    def ok(self):
        return self.abort_reason is None


def check_admissibility(state, eta_box=None, p_box=None):
    if not np.all(np.isfinite(state.w)):
        return "non-finite state"
    if np.any(state.w[0] <= 0) or np.any(state.w[1] <= 0):
        return "lost positivity of eta or p"
    for f, box in ((state.w[0], eta_box), (state.w[1], p_box)):
        if box is not None:
            margin = 0.01 * (box[1] - box[0])
            if float(np.min(f)) < box[0] + margin or float(np.max(f)) > box[1] - margin:
                return "admissibility margin below 1% of the configured box"
    return None


def run(state, t_final, cfl=0.5, n_outputs=10, eta_box=None, p_box=None):
    """Mirror of the finite-c run: fixed dt, outputs at matched times.

    dt = cfl * h / max(fluid signal speed, 1), stepped with RK4; a
    ValueError raised inside a step ends the run as a recorded abort.
    """
    if not (0 < cfl <= 1):
        raise ValueError("cfl must lie in (0, 1]")
    state = with_constraint(state)
    speed0 = max_signal_speed(state)
    dt_cfl = cfl * state.grid.h / speed0
    seg = t_final / n_outputs
    per_seg = max(1, math.ceil(seg / dt_cfl - 1e-12))
    dt = seg / per_seg
    traj = Trajectory(ts=[state.t], ws=[state.w.copy()], phis=[state.phi.copy()],
                      dt=dt, dt_reason=("fluid CFL" if speed0 > 1.0
                                        else "unit speed floor"))
    for m in range(n_outputs):
        for _ in range(per_seg):
            try:
                state = step(state, dt)
            except ValueError as exc:
                traj.abort_reason = "step %d from t=%.6g failed: %s" % (
                    traj.steps + 1, state.t, exc)
                return traj
            traj.steps += 1
            traj.rhs_evals += 4
        state = replace(state, t=(m + 1) * seg)
        reason = check_admissibility(state, eta_box, p_box)
        if reason is None and max_signal_speed(state) > 1.1 * speed0:
            reason = "CFL margin violated: signal speed grew past 110% of initial"
        if reason is not None:
            traj.abort_reason = reason
            return traj
        traj.ts.append(state.t)
        traj.ws.append(state.w.copy())
        traj.phis.append(state.phi.copy())
    return traj
