"""RK4 pseudospectral integrator for the Newtonian limit system.

Variables are w = (eta, p, v1, v2, v3); the potential is fully constrained
by the screened Poisson equation

    (lap - kappa**2) phi = 4 pi G rho_inf(p)

(on the torus the uniform part is absorbed by the constant background
potential).  Every RK4 stage solves the constraint for its own w, and its
right-hand side (`_deriv`) is the dealiased `newtonian_rhs`, which applies
the force -grad phi of the solved potential in physical space.  The
closure is taken once per solved state, only by `with_constraint`, which
keeps the (rho_inf, q_inf) of w that `solve_constraint` and `newtonian_rhs`
read.  The pressure-form equations are evolved; the mass-form
(evolving R = rho_inf directly in conservation form) is kept only as an
equivalence oracle.

From 64**3 points (`fields.FAN_OUT_POINTS`) the per-point work of a step
runs in x-slabs on the transform threads (`Grid3.per_slab`): the terms of
`newtonian_rhs`, and in `step` the stage updates, the running sum of the
stages and their combination.  The gradients, the dealias and the
FFT-based solve keep their per-component tasks; the solve's source and
its sum with phi_bar are whole-array numpy.  Below that size, or on one
CPU, the one slab is the whole grid.  An elementwise result does not
depend on where the grid is cut, so a step is bit-identical on any number
of CPUs.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import eos as eos_mod
from . import stepping


@dataclass
class NewtState:
    """Limit-system state (eta, p, v) at time t; phi, the potential solved
    for w, and density, the (rho_inf, q_inf) of w that sourced it, are None
    until `with_constraint` caches them."""

    w: np.ndarray
    t: float
    consts: object
    eos: object
    grid: object
    p_bar: float
    phi: np.ndarray = None
    density: tuple = None
    pi = 0.0  # d_t phi: the c**-2 pi terms vanish at c = inf

    def pressure(self):
        """The pressure p, evolved directly in the limit system."""
        return self.w[1]


def from_bundle(bundle, consts_inf):
    return NewtState(w=bundle.w_inf.copy(), t=0.0, consts=consts_inf,
                     eos=bundle.eos, grid=bundle.grid, p_bar=bundle.p_bar)


def _limit_density(state):
    """(rho_inf, q_inf) of the state's w from one closure (`with_constraint`);
    `newtonian_rhs` requires rho_inf > 0."""
    r_inf, _, q_inf = eos_mod.closure(state.consts, state.eos, state.w[1])
    return r_inf, q_inf


def _potential(consts, eos, grid, p_bar, r_inf):
    """The potential solving the screened constraint for the limit density
    r_inf: the background's phi_bar plus the screened response to the
    source 4 pi G (rho_inf - rho_bar), rho_bar the background's rho_inf."""
    phi_bar = eos_mod.background_potential(consts, eos, p_bar)
    rho_bar = float(eos_mod.mass_density(consts, eos, p_bar))
    src = np.subtract(r_inf, rho_bar)
    src *= 4.0 * math.pi * consts.grav_g
    phi = grid.helmholtz_solve(src, consts.kappa)
    del src
    phi += phi_bar
    return phi


def solve_constraint(state):
    """Potential from the screened Poisson constraint for the current w,
    sourced by the cached limit density (`with_constraint`)."""
    if state.density is None:
        raise ValueError("density not cached; call with_constraint first")
    return _potential(state.consts, state.eos, state.grid, state.p_bar,
                      state.density[0])


def with_constraint(state):
    """The state with its density and potential cached: one closure gives
    the (rho_inf, q_inf) of w, whose rho_inf sources the potential."""
    state = replace(state, density=_limit_density(state))
    return replace(state, phi=solve_constraint(state))


def newtonian_rhs(state):
    """d_t w of the pressure-form system: transport, -q_inf div v, the
    force -grad p / rho_inf and the force -grad phi, applied in physical
    space from the cached potential and (rho_inf, q_inf).  A rho_inf that
    is not positive everywhere raises ValueError.

    The gradients fan out per component (`Grid3.gradient`); the terms are
    then formed slab by slab (`Grid3.per_slab`), each ufunc or einsum
    writing straight into its row of the output.
    """
    if state.phi is None or state.density is None:
        raise ValueError("potential not cached; call with_constraint first")
    r_inf, q_inf = state.density
    grid = state.grid
    dw = grid.gradient(state.w)
    dphi = grid.gradient(state.phi)
    out = np.empty_like(state.w)

    def terms(x):
        r = r_inf[x]
        if np.any(r <= 0):
            raise ValueError("nonpositive limit density")
        v, dp, dv = state.w[2:][x], dw[1][x], dw[2:][x]
        transport, pressure, momentum = out[0][x], out[1][x], out[2:][x]
        np.einsum("k...,k...->...", v, dw[0][x], out=transport)
        np.negative(transport, out=transport)
        np.einsum("k...,k...->...", v, dp, out=pressure)
        np.negative(pressure, out=pressure)
        work = dv[0, 0] + dv[1, 1]
        work += dv[2, 2]
        work *= q_inf[x]
        pressure -= work
        np.einsum("k...,jk...->j...", v, dv, out=momentum)
        np.negative(momentum, out=momentum)
        for j in range(3):
            np.divide(dp[j], r, out=work)
            np.subtract(momentum[j], work, out=momentum[j])
        momentum -= dphi[x]

    grid.per_slab(terms)
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
    check read the new state's.  The weighted sum of the stages is kept
    running in the first stage's array, so that at most two stages are
    held at once; it adds in the order of k1 + 2 k2 + 2 k3 + k4, bit for
    bit.  The stage updates w + a dt k and the sum are formed slab by slab
    (`Grid3.per_slab`: x-slabs on the transform threads from 64**3 points),
    each written into its array without a temporary, so the new state is
    bit-identical on any number of CPUs.
    """
    w, t, per_slab = state.w, state.t, state.grid.per_slab

    def stage(k, a, t_stage):
        """The state at w + a k, its potential solved."""
        new = np.empty_like(w)

        def update(x):
            part = new[x]
            np.multiply(k[x], a, out=part)
            np.add(w[x], part, out=part)

        per_slab(update)
        return with_constraint(replace(state, w=new, t=t_stage))

    def add_twice(k):
        """acc += 2 k, doubling k in place."""
        def add(x):
            part, acc_part = k[x], acc[x]
            part *= 2
            acc_part += part

        per_slab(add)

    acc = _deriv(state)
    k2 = _deriv(stage(acc, 0.5 * dt, t + 0.5 * dt))
    mid = stage(k2, 0.5 * dt, t + 0.5 * dt)
    add_twice(k2)
    del k2
    k3 = _deriv(mid)
    del mid
    end = stage(k3, dt, t + dt)
    add_twice(k3)
    del k3
    k4 = _deriv(end)
    del end

    def combine(x):
        """w + dt (acc + k4) / 6, into acc."""
        part = acc[x]
        part += k4[x]
        part *= dt
        part /= 6.0
        np.add(w[x], part, out=part)

    per_slab(combine)
    del k4
    return with_constraint(replace(state, w=acc, t=t + dt))


def _rk4_stepper(state, dt):
    """The stepper `run` hands to `stepping.drive`: `step` with the fixed dt."""
    return lambda st: step(st, dt)


def run(state, t_final, cfl=0.5, n_outputs=10, eta_box=None, p_box=None,
        observe=None):
    """Mirror of the finite-c run: RK4 steps of the dt that
    `stepping.drive` works out from cfl, outputs at matched times, the same
    abort rules (a non-causal state included); observe, if given, receives
    each output state in place of the stored snapshots.
    """
    return stepping.drive(with_constraint(state), _rk4_stepper, cfl, t_final,
                          n_outputs, eta_box, p_box, observe)
