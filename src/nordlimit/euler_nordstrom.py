"""RK4 pseudospectral integrator for the finite-c fluid-scalar system.

Evolved variables are W = (eta, P, v1, v2, v3) together with the potential
pair (phi, pi), pi = d_t phi.  The fluid block is quasilinear,

    a0(W, phi) d_t W + a^k(W, phi) d_k W = b(W, phi, D phi),

and is advanced by solving for d_t W pointwise; the scalar potential obeys
the damped wave equation

    -c**-2 d_t^2 phi + lap phi - kappa**2 phi = 4 pi G (R - 3 P / c**2),

stepped as a first-order system in (phi, pi).  Spatial derivatives are
spectral; each full right-hand side is passed through the 2/3-rule mask.

A note on the coefficient matrices: a0 is assembled directly from the
evolution equations.  Its velocity rows couple to the pressure column with
weight beta^(i) = v^i gamma**2 / c**2 while the pressure row carries
q * beta^(i), so a0 is not symmetric as written; it becomes symmetric (and
positive definite) after the pressure row is divided by q, which is exactly
the weighting the energy current uses.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import eos as eos_mod


@dataclass
class RelState:
    """Fluid state (eta, P, v), potential pair, and parameters at time t."""

    w: np.ndarray
    phi: np.ndarray
    pi: np.ndarray
    t: float
    consts: object
    eos: object
    grid: object

    def pressure(self):
        """Unweighted pressure p = exp(-4 phi/c**2) P."""
        return np.exp(-4.0 * self.phi * self.consts.inv_c_sq) * self.w[1]

    def script_w(self):
        """The limit-system variables (eta, p, v) recovered from (W, phi)."""
        return np.concatenate([self.w[:1], self.pressure()[None], self.w[2:]])


def from_bundle(bundle):
    """Initial RelState from a lifted data bundle."""
    return RelState(w=bundle.w_c.copy(), phi=bundle.phi_c.copy(),
                    pi=bundle.psi0.copy(), t=0.0, consts=bundle.consts,
                    eos=bundle.eos, grid=bundle.grid)


def _thermo(state):
    """Pointwise coefficient fields shared by the matrix and rhs paths."""
    consts, eos = state.consts, state.eos
    icc = consts.inv_c_sq
    eta, big_p = state.w[0], state.w[1]
    v = state.w[2:]
    if consts.finite_c and np.any(np.sum(v * v, axis=0) >= consts.c**2):
        vsq = np.sum(v * v, axis=0)
        idx = np.unravel_index(np.argmax(vsq), vsq.shape)
        raise ValueError("superluminal velocity at grid point %s" % (idx,))
    p = np.exp(-4.0 * state.phi * icc) * big_p
    rho = eos_mod.mass_density(consts, eos, eta, p)
    weight = np.exp(4.0 * state.phi * icc)
    r_grav = weight * rho
    ssq = eos_mod.sound_speed_sq(consts, eos, eta, p)
    q = ssq * weight * (rho + p * icc)
    gam2 = eos_mod.lorentz_factor_sq(consts, v)
    alpha = gam2 * (r_grav + icc * big_p)
    return p, r_grav, q, gam2, alpha


def _source_terms(state, dphi, p=None, r_grav=None, q=None, gam2=None):
    """Potential source rows of the fluid right-hand side b.

    Returns (g_src, h_src) with h_src shape (3, ...); the eta row of b is 0.
    """
    icc = state.consts.inv_c_sq
    big_p = state.w[1]
    v = state.w[2:]
    if p is None:
        p, r_grav, q, gam2, _ = _thermo(state)
    mat_phi = icc * (state.pi + np.sum(v * dphi, axis=0))
    g_src = (4.0 * big_p - 3.0 * q) * mat_phi
    coeff = 3.0 * icc * big_p - r_grav
    h_src = coeff * (dphi + v * mat_phi / gam2)
    return g_src, h_src


def fluid_rhs(state, thermo=None):
    """d_t W via the analytic block solve of the quasilinear system.

    The 4x4 (P, v) block reduces, after eliminating d_t P, to
    (alpha I + mu v v^T) x = r with mu = s (alpha - s q), s = gamma**2/c**2,
    inverted by the rank-one update formula.  Points where the pivot
    alpha + mu |v|**2 falls below 1e-12 * alpha fall back to a dense LU
    solve of the assembled 5x5 system.  thermo, if given, is the
    _thermo(state) tuple, computed once per right-hand side by the caller.
    """
    grid = state.grid
    icc = state.consts.inv_c_sq
    v = state.w[2:]
    p, r_grav, q, gam2, alpha = _thermo(state) if thermo is None else thermo
    s = icc * gam2

    dw = grid.gradient(state.w)  # dw[m, k] = d_k W^m
    deta, dbig_p, dv = dw[0], dw[1], dw[2:]  # dv[j, k] = d_k v^j
    dphi = grid.gradient(state.phi)
    g_src, h_src = _source_terms(state, dphi, p, r_grav, q, gam2)

    adv_eta = np.einsum("k...,k...->...", v, deta)
    adv_p = np.einsum("k...,k...->...", v, dbig_p)
    div_v = dv[0, 0] + dv[1, 1] + dv[2, 2]
    adv_v = np.einsum("k...,jk...->j...", v, dv)       # (v . grad) v^j
    v_adv_v = np.einsum("j...,j...->...", v, adv_v)    # v_k (v . grad) v^k

    r_p = g_src - adv_p - q * div_v - s * q * v_adv_v
    r_v = (h_src - dbig_p - s * v * adv_p - alpha * (adv_v + s * v * v_adv_v))

    r_tilde = r_v - s * v * r_p
    mu = s * (alpha - s * q)
    vsq = np.sum(v * v, axis=0)
    denom = alpha + mu * vsq
    vdotr = np.einsum("j...,j...->...", v, r_tilde)
    x = r_tilde / alpha - (mu * vdotr / (alpha * denom)) * v
    dt_p = r_p - s * q * np.einsum("j...,j...->...", v, x)
    out = np.concatenate([(-adv_eta)[None], dt_p[None], x])

    bad = np.abs(denom) < 1e-12 * np.abs(alpha)
    if np.any(bad):
        a0, ak, b = assemble_matrices(state)
        rhs = b - np.einsum("kmn...,nk...->m...", ak, dw)
        idx = np.nonzero(bad)
        sol = np.linalg.solve(
            np.moveaxis(a0[(slice(None), slice(None)) + idx], (0, 1), (-2, -1)),
            np.moveaxis(rhs[(slice(None),) + idx], 0, -1)[..., None])[..., 0]
        out[(slice(None),) + idx] = np.moveaxis(sol, -1, 0)
    return out


def assemble_matrices(state):
    """Pointwise coefficient matrices a0, a^k and source vector b.

    Returns (a0, ak, b) with shapes (5, 5, n, n, n), (3, 5, 5, n, n, n) and
    (5, n, n, n).  Used by oracles and diagnostics; the evolution path uses
    the analytic solve in fluid_rhs.
    """
    grid = state.grid
    icc = state.consts.inv_c_sq
    v = state.w[2:]
    p, r_grav, q, gam2, alpha = _thermo(state)
    s = icc * gam2
    n = grid.n
    shape = (n, n, n)
    delta = np.eye(3)

    a0 = np.zeros((5, 5) + shape)
    a0[0, 0] = 1.0
    a0[1, 1] = 1.0
    for j in range(3):
        a0[1, 2 + j] = q * s * v[j]
        a0[2 + j, 1] = s * v[j]
        for m in range(3):
            a0[2 + j, 2 + m] = alpha * (delta[j, m] + s * v[j] * v[m])

    ak = np.zeros((3, 5, 5) + shape)
    for k in range(3):
        ak[k, 0, 0] = v[k]
        ak[k, 1, 1] = v[k]
        for j in range(3):
            ak[k, 1, 2 + j] = q * (delta[k, j] + s * v[k] * v[j])
            ak[k, 2 + j, 1] = delta[j, k] + s * v[j] * v[k]
            for m in range(3):
                ak[k, 2 + j, 2 + m] = alpha * v[k] * (delta[j, m] + s * v[j] * v[m])

    dphi = grid.gradient(state.phi)
    g_src, h_src = _source_terms(state, dphi, p, r_grav, q, gam2)
    b = np.zeros((5,) + shape)
    b[1] = g_src
    b[2:] = h_src
    return a0, ak, b


def fluid_rhs_lu(state):
    """Dense LU oracle for fluid_rhs: solve the assembled 5x5 system pointwise."""
    grid = state.grid
    a0, ak, b = assemble_matrices(state)
    rhs = b - np.einsum("kmn...,nk...->m...", ak, grid.gradient(state.w))
    a0_pts = np.moveaxis(a0, (0, 1), (-2, -1))
    rhs_pts = np.moveaxis(rhs, 0, -1)[..., None]
    return np.moveaxis(np.linalg.solve(a0_pts, rhs_pts)[..., 0], -1, 0)


def potential_rhs(state, thermo=None):
    """(d_t phi, d_t pi) for the first-order form of the potential equation.

    thermo, if given, is the _thermo(state) tuple, as in fluid_rhs.
    """
    consts = state.consts
    icc = consts.inv_c_sq
    r_grav = (_thermo(state) if thermo is None else thermo)[1]
    src = r_grav - 3.0 * icc * state.w[1]
    lap = state.grid.laplacian(state.phi)
    dt_pi = consts.c**2 * (
        lap - consts.kappa**2 * state.phi - 4.0 * math.pi * consts.grav_g * src)
    return state.pi.copy(), dt_pi


def _deriv(state):
    thermo = _thermo(state)
    dw = fluid_rhs(state, thermo)
    dphi, dpi = potential_rhs(state, thermo)
    full = np.concatenate([dw, dphi[None], dpi[None]])
    return state.grid.dealias(full)


def _advance(state, dt, dy):
    return replace(state, w=state.w + dt * dy[:5], phi=state.phi + dt * dy[5],
                   pi=state.pi + dt * dy[6], t=state.t + dt)


def step(state, dt):
    """One classical RK4 step of the coupled (W, phi, pi) system."""
    k1 = _deriv(state)
    k2 = _deriv(_advance(state, 0.5 * dt, k1))
    k3 = _deriv(_advance(state, 0.5 * dt, k2))
    k4 = _deriv(_advance(state, dt, k3))
    return _advance(state, dt, (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0)


def max_signal_speed(state):
    """CFL speed: max(c, max |v| + max sound speed)."""
    consts = state.consts
    v = state.w[2:]
    ssq = eos_mod.sound_speed_sq(consts, state.eos, state.w[0], state.pressure())
    fluid = float(np.max(np.sqrt(np.sum(v * v, axis=0)))) + float(np.max(np.sqrt(ssq)))
    return max(consts.c, fluid) if consts.finite_c else max(fluid, 1.0)


@dataclass
class Trajectory:
    """Output-time snapshots of a run plus abort bookkeeping."""

    ts: list
    ws: list
    phis: list
    pis: list
    dt: float
    abort_reason: str = None

    @property
    def ok(self):
        return self.abort_reason is None


def check_admissibility(state, eta_box=None, p_box=None):
    """Return a failure description or None.

    Checks finiteness, positivity, the |v| < c/2 working regime, and (when
    boxes are configured) a 1% margin inside the admissible boxes.
    """
    for name, f in (("eta", state.w[0]), ("P", state.w[1]), ("phi", state.phi)):
        if not np.all(np.isfinite(f)):
            return "non-finite %s" % name
    if not np.all(np.isfinite(state.w)) or not np.all(np.isfinite(state.pi)):
        return "non-finite state"
    p = state.pressure()
    if np.any(state.w[0] <= 0) or np.any(p <= 0):
        return "lost positivity of eta or p"
    if state.consts.finite_c:
        vmax = float(np.max(np.sqrt(np.sum(state.w[2:] ** 2, axis=0))))
        if vmax >= 0.5 * state.consts.c:
            return "velocity reached c/2"
    for f, box in ((state.w[0], eta_box), (p, p_box)):
        if box is not None:
            margin = 0.01 * (box[1] - box[0])
            if float(np.min(f)) < box[0] + margin or float(np.max(f)) > box[1] - margin:
                return "admissibility margin below 1% of the configured box"
    return None


def run(state, t_final, cfl=0.5, n_outputs=10, eta_box=None, p_box=None):
    """Integrate to t_final, storing snapshots at n_outputs equal intervals.

    dt is fixed from the initial CFL speed and rounded down so every output
    time is hit exactly; this keeps output times matched across runs with
    different c.  The run aborts (partial trajectory returned) on
    admissibility loss or a CFL margin violation.
    """
    if not (0 < cfl <= 1):
        raise ValueError("cfl must lie in (0, 1]")
    speed0 = max_signal_speed(state)
    dt_cfl = cfl * state.grid.h / speed0
    seg = t_final / n_outputs
    per_seg = max(1, math.ceil(seg / dt_cfl - 1e-12))
    dt = seg / per_seg
    traj = Trajectory(ts=[state.t], ws=[state.w.copy()], phis=[state.phi.copy()],
                      pis=[state.pi.copy()], dt=dt)
    for m in range(n_outputs):
        for _ in range(per_seg):
            state = step(state, dt)
        # land exactly on the nominal output time despite roundoff
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
        traj.pis.append(state.pi.copy())
    return traj
