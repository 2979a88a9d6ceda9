"""Pseudospectral integrators for the finite-c fluid-scalar system.

Evolved variables are W = (eta, P, v1, v2, v3) together with the potential
pair (phi, pi), pi = d_t phi.  The fluid block is quasilinear,

    a0(W, phi) d_t W + a^k(W, phi) d_k W = b(W, phi, D phi),

and is advanced by solving for d_t W pointwise; the scalar potential obeys
the damped wave equation

    -c**-2 d_t^2 phi + lap phi - kappa**2 phi = 4 pi G (R - 3 P / c**2).

Spatial derivatives are spectral and every right-hand side is passed
through the 2/3-rule mask.

`run` steps with an exponential integrator (`etd_step`).  Inside the mask
the potential is carried as z+- = pi_hat +- i omega phi_hat with
omega = c sqrt(|k|**2 + kappa**2), so that dz+-/dt = +-i omega z+- + N_hat:
the Klein-Gordon part is integrated exactly mode by mode and only the
source N = -4 pi G c**2 (R - 3 P / c**2) and the fluid block (linear part
zero, hence classical RK4 weights) are treated by the Runge-Kutta stages.
The potential update is that of Cox-Matthews ETDRK4.  A stage does not
feed the fluid the Cox-Matthews stage value, which carries the
quasi-static part of the step start: it splits z into the screened solve
+-i N / omega of the stage's own source and a remainder y, which is carried
from the step start (the uniformly accurate Klein-Gordon integrators of
Bao, Cai & Zhao, SIAM J. Numer. Anal. 52, 2014; Hochbruck & Ostermann,
Acta Numerica 19, 2010).  Modes outside the mask stay frozen, as under a
masked right-hand side.  All that the run carries from step to step (the
Klein-Gordon tables, the spectra of the last state and the remainder y)
lives in one `EtdStepper`, the stepper `stepping.drive` receives; no
integrator state lives outside it.  dt is the limit run's: the fluid CFL
step, or the output interval.  c does not bound it, and at that shared dt
the pulled-back run tends to the limit run as c grows.  `step` is the
classical RK4 scheme on the first-order system in (phi, pi) and is kept as
the oracle.

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
from . import stepping


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
        return eos_mod.pull_back_pressure(self.consts, self.phi, self.w[1])

    def coefficients(self):
        """The coefficient fields (`eos.coefficients`) of the state."""
        return eos_mod.coefficients(self.consts, self.eos, self.w, self.phi)


def pull_back(w, phi, consts):
    """Limit-system variables (eta, exp(-4 phi/c**2) P, v) of a finite-c state.

    At c = inf the weight is exactly 1 and w comes back unchanged (copied).
    """
    p = eos_mod.pull_back_pressure(consts, phi, w[1])
    return np.concatenate([w[:1], p[None], w[2:]])


def from_bundle(bundle):
    """Initial RelState from a lifted data bundle."""
    return RelState(w=bundle.w_c.copy(), phi=bundle.phi_c.copy(),
                    pi=bundle.psi0.copy(), t=0.0, consts=bundle.consts,
                    eos=bundle.eos, grid=bundle.grid)


def _source_terms(consts, co, pi, dphi):
    """Potential source rows (g_src, h_src) of the fluid right-hand side b,
    h_src of shape (3, ...), from the coefficient fields co of a state, its
    d_t phi = pi and its potential's gradient dphi; the eta row of b is 0."""
    icc = consts.inv_c_sq
    big_p, v = co.big_p, co.v
    mat_phi = icc * (pi + np.sum(v * dphi, axis=0))
    g_src = (4.0 * big_p - 3.0 * co.q) * mat_phi
    coeff = 3.0 * icc * big_p - co.r
    h_src = coeff * (dphi + v * mat_phi / co.gam2)
    return g_src, h_src


def fluid_residual(consts, co, pi, dw, dphi):
    """Rows (r_eta, r_p, r_v) of the fluid operator b - a^k d_k W, r_v of
    shape (3, ...), with co, pi and dphi as in `_source_terms` and any fluid
    gradient dw[m, k] = d_k W^m: that of the state's W gives a0 d_t W, that
    of the smoothed data the inhomogeneity (f, g, h) of the equations of
    variation.  At c = inf (s = 0, alpha = r) it is the limit operator."""
    v, q, alpha = co.v, co.q, co.alpha
    s = consts.inv_c_sq * co.gam2
    deta, dbig_p, dv = dw[0], dw[1], dw[2:]  # dv[j, k] = d_k v^j
    g_src, h_src = _source_terms(consts, co, pi, dphi)

    adv_p = np.einsum("k...,k...->...", v, dbig_p)
    div_v = dv[0, 0] + dv[1, 1] + dv[2, 2]
    adv_v = np.einsum("k...,jk...->j...", v, dv)       # (v . grad) v^j
    v_adv_v = np.einsum("j...,j...->...", v, adv_v)    # v_k (v . grad) v^k

    r_eta = -np.einsum("k...,k...->...", v, deta)
    r_p = g_src - adv_p - q * div_v - s * q * v_adv_v
    r_v = (h_src - dbig_p - s * v * adv_p - alpha * (adv_v + s * v * v_adv_v))
    return r_eta, r_p, r_v


def fluid_rhs(state, co=None, grads=None):
    """d_t W from a0 d_t W = `fluid_residual` by an analytic block solve.

    The 4x4 (P, v) block reduces, after eliminating d_t P, to
    (alpha I + mu v v^T) x = r with mu = s (alpha - s q), s = gamma**2/c**2,
    inverted by the rank-one update formula.  Its pivot alpha + mu |v|**2 is
    at least alpha > 0, as causality (s_c < c, `eos.closure`) gives
    mu = s gamma**2 exp(4 phi/c**2) (rho_c + p/c**2) (1 - s_c**2/c**2) >= 0.
    co, if given, is the coefficient record of state (`eos.coefficients`),
    computed once per right-hand side by the caller; grads, if given, is the
    pair (grid.gradient(state.w), grid.gradient(state.phi)), for a caller
    that takes them anyway.
    """
    if co is None:
        co = state.coefficients()
    v, q, alpha = co.v, co.q, co.alpha
    s = state.consts.inv_c_sq * co.gam2

    if grads is None:
        grads = state.grid.gradient(state.w), state.grid.gradient(state.phi)
    r_eta, r_p, r_v = fluid_residual(state.consts, co, state.pi, *grads)

    r_tilde = r_v - s * v * r_p
    mu = s * (alpha - s * q)
    vsq = np.sum(v * v, axis=0)
    denom = alpha + mu * vsq
    vdotr = np.einsum("j...,j...->...", v, r_tilde)
    x = r_tilde / alpha - (mu * vdotr / (alpha * denom)) * v
    dt_p = r_p - s * q * np.einsum("j...,j...->...", v, x)
    return np.concatenate([r_eta[None], dt_p[None], x])


def assemble_matrices(state):
    """Pointwise coefficient matrices a0, a^k and source vector b.

    Returns (a0, ak, b) with shapes (5, 5, n, n, n), (3, 5, 5, n, n, n) and
    (5, n, n, n).  Used by oracles and diagnostics; the evolution path uses
    the analytic solve in fluid_rhs.
    """
    grid = state.grid
    co = state.coefficients()
    v, q, alpha = co.v, co.q, co.alpha
    s = state.consts.inv_c_sq * co.gam2
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
    g_src, h_src = _source_terms(state.consts, co, state.pi, dphi)
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


def _potential_source(consts, co):
    """Source R - 3 P / c**2 of the potential equation, from the
    coefficient fields co of a state."""
    return co.r - 3.0 * consts.inv_c_sq * co.big_p


def potential_rhs(state, co=None):
    """(d_t phi, d_t pi) for the first-order form of the potential equation.

    co, if given, is the coefficient record of state, as in fluid_rhs.
    """
    consts = state.consts
    src = _potential_source(consts, state.coefficients() if co is None else co)
    lap = state.grid.laplacian(state.phi)
    dt_pi = consts.c**2 * (
        lap - consts.kappa**2 * state.phi - 4.0 * math.pi * consts.grav_g * src)
    return state.pi.copy(), dt_pi


def _deriv(state):
    co = state.coefficients()
    dw = fluid_rhs(state, co)
    dphi, dpi = potential_rhs(state, co)
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


# contour nodes for the phi-functions; the trapezoid rule on the circle
# converges like (e / points)**points for these entire functions
CONTOUR_POINTS = 32


def etd_coefficients(lam_dt, dt):
    """Cox-Matthews ETDRK4 weights (q, f1, f2, f3) for u' = lam u + N(u).

    lam_dt holds the values lam * dt.  q advances the half-step stages,
    a = exp(lam dt/2) u + q N(u); f1, f2 and f3 weight N(u), N(a) + N(b)
    and N(c) in the full step.  At lam = 0 they are dt/2, dt/6, dt/3 and
    dt/6, the classical RK4 weights.  Each phi-function is the mean of its
    closed form over the full circle of radius 1 around lam * dt
    (Kassam-Trefethen), which avoids the cancellation of the closed forms
    near 0.  The full circle is needed: the upper half-circle shortcut holds
    only for real lam.  The nodes are turned so that the point of the
    circle nearest the origin falls midway between two of them: a node at
    distance d from 0 would cost eps / d**3 of accuracy.
    """
    lam_dt = np.asarray(lam_dt, complex)
    nodes = 2.0 * np.pi * (np.arange(CONTOUR_POINTS) + 0.5) / CONTOUR_POINTS
    z = lam_dt[..., None] + np.exp(1j * (np.angle(-lam_dt)[..., None] + nodes))
    ez = np.exp(z)
    z3 = z**3
    q = dt * np.mean((np.exp(0.5 * z) - 1.0) / z, axis=-1)
    f1 = dt * np.mean((-4.0 - z + ez * (4.0 - 3.0 * z + z * z)) / z3, axis=-1)
    f2 = 2.0 * dt * np.mean((2.0 + z + ez * (z - 2.0)) / z3, axis=-1)
    f3 = dt * np.mean((-4.0 - 3.0 * z - z * z + ez * (4.0 - z)) / z3, axis=-1)
    return q, f1, f2, f3


class EtdStepper:
    """The stepper `run` hands to `stepping.drive`: `etd_step`s of size dt.

    It holds all that the run carries from step to step: the ETDRK4 tables
    of the potential's linear part for one grid, c and dt; the spectra
    spec = (phi_hat, pi_hat) of the last state, carried so that the modes
    outside the mask stay bit for bit frozen; and the remainder.  Only
    modes inside the 2/3 mask are evolved, as the pair
    z = (pi_hat + i omega phi_hat, pi_hat - i omega phi_hat) of shape (2, M).
    Each table (e = exp(i omega dt), e2 = exp(i omega dt / 2), q, f1, f2,
    f3) has the same shape: row 0 for z+, row 1 its complex conjugate for
    z-.  The tables are built on the distinct |k|**2 values and gathered.
    remainder is y = z - `quasi_static` of the last step start, None before
    the first step.
    """

    def __init__(self, state, dt):
        grid, consts = state.grid, state.consts
        self.grid, self.consts, self.dt = grid, consts, dt
        self.mask = grid.dealias_mask
        ksq, where = np.unique(grid.k_sq[self.mask], return_inverse=True)
        omega = consts.c * np.sqrt(ksq + consts.kappa**2)
        lam_dt = 1j * omega * dt
        tables = (np.exp(lam_dt), np.exp(0.5 * lam_dt)) + etd_coefficients(lam_dt, dt)
        self.omega = omega[where]
        self.e, self.e2, self.q, self.f1, self.f2, self.f3 = (
            np.stack([t[where], t[where].conj()]) for t in tables)
        self.source_scale = -4.0 * math.pi * consts.grav_g * consts.c**2
        self.spec = grid.fft(np.stack([state.phi, state.pi]))
        self.remainder = None

    def __call__(self, state):
        return etd_step(state, self)

    def split(self):
        """z of the masked modes of spec."""
        phi_h, pi_h = self.spec[:, self.mask]
        iw_phi = 1j * self.omega * phi_h
        return np.stack([pi_h + iw_phi, pi_h - iw_phi])

    def merge(self, z):
        """Copy of spec with the masked modes taken from z."""
        out = self.spec.copy()
        out[:, self.mask] = np.stack([(z[0] - z[1]) / (2j * self.omega),
                                      0.5 * (z[0] + z[1])])
        return out

    def quasi_static(self, n_hat):
        """z = +-i N/omega, the fixed point of dz/dt = +-i omega z + N: the
        screened solve of the masked source N, with pi = 0."""
        z_plus = 1j * n_hat / self.omega
        return np.stack([z_plus, -z_plus])

    def source(self, co):
        """Masked transform of the potential's source N, from the
        coefficient fields co of a state."""
        src = self.grid.fft(_potential_source(self.consts, co))
        return self.source_scale * src[self.mask]

    def rhs(self, state):
        """(dealiased d_t W, masked transform of the potential's source N)."""
        co = state.coefficients()
        return self.grid.dealias(fluid_rhs(state, co)), self.source(co)


def etd_step(state, stepper):
    """One step of size stepper.dt from state, whose spectra stepper.spec
    holds; returns the new state and leaves its spectra in stepper.spec.

    A module function, not a method: `EtdStepper.__call__` looks it up at
    every step, so that a test can replace it to inject a failure and
    perfbench's tracer, which wraps public module functions, sees it.  The
    fluid block takes the RK4 weights, as in `step`, summed as the stages
    come in (the order of k1 + 2 k2 + 2 k3 + k4, bit for bit), and z the
    Cox-Matthews final update.  The Cox-Matthews stage values za, zb and zc
    only predict the potential of a stage: the stage's own source N_s is
    transformed from the coefficients of its fluid state and that
    predictor, and the stage potential is z = `quasi_static`(N_s) + y(tau).
    The remainder y of the step start is extrapolated linearly from that of
    the previous step (stepper.remainder) and held on the first step.  The
    final update weights the source of the new fluid state, not that of
    stage 4, with f3.
    """
    dt, grid = stepper.dt, state.grid

    def at(w, z, t):
        spec = stepper.merge(z)
        phi, pi = grid.ifft(spec)
        return replace(state, w=w, phi=phi, pi=pi, t=t), spec

    def source(w, z_pred):
        """N of the fluid w under the potential of the predictor z_pred."""
        phi = grid.ifft(stepper.merge(z_pred)[0])
        return stepper.source(eos_mod.coefficients(state.consts, state.eos, w, phi))

    z = stepper.split()
    k1, n1 = stepper.rhs(state)
    y = z - stepper.quasi_static(n1)
    slope = 0.0 if stepper.remainder is None else (y - stepper.remainder) / dt
    stepper.remainder = y

    def stage(w, z_pred, tau):
        z_s = stepper.quasi_static(source(w, z_pred)) + (y + tau * slope)
        return stepper.rhs(at(w, z_s, state.t + tau)[0])

    za = stepper.e2 * z + stepper.q * n1
    k2, n2 = stage(state.w + 0.5 * dt * k1, za, 0.5 * dt)
    acc = k1 + 2.0 * k2
    del k1
    zb = stepper.e2 * z + stepper.q * n2
    k3, n3 = stage(state.w + 0.5 * dt * k2, zb, 0.5 * dt)
    del k2
    acc += 2.0 * k3
    zc = stepper.e2 * za + stepper.q * (2.0 * n3 - n1)
    k4, n4 = stage(state.w + dt * k3, zc, dt)
    del k3
    acc += k4
    del k4
    w_new = state.w + dt * (acc / 6.0)
    z_new = stepper.e * z + stepper.f1 * n1 + stepper.f2 * (n2 + n3)
    # the Cox-Matthews update predicts the potential of the new source
    z_new += stepper.f3 * source(w_new, z_new + stepper.f3 * n4)
    new, stepper.spec = at(w_new, z_new, state.t + dt)
    return new


def run(state, t_final, cfl=0.5, n_outputs=10, eta_box=None, p_box=None,
        observe=None):
    """Integrate to t_final with `etd_step`, with outputs at n_outputs equal
    intervals (`stepping.drive` does the output, abort and telemetry
    rules): stored snapshots, or each output state handed to observe.

    dt = cfl h / s_fluid of the initial state, or the shorter output
    interval: the limit run's rule, so that a sweep's runs share one time
    grid at every c.  The CFL margin watches s_fluid.
    """
    if not (0 < cfl <= 1):
        raise ValueError("cfl must lie in (0, 1]")
    if not state.consts.finite_c:
        raise ValueError("the finite-c run needs a finite c")
    speed0 = stepping.fluid_signal_speed(state)
    return stepping.drive(state, EtdStepper, cfl * state.grid.h / speed0,
                          speed0, t_final, n_outputs, eta_box, p_box,
                          observe)
