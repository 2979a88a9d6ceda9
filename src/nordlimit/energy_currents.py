"""Energy currents for variations, positivity checks, and the sound cone.

A variation wdot = (eta_dot, P_dot, v_dot) rides on a background solution
("BGS") whose fields supply the coefficients.  The time component of the
current is the quadratic form

    j0 = eta_dot**2 + P_dot**2 / q
         + 2 c**-2 g2 (v . v_dot) P_dot
         + g2 (R + P/c**2) (|v_dot|**2 + c**-2 g2 (v . v_dot)**2),

with g2 the squared Lorentz factor of the background velocity; at c = inf
this collapses to the diagonal form eta_dot**2 + p_dot**2/q + R |v_dot|**2.
When the variation is built as (solution - smoothed initial data), the
current satisfies an exact divergence identity whose right-hand side
involves only the background derivatives and the inhomogeneities (f, g, h);
`divergence_identity_check` measures the discrete defect of that identity.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import eos as eos_mod
from . import euler_nordstrom as en
from . import euler_poisson as ep


def background_coeffs(consts, eos, w, phi=None):
    """Coefficient fields (p, q, r, gam2, big_p, v) of a background state.

    w stacks (eta, P, v) for finite c (phi required) or (eta, p, v) at
    c = inf.
    """
    eta = w[0]
    v = w[2:]
    if consts.finite_c:
        if phi is None:
            raise ValueError("finite-c background needs the potential")
        p = np.exp(-4.0 * phi * consts.inv_c_sq) * w[1]
        big_p = w[1]
    else:
        p = w[1]
        big_p = w[1]
    if np.any(p <= 0):
        raise ValueError("background pressure must be positive")
    q = eos_mod.q_coefficient(consts, eos, eta, p, phi)
    r = eos_mod.gravitating_density(consts, eos, eta, p, phi)
    gam2 = eos_mod.lorentz_factor_sq(consts, v)
    return {"p": p, "q": q, "r": r, "gam2": gam2, "big_p": big_p, "v": v}


def j0(consts, bg, wdot):
    """Time component of the energy current of a variation."""
    eta_dot, p_dot = wdot[0], wdot[1]
    v_dot = wdot[2:]
    out = eta_dot**2 + p_dot**2 / bg["q"]
    vv = np.einsum("j...,j...->...", v_dot, v_dot)
    if not consts.finite_c:
        return out + bg["r"] * vv
    s = consts.inv_c_sq * bg["gam2"]
    vdot_b = np.einsum("j...,j...->...", bg["v"], v_dot)
    out += 2.0 * s * vdot_b * p_dot
    out += bg["gam2"] * (bg["r"] + consts.inv_c_sq * bg["big_p"]) * (
        vv + s * vdot_b**2)
    return out


def j_spatial(consts, bg, wdot, axis):
    """Spatial component of the energy current along the given axis."""
    eta_dot, p_dot = wdot[0], wdot[1]
    v_dot = wdot[2:]
    vt = bg["v"][axis]
    out = vt * eta_dot**2 + vt * p_dot**2 / bg["q"]
    vv = np.einsum("j...,j...->...", v_dot, v_dot)
    if not consts.finite_c:
        return out + 2.0 * v_dot[axis] * p_dot + bg["r"] * vt * vv
    s = consts.inv_c_sq * bg["gam2"]
    vdot_b = np.einsum("j...,j...->...", bg["v"], v_dot)
    out += 2.0 * (v_dot[axis] + s * vt * vdot_b) * p_dot
    out += bg["gam2"] * vt * (bg["r"] + consts.inv_c_sq * bg["big_p"]) * (
        vv + s * vdot_b**2)
    return out


def quadratic_form_matrix(consts, bg):
    """Per-point symmetric 5x5 matrix M with j0 = wdot^T M wdot.

    Used as the eigenvalue oracle for positivity checks.  Output shape is
    grid_shape + (5, 5).
    """
    v = np.asarray(bg["v"])
    shape = v.shape[1:]
    m = np.zeros(shape + (5, 5))
    m[..., 0, 0] = 1.0
    m[..., 1, 1] = 1.0 / bg["q"]
    if consts.finite_c:
        s = consts.inv_c_sq * bg["gam2"]
        coef = bg["gam2"] * (bg["r"] + consts.inv_c_sq * bg["big_p"])
        for j in range(3):
            m[..., 1, 2 + j] = s * v[j]
            m[..., 2 + j, 1] = s * v[j]
            for k in range(3):
                m[..., 2 + j, 2 + k] = coef * (
                    (1.0 if j == k else 0.0) + s * v[j] * v[k])
    else:
        for j in range(3):
            m[..., 2 + j, 2 + j] = bg["r"]
    return m


def positivity_ratio(consts, bg, variations):
    """Min and max over the grid of j0(wdot)/|wdot|^2 for the variations.

    variations has shape (K, 5); each row is used as a constant variation
    field (unit normalization enforced here).
    """
    lo, hi = math.inf, -math.inf
    shape = np.asarray(bg["v"]).shape[1:]
    for row in np.atleast_2d(np.asarray(variations, float)):
        norm = math.sqrt(float(np.dot(row, row)))
        if norm == 0:
            raise ValueError("zero variation supplied")
        unit = row / norm
        wdot = np.broadcast_to(unit[:, None, None, None], (5,) + shape)
        ratio = j0(consts, bg, wdot)
        lo = min(lo, float(np.min(ratio)))
        hi = max(hi, float(np.max(ratio)))
    if lo <= 0:
        raise ValueError("energy current lost positivity (min ratio %g)" % lo)
    return lo, hi


def acoustical_metric_inv(consts, eos, eta, p, v):
    """Reciprocal acoustical metric components at a single point, as 4x4."""
    v = np.asarray(v, float)
    ssq = float(eos_mod.sound_speed_sq(consts, eos, eta, p))
    gam2 = float(eos_mod.lorentz_factor_sq(consts, v[:, None]).ravel()[0])
    icc = consts.inv_c_sq
    drag = gam2 * (1.0 / ssq - icc)
    h = np.zeros((4, 4))
    h[0, 0] = -icc - drag
    for j in range(3):
        h[0, j + 1] = h[j + 1, 0] = -drag * v[j]
        for k in range(3):
            h[j + 1, k + 1] = (1.0 if j == k else 0.0) - drag * v[j] * v[k]
    return h


def sound_cone_membership(consts, eos, eta, p, v, xi):
    """True iff the covector xi lies in the positive interior sound cone."""
    xi = np.asarray(xi, float)
    if xi[0] <= 0:
        return False
    h = acoustical_metric_inv(consts, eos, eta, p, v)
    return float(xi @ h @ xi) < 0.0


def assemble_eov_inhomogeneity(state, smoothed_w, phi_data, bg=None):
    """Inhomogeneities (f, g, h1, h2, h3, l) of the trajectory variation.

    state is a RelState (finite c) or a NewtState with cached potential
    (c = inf); smoothed_w is the mollified initial fluid state in the same
    variables as state.w; phi_data is the (unsmoothed) initial potential
    datum, entering only the scalar-field inhomogeneity l (finite c).  bg,
    if given, is background_coeffs of state, built once by the caller.
    """
    if bg is None:
        bg = background_coeffs(state.consts, state.eos, state.w, state.phi)
    dw0, l_data = _data_terms(state.consts, state.grid, smoothed_w, phi_data)
    f, g, h, l = _inhomogeneity(state, bg, dw0, state.grid.gradient(state.phi),
                                l_data)
    return f, g, h[0], h[1], h[2], l


def _data_terms(consts, grid, smoothed_w, phi_data):
    """What the inhomogeneities take from the data, the same at every output:
    the gradient of smoothed_w and, at finite c, kappa**2 phi_data - lap phi_data.
    """
    l_data = None
    if consts.finite_c:
        l_data = consts.kappa**2 * phi_data - grid.laplacian(phi_data)
    return grid.gradient(smoothed_w), l_data


def _inhomogeneity(state, bg, dw0, dphi, l_data):
    """(f, g, h, l) of assemble_eov_inhomogeneity, h of shape (3, ...), from
    their parts: the background bg, the data terms of `_data_terms` (dw0,
    l_data) and the gradient dphi of state.phi."""
    consts = state.consts
    v = state.w[2:]
    d_eta0, d_p0, dv0 = dw0[0], dw0[1], dw0[2:]
    adv = lambda grad: np.einsum("k...,k...->...", v, grad)

    f = -adv(d_eta0)
    div_v0 = dv0[0, 0] + dv0[1, 1] + dv0[2, 2]
    adv_v0 = np.einsum("k...,jk...->j...", v, dv0)
    v_adv_v0 = np.einsum("j...,j...->...", v, adv_v0)

    if not consts.finite_c:
        g = -adv(d_p0) - bg["q"] * div_v0
        h = -bg["r"] * dphi - bg["r"] * adv_v0 - d_p0
        return f, g, h, np.zeros_like(f)

    icc = consts.inv_c_sq
    q, r, gam2, big_p = bg["q"], bg["r"], bg["gam2"], bg["big_p"]
    s = icc * gam2
    mat_phi = icc * (state.pi + adv(dphi))
    g = ((4.0 * big_p - 3.0 * q) * mat_phi
         - adv(d_p0) - q * div_v0 - s * q * v_adv_v0)
    h = ((3.0 * icc * big_p - r) * (dphi + v * mat_phi / gam2)
         - gam2 * (r + icc * big_p) * (adv_v0 + s * v * v_adv_v0)
         - d_p0 - s * v * adv(d_p0))
    l = l_data + 4.0 * math.pi * consts.grav_g * (r - 3.0 * icc * big_p)
    return f, g, h, l


def _en_time_derivs(state, bg, grads):
    """Exact time derivatives of the finite-c background coefficient fields.

    Returns (dt_v, dt_inv_q, dt_alpha) from the evolution equations; uses
    the closed-form identity q = gamma_ad * P of the polytropic family and
    a constant entropy coefficient.  bg is background_coeffs of state and
    grads the gradients (of state.w, of state.phi) that fluid_rhs takes.
    """
    consts, eos = state.consts, state.eos
    icc = consts.inv_c_sq
    dw = en.fluid_rhs(state, grads=grads)
    dt_phi = state.pi
    dt_v = dw[2:]
    q, r, gam2 = bg["q"], bg["r"], bg["gam2"]
    dt_q = eos.gamma * dw[1]            # q = gamma * P exactly
    dt_inv_q = -dt_q / q**2
    v = state.w[2:]
    dt_gam2 = 2.0 * icc * gam2**2 * np.einsum("j...,j...->...", v, dt_v)
    p = bg["p"]
    dt_p = np.exp(-4.0 * state.phi * icc) * dw[1] - 4.0 * icc * dt_phi * p
    ssq = eos_mod.sound_speed_sq(consts, eos, state.w[0], p)
    dt_rho = dt_p / ssq                 # entropy coefficient is constant
    dt_r = 4.0 * icc * dt_phi * r + np.exp(4.0 * state.phi * icc) * dt_rho
    dt_alpha = (dt_gam2 * (r + icc * bg["big_p"])
                + gam2 * (dt_r + icc * dw[1]))
    return dt_v, dt_inv_q, dt_alpha


def _divergence_rhs(state, smoothed_w, bg, dw0, l_data):
    """Integral over the torus of the continuum divergence of the current.

    bg is background_coeffs of state; dw0 and l_data come from `_data_terms`.
    """
    consts, eos, grid = state.consts, state.eos, state.grid
    v = state.w[2:]
    wdot = state.w - smoothed_w
    eta_dot, p_dot = wdot[0], wdot[1]
    v_dot = wdot[2:]
    vv = np.einsum("j...,j...->...", v_dot, v_dot)
    dphi = grid.gradient(state.phi)
    f, g, h, _ = _inhomogeneity(state, bg, dw0, dphi, l_data)
    q, r = bg["q"], bg["r"]

    if not consts.finite_c:
        dw = ep.newtonian_rhs(state)
        dt_q = eos.gamma * dw[1]
        dt_r = dw[1] / eos_mod.sound_speed_sq(consts, eos, state.w[0], state.w[1])
        div_vq = sum(grid.derivative(v[j] / q, j) for j in range(3))
        div_rv = sum(grid.derivative(r * v[j], j) for j in range(3))
        total = ((-dt_q / q**2 + div_vq) * p_dot**2
                 + (dt_r + div_rv) * vv
                 + 2.0 * eta_dot * f + 2.0 * p_dot * g / q
                 + 2.0 * np.einsum("j...,j...->...", v_dot, h))
        return grid.integral(total)

    # the inhomogeneity term first, so that f, g and h are not kept
    # through the time derivatives
    t5 = (2.0 * eta_dot * f + 2.0 * p_dot * g / q
          + 2.0 * np.einsum("j...,j...->...", v_dot, h))
    del f, g, h
    icc = consts.inv_c_sq
    gam2, big_p = bg["gam2"], bg["big_p"]
    s = icc * gam2
    alpha = gam2 * (r + icc * big_p)
    dw = grid.gradient(state.w)
    dt_v, dt_inv_q, dt_alpha = _en_time_derivs(state, bg, (dw, dphi))
    dv = dw[2:]
    div_v = dv[0, 0] + dv[1, 1] + dv[2, 2]
    adv_v = np.einsum("k...,jk...->j...", v, dv)
    del dw, dv, dphi  # the largest temporaries: not kept through the terms

    vdot_b = np.einsum("j...,j...->...", v, v_dot)
    v_dt_v = np.einsum("j...,j...->...", v, dt_v)
    v_adv_v = np.einsum("j...,j...->...", v, adv_v)

    div_vq = sum(grid.derivative(v[j] / q, j) for j in range(3))
    t1 = (dt_inv_q + div_vq) * p_dot**2

    brace2 = (dt_v + v * div_v + adv_v
              + 2.0 * s * v * (v_dt_v + v_adv_v))
    t2 = 2.0 * s * p_dot * np.einsum("k...,k...->...", brace2, v_dot)

    div_alpha_v = sum(grid.derivative(alpha * v[j], j) for j in range(3))
    quad = vv + s * vdot_b**2
    t3 = (dt_alpha + div_alpha_v) * quad

    t4 = 2.0 * icc * gam2**2 * (r + icc * big_p) * (
        vdot_b * np.einsum("j...,j...->...", v_dot, dt_v)
        + vdot_b * np.einsum("a...,a...->...", v_dot, adv_v)
        + s * vdot_b**2 * (v_dt_v + v_adv_v))
    return grid.integral(t1 + t2 + t3 + t4 + t5)


@dataclass
class DivergenceReport:
    """Rows (t, lhs, rhs, defect, min_ratio, max_ratio) and the max defect."""

    rows: list
    max_defect: float

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("t,LHS,RHS,defect,minRatio,maxRatio\n")
            for row in self.rows:
                fh.write("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n" % row)


def _energy_and_ratios(consts, bg, wdot, grid):
    """The energy integral of j0(wdot) and the (min, max) of j0 / |wdot|**2
    over the points where wdot is not zero (nan, nan where it is nowhere)."""
    dens = j0(consts, bg, wdot)
    mag = np.einsum("m...,m...->...", wdot, wdot)
    mask = mag > 1e-30
    if not np.any(mask):
        return grid.integral(dens), (math.nan, math.nan)
    ratio = dens[mask] / mag[mask]
    return grid.integral(dens), (float(np.min(ratio)), float(np.max(ratio)))


def divergence_identity_check(traj, smoothed_w, phi_data, consts, eos, grid,
                              eta_bar=1.0, p_bar=1.0):
    """Discrete defect of the energy-current divergence identity.

    traj is a trajectory of either system; the variation is
    wdot(t) = w(t) - smoothed_w.  At every interior output time the centered
    difference of the energy integral is compared with the exact divergence
    integral; the defect is normalized by max(|LHS|, initial energy).
    """
    def make_state(m):
        if consts.finite_c:
            return en.RelState(w=traj.ws[m], phi=traj.phis[m], pi=traj.pis[m],
                               t=traj.ts[m], consts=consts, eos=eos, grid=grid)
        st = ep.NewtState(w=traj.ws[m], t=traj.ts[m], consts=consts, eos=eos,
                          grid=grid, eta_bar=eta_bar, p_bar=p_bar)
        return ep.with_constraint(st)

    # per output, from one build of the background coefficients: the
    # energy, the min/max of j0 / |wdot|**2 and, at interior outputs, the
    # divergence integral (floats only: the coefficient fields are not kept)
    dw0, l_data = _data_terms(consts, grid, smoothed_w, phi_data)
    last = len(traj.ts) - 1
    energies, ratios, div_rhs = [], [], []
    for m in range(len(traj.ts)):
        st = make_state(m)
        bg = background_coeffs(consts, eos, st.w, st.phi)
        energy, ratio = _energy_and_ratios(consts, bg, st.w - smoothed_w, grid)
        energies.append(energy)
        ratios.append(ratio)
        if 1 <= m < last:
            div_rhs.append(_divergence_rhs(st, smoothed_w, bg, dw0, l_data))
    e0 = abs(energies[0])

    rows = []
    max_defect = 0.0
    for m in range(1, last):
        dt_out = traj.ts[m + 1] - traj.ts[m - 1]
        lhs = (energies[m + 1] - energies[m - 1]) / dt_out
        rhs = div_rhs[m - 1]
        defect = abs(lhs - rhs) / max(abs(lhs), e0, 1e-300)
        max_defect = max(max_defect, defect)
        rows.append((traj.ts[m], lhs, rhs, defect) + ratios[m])
    return DivergenceReport(rows=rows, max_defect=max_defect)


def kg_energy(state, phi_data, order):
    """Scalar-field energy of the potential deviation phi - phi_data.

    E^2 = kappa^2 |dev|_{H^order}^2 + |grad dev|_{H^order}^2
          + c^-2 |d_t dev|_{H^order}^2.
    """
    grid, consts = state.grid, state.consts
    dev = state.phi - phi_data
    grad = grid.gradient(dev)
    e2 = (consts.kappa**2 * grid.sobolev_norm(dev, order) ** 2
          + grid.sobolev_norm(grad, order) ** 2
          + consts.inv_c_sq * grid.sobolev_norm(state.pi, order) ** 2)
    return math.sqrt(e2)
