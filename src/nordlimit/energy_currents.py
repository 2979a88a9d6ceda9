"""Energy currents for variations, positivity checks, and the divergence identity.

A variation wdot = (eta_dot, P_dot, v_dot) rides on a background solution
("BGS") whose fields supply the coefficients.  The time component of the
current is the quadratic form

    j0 = eta_dot**2 + P_dot**2 / q
         + 2 c**-2 g2 (v . v_dot) P_dot
         + g2 (R + P/c**2) (|v_dot|**2 + c**-2 g2 (v . v_dot)**2),

with g2 the squared Lorentz factor of the background velocity; at c = inf
this collapses to the diagonal form eta_dot**2 + p_dot**2/q + R |v_dot|**2.
When the variation is built as (solution - smoothed initial data W0), its
inhomogeneities (f, g, h) are the fluid operator b - a^k d_k W0
(`euler_nordstrom.fluid_residual`), and the current satisfies an exact
divergence identity whose right-hand side involves only the background
derivatives and (f, g, h); `divergence_identity_check` measures its
discrete defect on a trajectory's stored states.  `check_invariants`, the
suite of `nordlimit check`, adds positivity and the field-energy
inequality to the same pass and owns the three verdicts.  One formula and
one state type (`RelState`, pi = 0) serve both systems (s = 0 at c = inf).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import eos as eos_mod
from . import euler_nordstrom as en
from . import fields


def background_coeffs(consts, eos, w, phi=None):
    """Coefficient fields (`eos.Coefficients`) of a background state.

    w stacks (eta, P, v) for finite c (phi required) or (eta, p, v) at
    c = inf.  The pressure must be positive; the weight exp(-4 phi/c**2)
    is, so p and P share their sign.
    """
    if np.any(w[1] <= 0):
        raise ValueError("background pressure must be positive")
    return eos_mod.coefficients(consts, eos, w, phi)


def j0(consts, bg, wdot):
    """Time component of the energy current of a variation; one formula
    for both systems, as s = gamma**2/c**2 = 0 and alpha = r at c = inf."""
    eta_dot, p_dot = wdot[0], wdot[1]
    v_dot = wdot[2:]
    out = eta_dot**2 + p_dot**2 / bg.q
    vv = np.einsum("j...,j...->...", v_dot, v_dot)
    s = consts.inv_c_sq * bg.gam2
    vdot_b = np.einsum("j...,j...->...", bg.v, v_dot)
    out += 2.0 * s * vdot_b * p_dot
    out += bg.alpha * (vv + s * vdot_b**2)
    return out


def quadratic_form_matrix(consts, bg):
    """Per-point symmetric 5x5 matrix M with j0 = wdot^T M wdot.

    Used as the eigenvalue oracle for positivity checks.  Output shape is
    grid_shape + (5, 5).
    """
    v = np.asarray(bg.v)
    shape = v.shape[1:]
    m = np.zeros(shape + (5, 5))
    m[..., 0, 0] = 1.0
    m[..., 1, 1] = 1.0 / bg.q
    s = consts.inv_c_sq * bg.gam2
    for j in range(3):
        m[..., 1, 2 + j] = s * v[j]
        m[..., 2 + j, 1] = s * v[j]
        for k in range(3):
            m[..., 2 + j, 2 + k] = bg.alpha * (
                (1.0 if j == k else 0.0) + s * v[j] * v[k])
    return m


# the (j, k), j <= k, of the symmetric v_j v_k terms of j0
_PAIRS = [(j, k) for j in range(3) for k in range(j, 3)]
# grid points per block of `positivity_ratio`: a block's 11 fields and
# (K, block) product stay in cache; built for the whole 32**3 grid at once
# they are 27 fresh fields, and the call took 5.6 ms against 1.8 ms in
# blocks and 5.1 ms for one j0 pass per row (16 rows, 2-core host)
POSITIVITY_BLOCK = 4096


def positivity_ratio(consts, bg, variations):
    """Min and max over the grid of j0(wdot)/|wdot|^2 for the variations.

    variations has shape (K, 5); each row is used as a constant variation
    field (unit normalization enforced here), its entries entering j0 as
    scalars against the coefficient fields.  j0 of such a row is then
    eta_dot**2 plus a fixed combination of the 11 fields 1/q, s v, alpha
    and alpha s v_j v_k, so each point's fields are built once, a block of
    points at a time, and all the rows take one matrix product per block.  A min ratio <= 0 means the current
    lost positivity; it is returned, for the caller to judge.
    """
    rows = np.atleast_2d(np.asarray(variations, float))
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    if np.any(norms == 0):
        raise ValueError("zero variation supplied")
    units = rows / norms[:, None]
    eta_sq, p_dot, v_dot = units[:, :1] ** 2, units[:, 1], units[:, 2:]
    weights = np.column_stack(
        [p_dot**2, 2.0 * p_dot[:, None] * v_dot, np.sum(v_dot**2, axis=1)]
        + [(1.0 if j == k else 2.0) * v_dot[:, j] * v_dot[:, k]
           for j, k in _PAIRS])
    v = np.asarray(bg.v).reshape(3, -1)
    q, gam2, alpha = (np.reshape(f, -1) for f in (bg.q, bg.gam2, bg.alpha))
    lo, hi = math.inf, -math.inf
    for start in range(0, v.shape[1], POSITIVITY_BLOCK):
        part = slice(start, start + POSITIVITY_BLOCK)
        vb, ab = v[:, part], alpha[part]
        sb = consts.inv_c_sq * gam2[part]
        coeff = np.stack([1.0 / q[part], *(sb * vb), ab]
                         + [ab * sb * vb[j] * vb[k] for j, k in _PAIRS])
        ratio = weights @ coeff
        ratio += eta_sq
        lo = min(lo, float(np.min(ratio)))
        hi = max(hi, float(np.max(ratio)))
    return lo, hi


def assemble_eov_inhomogeneity(state, smoothed_w, phi_data):
    """Inhomogeneities (f, g, h1, h2, h3, l) of the trajectory variation.

    state is a RelState (finite c) or a NewtState with cached potential
    (c = inf); smoothed_w is the mollified initial fluid state in the same
    variables as state.w; phi_data is the (unsmoothed) initial potential
    datum, entering only the scalar-field inhomogeneity l (finite c).
    """
    consts, grid = state.consts, state.grid
    bg = background_coeffs(consts, state.eos, state.w, state.phi)
    f, g, h = en.fluid_residual(consts, bg, state.pi, grid.gradient(smoothed_w),
                                grid.gradient(state.phi))
    if consts.finite_c:
        l = kg_inhomogeneity(consts, bg, kg_data(consts, grid, phi_data))
    else:
        l = np.zeros_like(f)
    return f, g, h[0], h[1], h[2], l


def kg_data(consts, grid, phi_data):
    """kappa**2 phi_data - lap phi_data: the part of the scalar-field
    inhomogeneity l that the data fix, the same at every output."""
    return consts.kappa**2 * phi_data - grid.laplacian(phi_data)


def kg_inhomogeneity(consts, bg, data):
    """The scalar-field inhomogeneity l = data + 4 pi G (R - 3 P/c**2) of a
    finite-c state with coefficient fields bg; data is `kg_data`."""
    return data + 4.0 * math.pi * consts.grav_g * en._potential_source(consts, bg)


def _en_time_derivs(state, bg, grads):
    """Exact time derivatives of the background coefficient fields.

    Returns (dt_v, dt_inv_q, dt_alpha) from the evolution equations; uses
    the closed-form identity q = gamma_ad * P of the polytropic family and
    a constant entropy coefficient.  bg is background_coeffs of state and
    grads the gradients (of state.w, of state.phi) that fluid_rhs takes.
    """
    consts = state.consts
    icc = consts.inv_c_sq
    dw = en.fluid_rhs(state, bg, grads)
    dt_phi = state.pi
    dt_v = dw[2:]
    r, gam2 = bg.r, bg.gam2
    dt_q = state.eos.gamma * dw[1]      # q = gamma * P exactly
    dt_inv_q = -dt_q / bg.q**2
    dt_gam2 = 2.0 * icc * gam2**2 * np.einsum("j...,j...->...", bg.v, dt_v)
    dt_p = (eos_mod.pull_back_pressure(consts, state.phi, dw[1])
            - 4.0 * icc * dt_phi * bg.p)
    dt_rho = dt_p / bg.ssq              # entropy coefficient is constant
    dt_r = 4.0 * icc * dt_phi * r + eos_mod.potential_weight(consts, state.phi) * dt_rho
    dt_alpha = (dt_gam2 * (r + icc * bg.big_p)
                + gam2 * (dt_r + icc * dw[1]))
    return dt_v, dt_inv_q, dt_alpha


def _divergence_rhs(state, smoothed_w, bg, dw0):
    """Integral over the torus of the continuum divergence of the current.

    bg is background_coeffs of state and dw0 the gradient of smoothed_w;
    at c = inf, s = 0 drops t2 and t4, and alpha = r.
    """
    consts, grid = state.consts, state.grid
    v = state.w[2:]
    wdot = state.w - smoothed_w
    eta_dot, p_dot = wdot[0], wdot[1]
    v_dot = wdot[2:]
    vv = np.einsum("j...,j...->...", v_dot, v_dot)
    dphi = grid.gradient(state.phi)
    q = bg.q
    # the inhomogeneity term first, so that f, g and h are not kept
    # through the time derivatives
    f, g, h = en.fluid_residual(consts, bg, state.pi, dw0, dphi)
    t5 = (2.0 * eta_dot * f + 2.0 * p_dot * g / q
          + 2.0 * np.einsum("j...,j...->...", v_dot, h))
    del f, g, h

    icc, gam2 = consts.inv_c_sq, bg.gam2
    s = icc * gam2
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

    div_alpha_v = sum(grid.derivative(bg.alpha * v[j], j) for j in range(3))
    quad = vv + s * vdot_b**2
    t3 = (dt_alpha + div_alpha_v) * quad

    t4 = 2.0 * icc * gam2**2 * (bg.r + icc * bg.big_p) * (
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


def _walk_outputs(traj, smoothed_w, consts, eos, grid, more=None):
    """The DivergenceReport of wdot = w - smoothed_w on a trajectory's
    stored outputs, one output per item in the workers of a fork map, with
    one build of the background coefficients per output; more(state, bg),
    if given, adds its floats per output, returned in output order next to
    the report (the coefficient fields are not kept)."""
    dw0 = grid.gradient(smoothed_w)
    last = len(traj.ts) - 1

    def at_output(m):
        st = en.RelState(w=traj.ws[m], phi=traj.phis[m], pi=traj.pis[m],
                         t=traj.ts[m], consts=consts, eos=eos, grid=grid)
        bg = background_coeffs(consts, eos, st.w, st.phi)
        wdot = st.w - smoothed_w
        dens = j0(consts, bg, wdot)
        # min/max of j0 / |wdot|**2 where wdot is not zero (nan where it is
        # nowhere) and, at interior outputs, the divergence integral
        mag = np.einsum("m...,m...->...", wdot, wdot)
        mask = mag > 1e-30
        ratio = dens[mask] / mag[mask]
        ratios = ((float(np.min(ratio)), float(np.max(ratio))) if ratio.size
                  else (math.nan, math.nan))
        div = _divergence_rhs(st, smoothed_w, bg, dw0) if 1 <= m < last else None
        return (grid.integral(dens), ratios, div), more and more(st, bg)

    terms, extras = zip(*fields.fork_map(at_output, range(last + 1)))
    energies, ratios, div_rhs = zip(*terms)
    e0 = abs(energies[0])
    rows = []
    for m in range(1, last):
        dt_out = traj.ts[m + 1] - traj.ts[m - 1]
        lhs = (energies[m + 1] - energies[m - 1]) / dt_out
        rhs = div_rhs[m]
        defect = abs(lhs - rhs) / max(abs(lhs), e0, 1e-300)
        rows.append((traj.ts[m], lhs, rhs, defect) + ratios[m])
    # np.max carries a NaN defect through, so NaN data fails the check, as
    # does a run with no interior output, where nothing was checked
    max_defect = float(np.max([row[3] for row in rows])) if rows else math.nan
    return DivergenceReport(rows=rows, max_defect=max_defect), extras


def divergence_identity_check(traj, smoothed_w, phi_data, consts, eos, grid,
                              eta_bar=1.0, p_bar=1.0):
    """Discrete defect of the energy-current divergence identity.

    traj is a trajectory of either system, read as stored (pi = 0 at
    c = inf); the variation is wdot(t) = w(t) - smoothed_w.  At every
    interior output time the centered difference of the energy integral is
    compared with the exact divergence integral; the defect is normalized
    by max(|LHS|, initial energy).  With fewer than 3 outputs there is no
    interior output, and the max defect is NaN.  phi_data, eta_bar and p_bar
    are not used: l does not enter the fluid current's identity, and the
    stored potentials need no constraint solve.
    """
    return _walk_outputs(traj, smoothed_w, consts, eos, grid)[0]


def check_invariants(traj, smoothed_w, phi_data, consts, eos, grid,
                     variations, order):
    """The invariant suite of a stored finite-c trajectory, in one pass:
    (its DivergenceReport, {check: verdict}, {check: the number behind it}).

    positivity: the min ratio of `positivity_ratio` for the variations is
    > 0 at every output (value: its min).  kg_inequality: E = `kg_energy`
    stays below e0 + c t sup_{s<=t} |l(s)|_{H^order}, with a 1e-3 slack
    (value: the largest E/bound after t = 0, where E is its own bound; a
    zero bound gives inf or nan).
    divergence_identity: the max defect of `divergence_identity_check`, with
    its rows, is at most 1e-3.  A NaN fails its verdict.
    """
    l_data = kg_data(consts, grid, phi_data)

    def more(st, bg):
        lo, _ = positivity_ratio(consts, bg, variations)
        l = kg_inhomogeneity(consts, bg, l_data)
        return lo, grid.sobolev_norm(l, order), kg_energy(st, phi_data, order)

    rep, per_output = _walk_outputs(traj, smoothed_w, consts, eos, grid, more)
    los, l_norms, energies = np.array(per_output).T
    # the bound e0 + c t sup_{s<=t} |l(s)| at each output: a NaN fails it
    bounds = (energies[0] + consts.c * np.array(traj.ts)
              * np.maximum.accumulate(l_norms) * (1.0 + 1e-3))
    with np.errstate(divide="ignore", invalid="ignore"):
        kg_ratio = float(np.max(energies[1:] / bounds[1:], initial=0.0))
    verdicts = {"positivity": bool(np.all(los > 0)),
                "kg_inequality": bool(np.all(energies <= bounds)),
                "divergence_identity": rep.max_defect <= 1e-3}
    values = {"positivity": float(np.min(los)), "kg_inequality": kg_ratio,
              "divergence_identity": rep.max_defect}
    return rep, verdicts, values


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
