"""Acceptance suite: the eight headline checks of the laboratory.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output).  The reference sweep runs once per session and feeds the
rate checks; the stored runs of its limit run and rungs, made once per
session, feed the positivity, residual, and energy checks.
"""

import math
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from nordlimit import energy_currents as ec
from nordlimit import eos
from nordlimit import euler_nordstrom as en
from nordlimit import euler_poisson as ep
from nordlimit import limit_harness as lh
from nordlimit.fields import Grid3, fork_map
from nordlimit.initial_data import lift_to_relativistic, mollify_bundle


def _report(num, ok, desc):
    line = "ACCEPTANCE %d %s: %s" % (num, "PASS" if ok else "FAIL", desc)
    print(line)
    print(line, file=sys.stderr)
    return ok


@pytest.fixture(scope="session")
def sweep():
    cfg = lh.SweepConfig()
    start = time.monotonic()
    result = lh.run_sweep(cfg)
    result.elapsed = time.monotonic() - start
    return result


@pytest.fixture(scope="session")
def runs(sweep):
    """The stored trajectory of every run of the sweep, keyed by c (math.inf
    for the limit run): the runs `run_sweep` makes, through the same calls,
    with every output kept."""
    cfg, bundle = sweep.config, sweep.bundle

    def run(c):
        if math.isinf(c):
            start, runner = ep.from_bundle(bundle, cfg.consts(c)), ep.run
        else:
            start = en.from_bundle(lift_to_relativistic(bundle, cfg.consts(c)))
            runner = en.run
        return runner(start, cfg.t_final, **cfg.run_args())

    cs = [math.inf, *cfg.c_values]
    return dict(zip(cs, fork_map(run, cs)))


def test_criterion_1_fluid_rate(sweep):
    rep = sweep.report
    decreasing = all(b < a for a, b in zip(rep.sup_w, rep.sup_w[1:]))
    ok = (rep.slope_w <= -0.9 and rep.resid_w <= 0.15 and decreasing
          and sweep.elapsed <= 600.0)
    assert _report(1, ok,
                   "fluid convergence slope %.3f (resid %.3f, decreasing %s, "
                   "%.0fs)" % (rep.slope_w, rep.resid_w, decreasing,
                               sweep.elapsed))


def test_criterion_2_potential_rate(sweep):
    rep = sweep.report
    ok = rep.slope_phi <= -0.9 and abs(rep.slope_gap + 2.0) <= 0.1
    assert _report(2, ok,
                   "potential slope %.3f, background-gap slope %.3f"
                   % (rep.slope_phi, rep.slope_gap))


def test_criterion_3_positivity(sweep, runs):
    cfg = sweep.config
    eosf = cfg.make_eos()
    rng = np.random.default_rng(5)
    variations = rng.standard_normal((8, 5))
    minima = {}
    consts_inf = cfg.consts(math.inf)
    lows = []
    for m in range(len(runs[math.inf].ts)):
        bg = ec.background_coeffs(consts_inf, eosf, runs[math.inf].ws[m])
        lows.append(ec.positivity_ratio(consts_inf, bg, variations)[0])
    minima["inf"] = min(lows)
    for c in cfg.c_values:
        traj, consts = runs[c], cfg.consts(c)
        lows = []
        for m in range(len(traj.ts)):
            bg = ec.background_coeffs(consts, eosf, traj.ws[m], traj.phis[m])
            lows.append(ec.positivity_ratio(consts, bg, variations)[0])
        minima[c] = min(lows)
    vals = list(minima.values())
    spread = (max(vals) - min(vals)) / max(vals)
    ok = min(vals) > 0 and spread <= 0.10
    assert _report(3, ok,
                   "energy positivity minima spread %.1f%% across light "
                   "speeds (all > 0: %s)" % (100 * spread, min(vals) > 0))


def test_criterion_4_divergence_identity(sweep):
    cfg = sweep.config
    grid, eosf = cfg.make_grid(), cfg.make_eos()
    t_final = 0.1
    defects = {}
    for c in (20.0, math.inf):
        consts = cfg.consts(c)
        if math.isfinite(c):
            lifted = lift_to_relativistic(sweep.bundle, consts)
            smooth = mollify_bundle(lifted, cfg.mollify_eps)
            start = en.from_bundle(smooth)
            runner, w0, phi0 = en.run, smooth.w_c, smooth.phi_c
        else:
            smooth = mollify_bundle(sweep.bundle, cfg.mollify_eps)
            start = ep.from_bundle(smooth, consts)
            runner, w0, phi0 = ep.run, smooth.w_inf, smooth.phi_inf
        pair = []
        for n_out in (64, 128):
            traj = runner(start, t_final, cfl=cfg.cfl, n_outputs=n_out,
                          eta_box=cfg.eta_box, p_box=cfg.p_box)
            assert traj.ok
            rep = ec.divergence_identity_check(traj, w0, phi0, consts, eosf,
                                               grid)
            pair.append(rep.max_defect)
        defects[c] = pair
    ok = True
    msgs = []
    for c, (d1, d2) in defects.items():
        ratio = d1 / d2
        ok = ok and d1 <= 1e-3 and 2.8 <= ratio <= 5.5
        msgs.append("c=%s defect %.2e (refinement ratio %.2f)" % (c, d1, ratio))
    assert _report(4, ok, "divergence identity " + "; ".join(msgs))


def test_criterion_5_limit_rates(sweep, runs):
    cfg = sweep.config
    grid, eosf = cfg.make_grid(), cfg.make_eos()
    cs = list(cfg.c_values)
    slopes = {}

    # pointwise family gaps: density, squared sound speed, pressure coeff
    eos_slopes = eos.rate_check(eosf, cfg.eta_box, cfg.p_box, cs)
    slopes.update(eos_slopes)

    # Lorentz factor gap at a fixed sample of subluminal velocities
    rng = np.random.default_rng(17)
    v = rng.uniform(-0.3, 0.3, (3, 50))
    gaps = [np.max(np.abs(eos.lorentz_factor_sq(cfg.consts(c), v) - 1.0))
            for c in cs]
    slopes["lorentz"] = lh.fit_slope(cs, gaps)[0]

    # entrywise gaps of the symmetrizable system matrices and of (a0)^-1
    gaps_a, gaps_inv = [], []
    for c in cs:
        st = en.from_bundle(lift_to_relativistic(sweep.bundle, cfg.consts(c)))
        a0, ak, _ = en.assemble_matrices(st)
        w = en.pull_back(st.w, st.phi, st.consts)
        consts_inf = cfg.consts(math.inf)
        r = eos.mass_density(consts_inf, eosf, w[1])
        q = eos.closure(consts_inf, eosf, w[1])[2]
        a0_inf = np.zeros_like(a0)
        a0_inf[0, 0] = 1.0
        a0_inf[1, 1] = 1.0
        ak_inf = np.zeros_like(ak)
        for j in range(3):
            a0_inf[2 + j, 2 + j] = r
        for k in range(3):
            ak_inf[k, 0, 0] = w[2 + k]
            ak_inf[k, 1, 1] = w[2 + k]
            ak_inf[k, 1, 2 + k] = q
            ak_inf[k, 2 + k, 1] = 1.0
            for j in range(3):
                ak_inf[k, 2 + j, 2 + j] = r * w[2 + k]
        gaps_a.append(max(np.max(np.abs(a0 - a0_inf)),
                          np.max(np.abs(ak - ak_inf))))
        inv = np.linalg.inv(np.moveaxis(a0, (0, 1), (-2, -1)))
        inv_inf = np.linalg.inv(np.moveaxis(a0_inf, (0, 1), (-2, -1)))
        gaps_inv.append(np.max(np.abs(inv - inv_inf)))
    slopes["matrices"] = lh.fit_slope(cs, gaps_a)[0]
    slopes["matrix_inverse"] = lh.fit_slope(cs, gaps_inv)[0]

    # operator residuals of the finite-c trajectories against the limit
    # system; the first residual carries a c-independent time-differencing
    # floor, measured on the limit trajectory and subtracted
    consts_inf = cfg.consts(math.inf)
    floor_e1, _ = lh.approximate_solution_residuals(
        runs[math.inf], sweep.bundle.phi_inf, sweep.bundle.w_inf, consts_inf,
        eosf, grid, cfg.sobolev_order)
    e1s, e2s = [], []
    for c in cs:
        lifted = lift_to_relativistic(sweep.bundle, cfg.consts(c))
        e1, e2 = lh.approximate_solution_residuals(
            runs[c], lifted.phi_c, sweep.bundle.w_inf,
            cfg.consts(c), eosf, grid, cfg.sobolev_order)
        e1s.append(max(e1 - floor_e1, 1e-16))
        e2s.append(e2)
    slopes["residual_1"] = lh.fit_slope(cs, e1s)[0]
    slopes["residual_2"] = lh.fit_slope(cs, e2s)[0]

    ok = (all(s <= -1.9 for name, s in slopes.items()
              if name != "residual_2")
          and slopes["residual_2"] <= -0.9)
    assert _report(5, ok, "limit-approach slopes " + ", ".join(
        "%s=%.2f" % (name, s) for name, s in sorted(slopes.items())))


def test_criterion_6_energy_estimates(sweep, runs):
    cfg = sweep.config
    grid, eosf = cfg.make_grid(), cfg.make_eos()
    ok = True
    worst = 0.0
    for c in cfg.c_values:
        traj, consts = runs[c], cfg.consts(c)
        lifted = lift_to_relativistic(sweep.bundle, consts)
        smooth = mollify_bundle(lifted, cfg.mollify_eps)
        sup_l = 0.0
        e0 = None
        for m in range(len(traj.ts)):
            st = en.RelState(w=traj.ws[m], phi=traj.phis[m], pi=traj.pis[m],
                             t=traj.ts[m], consts=consts, eos=eosf, grid=grid)
            l = ec.assemble_eov_inhomogeneity(st, smooth.w_c, lifted.phi_c)[5]
            sup_l = max(sup_l, grid.sobolev_norm(l, cfg.sobolev_order))
            e = ec.kg_energy(st, lifted.phi_c, cfg.sobolev_order)
            if e0 is None:
                e0 = e
                continue
            bound = e0 + consts.c * traj.ts[m] * sup_l * 1.001
            worst = max(worst, e / bound)
            ok = ok and e <= bound

    # screened elliptic estimate on random band-limited sources
    c0 = 3.0
    small = Grid3(16, cfg.length)
    rng = np.random.default_rng(23)
    ratios = []
    for kappa in (0.5, 1.0, 2.0):
        for _ in range(10):
            src = small.dealias(rng.standard_normal((16,) * 3))
            src -= float(np.mean(src))
            phi = small.helmholtz_solve(src, kappa)
            ratios.append(small.sobolev_norm(phi, 2)
                          / (max(1.0, kappa**-2) * small.l2_norm(src)))
    elliptic_ok = max(ratios) <= c0
    ok = ok and elliptic_ok
    assert _report(6, ok,
                   "field energy bound (worst E/bound %.3f); elliptic "
                   "constant %.3f <= %.1f" % (worst, max(ratios), c0))


def test_criterion_7_exactness(sweep):
    cfg = sweep.config
    grid, eosf = cfg.make_grid(), cfg.make_eos()
    consts = cfg.consts(20.0)
    shape = (grid.n,) * 3
    phi_bar = eos.background_potential(consts, eosf, cfg.p_bar)
    w = np.zeros((5,) + shape)
    w[0] = cfg.eta_bar
    w[1] = cfg.p_bar * math.exp(4.0 * phi_bar * consts.inv_c_sq)
    st = en.RelState(w=w, phi=np.full(shape, phi_bar), pi=np.zeros(shape),
                     t=0.0, consts=consts, eos=eosf, grid=grid)
    w0, phi0 = st.w.copy(), st.phi.copy()
    run_st = st
    for _ in range(100):
        run_st = en.step(run_st, 0.005)
    drift = max(float(np.max(np.abs(run_st.w - w0))),
                float(np.max(np.abs(run_st.phi - phi0))))
    drift_ok = drift <= 1e-10

    lifted = lift_to_relativistic(sweep.bundle, consts)
    base = en.from_bundle(lifted)
    finals = []
    for steps in (16, 32, 64):
        s = base
        dt = 0.02 / steps
        for _ in range(steps):
            s = en.step(s, dt)
        finals.append(np.concatenate([s.w, s.phi[None], s.pi[None]]))
    factor = (np.max(np.abs(finals[0] - finals[1]))
              / np.max(np.abs(finals[1] - finals[2])))
    rk4_ok = abs(factor - 16.0) <= 2.0

    x, y, _ = grid.meshgrid()
    mode = np.sin(3 * x) * np.cos(2 * y)
    kappa = cfg.kappa
    sol = grid.helmholtz_solve((-(13.0) - kappa**2) * mode, kappa)
    helm_ok = float(np.max(np.abs(sol - mode))) <= 1e-12

    pert = en.from_bundle(lifted)
    lu_gap = float(np.max(np.abs(en.fluid_rhs(pert) - en.fluid_rhs_lu(pert))))
    lu_ok = lu_gap <= 1e-12

    ok = drift_ok and rk4_ok and helm_ok and lu_ok
    assert _report(7, ok,
                   "background drift %.1e, time-stepper factor %.1f, "
                   "eigenfunction solve %.1e, analytic-vs-LU %.1e"
                   % (drift, factor, np.max(np.abs(sol - mode)), lu_gap))


def test_criterion_8_dual_formulation(sweep):
    cfg = sweep.config
    grid, eosf = cfg.make_grid(), cfg.make_eos()
    consts_inf = cfg.consts(math.inf)
    st = ep.with_constraint(ep.from_bundle(sweep.bundle, consts_inf))
    r0 = eos.mass_density(consts_inf, eosf, st.w[1])
    wr = np.concatenate([st.w[:1], r0[None], st.w[2:]])
    dt = 0.005
    deriv = lambda y: grid.dealias(ep.mass_form_rhs(
        y, consts_inf, eosf, grid, cfg.p_bar))
    for _ in range(20):
        st = ep.step(st, dt)
        k1 = deriv(wr)
        k2 = deriv(wr + 0.5 * dt * k1)
        k3 = deriv(wr + 0.5 * dt * k2)
        k4 = deriv(wr + dt * k3)
        wr = wr + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
    gap = float(np.max(np.abs(
        wr[1] - eos.mass_density(consts_inf, eosf, st.w[1]))))
    ok = gap <= 1e-6
    assert _report(8, ok,
                   "pressure-form vs conservation-form density gap %.2e "
                   "after 20 steps" % gap)
