"""Tests for energy currents, positivity, and divergence."""

import math
import os
from dataclasses import replace

import numpy as np
import pytest

from nordlimit import energy_currents as ec
from nordlimit import eos
from nordlimit import euler_nordstrom as en
from nordlimit import euler_poisson as ep
from nordlimit.fields import Grid3
from nordlimit.initial_data import (PerturbationSpec, build_newtonian_data,
                                    lift_to_relativistic, mollify_bundle)

L = 2.0 * math.pi
G = 0.05
INF = eos.PhysicalConstants(grav_g=G, kappa=1.0, c=math.inf)
BOX = ((0.5, 1.5), (0.5, 1.5))


@pytest.fixture(scope="module")
def grid():
    return Grid3(32, L)


@pytest.fixture(scope="module")
def eosf():
    return eos.PolytropicEos()


def rest_background(grid, c):
    """Uniform rest state (eta, p or P, v=0) as a coefficient record."""
    consts = eos.PhysicalConstants(grav_g=G, kappa=1.0, c=c)
    eosf = eos.PolytropicEos()
    shape = (grid.n,) * 3
    w = np.zeros((5,) + shape)
    w[0] = 1.0
    if math.isfinite(c):
        phi_bar = eos.background_potential(consts, eosf, 1.0)
        phi = np.full(shape, phi_bar)
        w[1] = math.exp(4.0 * phi_bar / c**2)
        return consts, ec.background_coeffs(consts, eosf, w, phi)
    w[1] = 1.0
    return consts, ec.background_coeffs(consts, eosf, w)


def perturbed_bundle(grid, eosf, c):
    spec = PerturbationSpec(amp_eta=0.05, amp_p=0.05, amp_v=(0.05, 0.02, 0.01),
                            center=(math.pi,) * 3, width=math.pi / 4)
    b = build_newtonian_data(spec, INF, eosf, grid, admissible_box=BOX)
    if math.isfinite(c):
        return lift_to_relativistic(b, eos.PhysicalConstants(grav_g=G, c=c))
    return b


def unit_variation(grid, index):
    shape = (grid.n,) * 3
    wdot = np.zeros((5,) + shape)
    wdot[index] = 1.0
    return wdot


def test_j0_limit_examples(grid):
    consts, bg = rest_background(grid, math.inf)
    assert np.allclose(ec.j0(consts, bg, unit_variation(grid, 0)), 1.0)
    # pressure direction picks up 1/q = 1/(gamma p) = 0.5
    assert np.allclose(ec.j0(consts, bg, unit_variation(grid, 1)), 0.5)
    # velocity direction picks up the limit density r = 1
    wdot = 0.25 * unit_variation(grid, 4)
    assert np.allclose(ec.j0(consts, bg, wdot), 0.25**2)


def test_j0_finite_c_rest(grid):
    c = 20.0
    consts, bg = rest_background(grid, c)
    wdot = unit_variation(grid, 2)
    expect = bg.r + bg.big_p / c**2
    assert np.allclose(ec.j0(consts, bg, wdot), expect)


def test_j0_quadratic_homogeneity(grid, eosf):
    b = perturbed_bundle(grid, eosf, 20.0)
    consts = b.consts
    bg = ec.background_coeffs(consts, eosf, b.w_c, b.phi_c)
    rng = np.random.default_rng(7)
    wdot = rng.standard_normal(b.w_c.shape)
    assert np.allclose(ec.j0(consts, bg, 3.0 * wdot),
                       9.0 * ec.j0(consts, bg, wdot))


def test_current_limit_rate(grid, eosf):
    # on lifted backgrounds with a fixed variation j0 approaches its c = inf
    # value at second order
    b_inf = perturbed_bundle(grid, eosf, math.inf)
    bg_inf = ec.background_coeffs(INF, eosf, b_inf.w_inf)
    rng = np.random.default_rng(11)
    wdot = rng.standard_normal(b_inf.w_inf.shape)
    j0_inf = ec.j0(INF, bg_inf, wdot)
    cs = np.array([10.0, 20.0, 40.0, 80.0])
    gaps = []
    for c in cs:
        b = perturbed_bundle(grid, eosf, c)
        bg = ec.background_coeffs(b.consts, eosf, b.w_c, b.phi_c)
        gaps.append(np.max(np.abs(ec.j0(b.consts, bg, wdot) - j0_inf)))
    slope = np.polyfit(np.log(cs), np.log(gaps), 1)[0]
    assert slope <= -1.9


def test_positivity_rest_examples(grid):
    consts, bg = rest_background(grid, math.inf)
    lo, hi = ec.positivity_ratio(consts, bg, np.eye(5))
    assert lo == pytest.approx(0.5, abs=1e-12)
    assert hi == pytest.approx(1.0, abs=1e-12)


def test_positivity_eigen_oracle(grid, eosf):
    b = perturbed_bundle(grid, eosf, 20.0)
    consts = b.consts
    bg = ec.background_coeffs(consts, eosf, b.w_c, b.phi_c)
    m = ec.quadratic_form_matrix(consts, bg)
    eigs = np.linalg.eigvalsh(m)
    lam_min, lam_max = float(np.min(eigs)), float(np.max(eigs))
    assert lam_min > 0
    rng = np.random.default_rng(3)
    lo, hi = ec.positivity_ratio(consts, bg, rng.standard_normal((12, 5)))
    assert lam_min - 1e-12 <= lo <= hi <= lam_max + 1e-12


@pytest.mark.parametrize("c", [20.0, math.inf])
def test_positivity_matches_quadratic_form(grid, eosf, c):
    # the scalar variations of positivity_ratio against u^T M u per point
    b = perturbed_bundle(grid, eosf, c)
    if math.isfinite(c):
        consts = b.consts
        bg = ec.background_coeffs(consts, eosf, b.w_c, b.phi_c)
    else:
        consts = INF
        bg = ec.background_coeffs(consts, eosf, b.w_inf)
    rows = np.random.default_rng(5).standard_normal((8, 5))
    units = rows / np.linalg.norm(rows, axis=1)[:, None]
    m = ec.quadratic_form_matrix(consts, bg)
    forms = np.einsum("ki,...ij,kj->k...", units, m, units)
    lo, hi = ec.positivity_ratio(consts, bg, rows)
    assert lo == pytest.approx(float(np.min(forms)), abs=1e-14)
    assert hi == pytest.approx(float(np.max(forms)), abs=1e-14)


@pytest.mark.parametrize("c", [20.0, math.inf])
def test_positivity_ratio_matches_per_row_j0(grid, eosf, c):
    # the one matrix product per block of points against one j0 pass per
    # unit row, taken as constant variation fields
    b = perturbed_bundle(grid, eosf, c)
    if math.isfinite(c):
        consts = b.consts
        bg = ec.background_coeffs(consts, eosf, b.w_c, b.phi_c)
    else:
        consts = INF
        bg = ec.background_coeffs(consts, eosf, b.w_inf)
    rows = np.random.default_rng(11).normal(size=(16, 5))
    lo, hi = math.inf, -math.inf
    for row in rows:
        ratio = ec.j0(consts, bg, row / np.linalg.norm(row))
        lo, hi = min(lo, float(np.min(ratio))), max(hi, float(np.max(ratio)))
    got = ec.positivity_ratio(consts, bg, rows)
    assert got == pytest.approx((lo, hi), rel=1e-12, abs=0)


def test_positivity_reports_lost_positivity(grid):
    # a nonpositive ratio is returned for the caller to judge, not raised
    consts, bg = rest_background(grid, math.inf)
    flipped = replace(bg, q=-bg.q)
    lo, hi = ec.positivity_ratio(consts, flipped, np.eye(5))
    assert lo == pytest.approx(-0.5, abs=1e-12)
    assert hi == pytest.approx(1.0, abs=1e-12)


def test_positivity_rejects_zero_variation(grid):
    consts, bg = rest_background(grid, math.inf)
    with pytest.raises(ValueError, match="zero variation"):
        ec.positivity_ratio(consts, bg, np.zeros((1, 5)))


def test_inhomogeneity_vanishes_on_background(grid, eosf):
    # when the smoothed datum equals the uniform background state every
    # source term of the variation equations is zero
    for c in (20.0, math.inf):
        consts = eos.PhysicalConstants(grav_g=G, kappa=1.0, c=c)
        shape = (grid.n,) * 3
        w = np.zeros((5,) + shape)
        w[0] = 1.0
        if math.isfinite(c):
            phi_bar = eos.background_potential(consts, eosf, 1.0)
            w[1] = math.exp(4.0 * phi_bar / c**2)
            st = en.RelState(w=w, phi=np.full(shape, phi_bar),
                             pi=np.zeros(shape), t=0.0, consts=consts,
                             eos=eosf, grid=grid)
            phi_data = st.phi
        else:
            w[1] = 1.0
            st = ep.with_constraint(ep.NewtState(
                w=w, t=0.0, consts=consts, eos=eosf, grid=grid, p_bar=1.0))
            phi_data = st.phi
        terms = ec.assemble_eov_inhomogeneity(st, w, phi_data)
        for term in terms:
            assert np.max(np.abs(term)) <= 1e-10


def test_inhomogeneity_f_vanishes_at_rest(grid, eosf):
    b = perturbed_bundle(grid, eosf, 20.0)
    st = en.from_bundle(b)
    st.w[2:] = 0.0
    smoothed = mollify_bundle(b, 0.2).w_c
    f = ec.assemble_eov_inhomogeneity(st, smoothed, b.phi_c)[0]
    assert np.max(np.abs(f)) <= 1e-14


def test_kg_inhomogeneity_matches_assembled_l(grid, eosf):
    # the l-only helpers give the last inhomogeneity bit for bit
    b = perturbed_bundle(grid, eosf, 20.0)
    st = en.from_bundle(b)
    smoothed = mollify_bundle(b, 0.2).w_c
    bg = ec.background_coeffs(b.consts, eosf, st.w, st.phi)
    l = ec.kg_inhomogeneity(b.consts, bg, ec.kg_data(b.consts, grid, b.phi_c))
    assert np.array_equal(l, ec.assemble_eov_inhomogeneity(st, smoothed, b.phi_c)[5])


def test_kg_energy_zero_at_datum(grid, eosf):
    b = perturbed_bundle(grid, eosf, 20.0)
    st = en.from_bundle(b)
    st = replace(st, pi=np.zeros_like(st.pi))
    assert ec.kg_energy(st, b.phi_c, 2) == 0.0


def test_divergence_identity_finite_c(grid, eosf):
    b = mollify_bundle(perturbed_bundle(grid, eosf, 20.0), 0.2)
    st = en.from_bundle(b)
    traj = en.run(st, 0.05, n_outputs=16, eta_box=BOX[0], p_box=BOX[1])
    assert traj.ok
    report = ec.divergence_identity_check(
        traj, b.w_c, b.phi_c, st.consts, eosf, grid)
    assert report.max_defect <= 2e-3
    assert all(row[4] > 0 for row in report.rows)


def test_divergence_identity_limit(grid, eosf):
    b = mollify_bundle(perturbed_bundle(grid, eosf, math.inf), 0.2)
    st = ep.from_bundle(b, INF)
    traj = ep.run(st, 0.05, n_outputs=16, eta_box=BOX[0], p_box=BOX[1])
    assert traj.ok
    report = ec.divergence_identity_check(
        traj, b.w_inf, b.phi_inf, INF, eosf, grid)
    assert report.max_defect <= 2e-3


@pytest.mark.parametrize("c", [20.0, math.inf], ids=["finite-c", "c=inf"])
def test_divergence_check_on_two_cpus_matches_one(monkeypatch, eosf, c):
    # the per-output work runs in two forked workers or in this process;
    # the report is the same bit for bit
    grid16 = Grid3(16, L)
    b = mollify_bundle(perturbed_bundle(grid16, eosf, c), 0.2)
    if math.isfinite(c):
        st, run, w0, phi0 = en.from_bundle(b), en.run, b.w_c, b.phi_c
    else:
        st, run, w0, phi0 = ep.from_bundle(b, INF), ep.run, b.w_inf, b.phi_inf
    traj = run(st, 0.02, n_outputs=4, eta_box=BOX[0], p_box=BOX[1])
    reports = []
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        reports.append(ec.divergence_identity_check(
            traj, w0, phi0, st.consts, eosf, grid16))
    two, one = reports
    assert len(one.rows) == 3
    assert np.array_equal(two.rows, one.rows, equal_nan=True)
    assert two.max_defect == one.max_defect


def test_divergence_check_fails_on_nan_data(eosf):
    # a NaN defect is carried into the max, so NaN data cannot pass
    grid16 = Grid3(16, L)
    b = mollify_bundle(perturbed_bundle(grid16, eosf, math.inf), 0.2)
    traj = ep.run(ep.from_bundle(b, INF), 0.02, n_outputs=4,
                  eta_box=BOX[0], p_box=BOX[1])
    smoothed = b.w_inf.copy()
    smoothed[0, 3, 4, 5] = math.nan
    report = ec.divergence_identity_check(
        traj, smoothed, b.phi_inf, INF, eosf, grid16)
    assert len(report.rows) == 3
    assert not report.max_defect <= 1e-3


def test_divergence_check_of_no_interior_output_fails(eosf):
    # a run of one output interval has no interior output, so the identity
    # was checked nowhere: the max defect is NaN and the verdict FAIL
    grid16 = Grid3(16, L)
    b = perturbed_bundle(grid16, eosf, 20.0)
    consts, smoothed = b.consts, mollify_bundle(b, 0.2).w_c
    traj = en.run(en.from_bundle(b), 0.02, n_outputs=1,
                  eta_box=BOX[0], p_box=BOX[1])
    assert traj.ok and len(traj.ts) == 2
    report = ec.divergence_identity_check(traj, smoothed, b.phi_c, consts,
                                          eosf, grid16)
    assert report.rows == [] and math.isnan(report.max_defect)
    variations = np.random.default_rng(0).normal(size=(16, 5))
    report, verdicts, values = ec.check_invariants(
        traj, smoothed, b.phi_c, consts, eosf, grid16, variations, 2)
    assert report.rows == [] and verdicts["divergence_identity"] is False
    assert math.isnan(values["divergence_identity"])


def test_divergence_check_reads_stored_limit_potentials(monkeypatch, eosf):
    # a limit trajectory stores the potential each step solved for; the
    # check takes it as stored and gives, bit for bit, the rows of the
    # potentials re-solved from the stored fluid states
    grid16 = Grid3(16, L)
    b = mollify_bundle(perturbed_bundle(grid16, eosf, math.inf), 0.2)
    st = ep.from_bundle(b, INF)
    traj = ep.run(st, 0.02, n_outputs=4, eta_box=BOX[0], p_box=BOX[1])
    resolved = replace(traj, phis=[ep.with_constraint(replace(st, w=w)).phi
                                   for w in traj.ws])
    oracle = ec.divergence_identity_check(
        resolved, b.w_inf, b.phi_inf, INF, eosf, grid16)

    def refuse(state):
        raise AssertionError("solve_constraint called")

    monkeypatch.setattr(ep, "solve_constraint", refuse)
    report = ec.divergence_identity_check(
        traj, b.w_inf, b.phi_inf, INF, eosf, grid16)
    assert len(report.rows) == 3
    assert np.array_equal(report.rows, oracle.rows, equal_nan=True)


def test_divergence_report_csv(grid, eosf, tmp_path):
    b = mollify_bundle(perturbed_bundle(grid, eosf, math.inf), 0.2)
    st = ep.from_bundle(b, INF)
    traj = ep.run(st, 0.02, n_outputs=4, eta_box=BOX[0], p_box=BOX[1])
    report = ec.divergence_identity_check(
        traj, b.w_inf, b.phi_inf, INF, eosf, grid)
    path = tmp_path / "div.csv"
    report.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,LHS,RHS,defect,minRatio,maxRatio"
    assert len(lines) == len(report.rows) + 1


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["1-cpu", "2-cpus"])
def test_check_invariants_matches_separate_checks(monkeypatch, eosf, cpus):
    # one pass over the stored run gives the divergence report of
    # divergence_identity_check and the verdicts of a fold over the
    # per-output positivity, inhomogeneity and field-energy calls, bit for bit
    grid16 = Grid3(16, L)
    b = perturbed_bundle(grid16, eosf, 20.0)
    consts, smoothed = b.consts, mollify_bundle(b, 0.2).w_c
    traj = en.run(en.from_bundle(b), 0.02, n_outputs=4,
                  eta_box=BOX[0], p_box=BOX[1])
    variations = np.random.default_rng(0).normal(size=(16, 5))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    report, verdicts, values = ec.check_invariants(
        traj, smoothed, b.phi_c, consts, eosf, grid16, variations, 2)
    oracle = ec.divergence_identity_check(traj, smoothed, b.phi_c, consts,
                                          eosf, grid16)
    assert len(report.rows) == 3
    assert np.array_equal(report.rows, oracle.rows)
    assert report.max_defect == oracle.max_defect
    assert verdicts["divergence_identity"] == (oracle.max_defect <= 1e-3)
    assert values["divergence_identity"] == oracle.max_defect

    data = ec.kg_data(consts, grid16, b.phi_c)
    lows, energies, bounds, sup_l = [], [], [], 0.0
    for m, t in enumerate(traj.ts):
        st = en.RelState(w=traj.ws[m], phi=traj.phis[m], pi=traj.pis[m], t=t,
                         consts=consts, eos=eosf, grid=grid16)
        bg = ec.background_coeffs(consts, eosf, st.w, st.phi)
        lows.append(ec.positivity_ratio(consts, bg, variations)[0])
        l = ec.kg_inhomogeneity(consts, bg, data)
        sup_l = max(sup_l, grid16.sobolev_norm(l, 2))
        energies.append(ec.kg_energy(st, b.phi_c, 2))
        bounds.append(energies[0] + consts.c * t * sup_l * (1.0 + 1e-3))
    assert verdicts["positivity"] == all(lo > 0 for lo in lows)
    assert values["positivity"] == min(lows)
    assert verdicts["kg_inequality"] == all(e <= bd for e, bd in zip(energies, bounds))
    assert values["kg_inequality"] == max(e / bd for e, bd in
                                      zip(energies[1:], bounds[1:]))
    assert verdicts["positivity"] and verdicts["kg_inequality"]
