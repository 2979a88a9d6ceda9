"""Tests for the finite-c integrator: matrices, solves, and stepping."""

import hashlib
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from nordlimit import eos
from nordlimit import euler_nordstrom as en
from nordlimit import euler_poisson as ep
from nordlimit import stepping
from nordlimit.fields import Grid3
from nordlimit.initial_data import (PerturbationSpec, build_newtonian_data,
                                    lift_to_relativistic)

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


def background_state(grid, eosf, c):
    consts = eos.PhysicalConstants(grav_g=G, kappa=1.0, c=c)
    phi_bar = eos.background_potential(consts, eosf, 1.0)
    shape = (grid.n,) * 3
    w = np.zeros((5,) + shape)
    w[0] = 1.0
    w[1] = math.exp(4 * phi_bar / c**2)
    return en.RelState(w=w, phi=np.full(shape, phi_bar), pi=np.zeros(shape),
                       t=0.0, consts=consts, eos=eosf, grid=grid)


def limit_data(grid, eosf, amp_v=(0.05, 0.02, 0.01)):
    spec = PerturbationSpec(amp_eta=0.05, amp_p=0.05, amp_v=amp_v,
                            center=(math.pi,) * 3, width=math.pi / 4)
    return build_newtonian_data(spec, INF, eosf, grid, admissible_box=BOX)


def perturbed_state(grid, eosf, c, amp_v=(0.05, 0.02, 0.01)):
    b = limit_data(grid, eosf, amp_v)
    lift = lift_to_relativistic(b, eos.PhysicalConstants(grav_g=G, c=c))
    return en.from_bundle(lift)


def test_background_matrices(grid, eosf):
    st = background_state(grid, eosf, 20.0)
    a0, ak, b = en.assemble_matrices(st)
    # at rest b is zero and the flux matrices reduce to the static
    # pressure-velocity coupling: ak[k][1, 1+k] = q and ak[k][1+k, 1] = 1
    assert np.max(np.abs(b)) <= 1e-12
    q_bar = eosf.gamma * st.w[1, 0, 0, 0]
    for k in range(3):
        expect = np.zeros((5, 5))
        expect[1, 2 + k] = q_bar
        expect[2 + k, 1] = 1.0
        assert np.max(np.abs(ak[k] - expect[:, :, None, None, None])) <= 1e-12
    alpha = a0[2, 2]
    assert np.allclose(a0[3, 3], alpha) and np.allclose(a0[4, 4], alpha)
    assert np.allclose(a0[0, 0], 1.0) and np.allclose(a0[1, 1], 1.0)
    off = a0.copy()
    for i in range(5):
        off[i, i] = 0.0
    assert np.max(np.abs(off)) == 0.0


def test_energy_weighted_symmetry(grid, eosf):
    # a0 with the pressure row divided by q is symmetric positive definite;
    # the raw a0 is not symmetric for moving backgrounds
    st = perturbed_state(grid, eosf, 20.0)
    a0, _, _ = en.assemble_matrices(st)
    bg_q = st.eos.gamma * st.w[1]
    sym = a0.copy()
    sym[1] = a0[1] / bg_q
    pts = np.moveaxis(sym, (0, 1), (-2, -1))
    asym = np.max(np.abs(pts - np.swapaxes(pts, -1, -2)))
    assert asym <= 1e-13
    eigs = np.linalg.eigvalsh(pts)
    assert np.min(eigs) > 0


def fast_flow_state(grid, eosf, c=2.0):
    """A state at low c whose speed reaches 0.49 c, where the rank-one term
    of the (P, v) block is largest."""
    st = perturbed_state(grid, eosf, c)
    x, y, z = grid.meshgrid()
    w = st.w.copy()
    w[2:] = 0.49 * c / math.sqrt(3.0) * np.stack([np.cos(y), np.cos(z), np.cos(x)])
    return replace(st, w=w)


def test_fluid_rhs_matches_dense_lu(grid, eosf):
    for st in (perturbed_state(grid, eosf, 20.0), fast_flow_state(grid, eosf)):
        r1 = en.fluid_rhs(st)
        r2 = en.fluid_rhs_lu(st)
        assert np.max(np.abs(r1 - r2)) <= 1e-12 * np.max(np.abs(r2))


@pytest.mark.parametrize("c", [10.0, 160.0])
def test_fluid_residual_matches_assembled_operator(grid, eosf, c):
    # b - a^k d_k W0 for mollified data W0 != W, against the matrices
    st = perturbed_state(grid, eosf, c)
    dw0 = grid.gradient(grid.mollify(st.w, 0.2))
    assert np.max(np.abs(dw0 - grid.gradient(st.w))) > 1e-3
    a0, ak, b = en.assemble_matrices(st)
    want = b - np.einsum("kmn...,nk...->m...", ak, dw0)
    r_eta, r_p, r_v = en.fluid_residual(st.consts, st.coefficients(), st.pi,
                                        dw0, grid.gradient(st.phi))
    got = np.concatenate([r_eta[None], r_p[None], r_v])
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_fluid_residual_limit_closed_form(grid, eosf):
    # at c = inf: f = -v.grad eta0, g = -v.grad p0 - q div v0 and
    # h = -r grad phi - r (v.grad) v0 - grad p0
    st = ep.with_constraint(ep.from_bundle(limit_data(grid, eosf), INF))
    dw0 = grid.gradient(grid.mollify(st.w, 0.2))
    dphi = grid.gradient(st.phi)
    co = eos.coefficients(INF, eosf, st.w)
    v, dv0 = st.w[2:], dw0[2:]
    f = -np.einsum("k...,k...->...", v, dw0[0])
    g = (-np.einsum("k...,k...->...", v, dw0[1])
         - co.q * (dv0[0, 0] + dv0[1, 1] + dv0[2, 2]))
    h = -co.r * dphi - co.r * np.einsum("k...,jk...->j...", v, dv0) - dw0[1]
    got = en.fluid_residual(INF, co, st.pi, dw0, dphi)
    for term, want in zip(got, (f, g, h)):
        assert np.max(np.abs(term - want)) <= 1e-12 * np.max(np.abs(want))


def test_background_is_fluid_fixed_point(grid, eosf):
    st = background_state(grid, eosf, 20.0)
    assert np.max(np.abs(en.fluid_rhs(st))) <= 1e-13


def test_background_potential_rhs_vanishes(grid, eosf):
    st = background_state(grid, eosf, 20.0)
    dphi, dpi = en.potential_rhs(st)
    assert np.max(np.abs(dphi)) == 0.0
    # bounded by c^2 times the background root-find residual
    assert np.max(np.abs(dpi)) <= 20.0**2 * 1e-12


def test_potential_source_sign(grid, eosf):
    st = perturbed_state(grid, eosf, 20.0)
    _, dpi = en.potential_rhs(st)
    # increase the gravitating source by scaling P up at fixed phi
    bumped = replace(st, w=np.concatenate([st.w[:1], st.w[1:2] * 1.05, st.w[2:]]))
    _, dpi2 = en.potential_rhs(bumped)
    # higher source density lowers d_t pi pointwise
    assert np.all(dpi2 < dpi)


def test_matrix_c_to_limit_rates(grid, eosf):
    # entrywise gaps of a^nu and of (a0)^-1 against the limit matrices
    rng = np.random.default_rng(61)
    cs = [10.0, 20.0, 40.0, 80.0, 160.0]
    st_inf = None
    gaps_a = []
    gaps_inv = []
    for c in cs:
        st = perturbed_state(grid, eosf, c)
        a0, ak, _ = en.assemble_matrices(st)
        # limit matrices on the same limit-variable state
        w = en.pull_back(st.w, st.phi, st.consts)
        r = eos.mass_density(INF, eosf, w[1])
        q = eos.closure(INF, eosf, w[1])[2]
        a0_inf = np.zeros_like(a0)
        a0_inf[0, 0] = 1.0
        a0_inf[1, 1] = 1.0
        for j in range(3):
            a0_inf[2 + j, 2 + j] = r
        ak_inf = np.zeros_like(ak)
        delta = np.eye(3)
        for k in range(3):
            ak_inf[k, 0, 0] = w[2 + k]
            ak_inf[k, 1, 1] = w[2 + k]
            for j in range(3):
                ak_inf[k, 1, 2 + j] = q * delta[k, j]
                ak_inf[k, 2 + j, 1] = delta[j, k]
                ak_inf[k, 2 + j, 2 + j] = r * w[2 + k]
        gap = max(np.max(np.abs(a0 - a0_inf)), np.max(np.abs(ak - ak_inf)))
        gaps_a.append(gap)
        inv = np.linalg.inv(np.moveaxis(a0, (0, 1), (-2, -1)))
        inv_inf = np.linalg.inv(np.moveaxis(a0_inf, (0, 1), (-2, -1)))
        gaps_inv.append(np.max(np.abs(inv - inv_inf)))
    for gaps in (gaps_a, gaps_inv):
        slope = np.polyfit(np.log(cs), np.log(gaps), 1)[0]
        assert slope <= -1.9


def test_fluid_rhs_c_to_limit_rate(grid, eosf):
    # finite-c time derivative vs the limit system's on matched states
    cs = [10.0, 20.0, 40.0, 80.0, 160.0]
    gaps = []
    for c in cs:
        st = perturbed_state(grid, eosf, c)
        st = replace(st, pi=np.zeros_like(st.pi))
        rhs_c = en.fluid_rhs(st)
        ns = ep.NewtState(w=en.pull_back(st.w, st.phi, st.consts), t=0.0,
                          consts=INF, eos=eosf, grid=grid, p_bar=1.0, phi=st.phi)
        rhs_inf = ep.newtonian_rhs(ns)
        # compare in limit variables: d_t p = exp(-4 phi/c^2) d_t P at pi=0
        icc = 1.0 / c**2
        rhs_c_limit = rhs_c.copy()
        rhs_c_limit[1] = np.exp(-4.0 * st.phi * icc) * rhs_c[1]
        gaps.append(grid.l2_norm(rhs_c_limit - rhs_inf))
    slope = np.polyfit(np.log(cs), np.log(gaps), 1)[0]
    assert slope <= -1.9


def test_superluminal_rejected(grid, eosf):
    st = background_state(grid, eosf, 10.0)
    st.w[2, 0, 0, 0] = 11.0
    with pytest.raises(ValueError, match="superluminal"):
        en.fluid_rhs(st)


def test_klein_gordon_dispersion_rk4():
    # linearized potential equation with frozen source: a single mode
    # oscillates at omega = c sqrt(k^2 + kappa^2); one RK4 period has
    # amplitude error O(dt^4)
    grid = Grid3(32, L)
    c, kappa = 10.0, 1.0
    x, _, _ = grid.meshgrid()
    omega = c * math.sqrt(1.0 + kappa**2)
    period = 2 * math.pi / omega
    errs = []
    for steps in (40, 80):
        dt = period / steps
        phi = np.cos(x)
        pi = np.zeros_like(phi)
        for _ in range(steps):
            def rhs(y):
                f, g = y
                return np.array([g, c**2 * (grid.laplacian(f) - kappa**2 * f)])
            y = np.array([phi, pi])
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * dt * k1)
            k3 = rhs(y + 0.5 * dt * k2)
            k4 = rhs(y + dt * k3)
            phi, pi = y + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        errs.append(np.max(np.abs(phi - np.cos(x))))
    assert errs[0] <= 1e-3
    order = math.log2(errs[0] / errs[1])
    assert 3.5 <= order <= 5.3


def test_background_drift(grid, eosf):
    st = background_state(grid, eosf, 20.0)
    dt = 0.5 * grid.h / 20.0
    ref = st.w.copy()
    for _ in range(100):
        st = en.step(st, dt)
    assert np.max(np.abs(st.w - ref)) <= 1e-10
    assert np.max(np.abs(st.phi - st.phi.flat[0])) <= 1e-10
    assert np.max(np.abs(st.pi)) <= 1e-10


def test_rk4_self_convergence(grid, eosf):
    base = perturbed_state(grid, eosf, 20.0)
    t_final = 0.02
    finals = []
    for steps in (16, 32, 64):
        st = base
        dt = t_final / steps
        for _ in range(steps):
            st = en.step(st, dt)
        finals.append(np.concatenate([st.w, st.phi[None], st.pi[None]]))
    e1 = np.max(np.abs(finals[0] - finals[1]))
    e2 = np.max(np.abs(finals[1] - finals[2]))
    assert e1 / e2 == pytest.approx(16.0, abs=2.0)


def test_grid_self_convergence(eosf):
    # spatial refinement: the 32^3 and 64^3 runs agree to near temporal error
    spec = PerturbationSpec(amp_eta=0.05, amp_p=0.05, amp_v=(0.05, 0.0, 0.0),
                            center=(math.pi,) * 3, width=math.pi / 4)
    finals = {}
    for n in (32, 64):
        grid = Grid3(n, L)
        b = build_newtonian_data(spec, INF, eosf, grid, admissible_box=BOX)
        lift = lift_to_relativistic(b, eos.PhysicalConstants(grav_g=G, c=20.0))
        st = en.from_bundle(lift)
        dt = 0.01 / 4
        for _ in range(4):
            st = en.step(st, dt)
        finals[n] = st
    coarse = finals[32].w
    fine = finals[64].w[:, ::2, ::2, ::2]
    assert np.max(np.abs(coarse - fine)) <= 1e-6


def test_run_aborts_on_box_violation(grid, eosf):
    st = perturbed_state(grid, eosf, 20.0)
    traj = en.run(st, 0.01, n_outputs=2, eta_box=(0.9999, 1.0001), p_box=None)
    assert not traj.ok
    assert "margin" in traj.abort_reason


def test_run_output_times_are_exact(grid, eosf):
    st = perturbed_state(grid, eosf, 20.0)
    traj = en.run(st, 0.02, n_outputs=4, eta_box=BOX[0], p_box=BOX[1])
    assert traj.ok
    assert traj.ts == pytest.approx([0.0, 0.005, 0.01, 0.015, 0.02], abs=1e-15)


def test_shared_coefficients_match_one_argument_forms(grid, eosf):
    # the RHS computes eos.coefficients once and hands it to both halves;
    # the result must not depend on whether the caller supplies it
    st = perturbed_state(grid, eosf, 20.0)
    co = eos.coefficients(st.consts, eosf, st.w, st.phi)
    assert np.array_equal(en.fluid_rhs(st, co), en.fluid_rhs(st))
    for a, b in zip(en.potential_rhs(st, co), en.potential_rhs(st)):
        assert np.array_equal(a, b)


def test_etd_rhs_evaluates_the_closure_once(grid, eosf, monkeypatch):
    st = perturbed_state(grid, eosf, 20.0)
    stepper = en.EtdStepper(st, 0.01)
    real = eos.closure
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(eos, "closure", counted)
    stepper.rhs(st)
    assert len(calls) == 1


def test_fluid_rhs_transient_memory(grid, eosf):
    # the fused fluid block: 7.61 MB of temporaries at 32**3 with co given,
    # of which the 18 gradient fields are 4.72 MB, against 10.75 MB for the
    # separate einsum expressions (12.3 MB with the coefficient build)
    st = perturbed_state(grid, eosf, 20.0)
    co = st.coefficients()
    en.fluid_rhs(st, co)
    tracemalloc.start()
    try:
        en.fluid_rhs(st, co)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8.0e6


def _digests(arrays):
    return [hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
            for a in arrays]


def test_fluid_rhs_and_etd_step_leave_inputs_unchanged(grid, eosf):
    # both work in place only in arrays they allocated: a stored output
    # (`Trajectory.add` keeps the state's own arrays) and the coefficient
    # record stay as they were
    st = perturbed_state(grid, eosf, 20.0)
    co = st.coefficients()
    arrays = [st.w, st.phi, st.pi] + [getattr(co, f.name) for f in fields(co)]
    before = _digests(arrays)
    en.fluid_rhs(st, co)
    en.etd_step(st, en.EtdStepper(st, 0.005))
    assert _digests(arrays) == before


def test_stage_source_matches_coefficient_record(grid, eosf):
    # the stage source R - 3 P/c**2 from P and phi alone is that of the
    # full coefficient record, and keeps the causality check of the closure
    st = perturbed_state(grid, eosf, 20.0)
    got = eos.potential_source(st.consts, eosf, st.w[1], st.phi)
    want = en._potential_source(st.consts, st.coefficients())
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    k = eos.PhysicalConstants(c=1.0)
    with pytest.raises(ValueError, match="non-causal"):
        eos.potential_source(k, eos.PolytropicEos(gamma=3.0),
                             np.full(4, 1e6), np.zeros(4))


def test_pull_back_unweights_p_and_is_identity_at_inf(grid, eosf):
    st = perturbed_state(grid, eosf, 20.0)
    back = en.pull_back(st.w, st.phi, st.consts)
    assert np.array_equal(back[[0, 2, 3, 4]], st.w[[0, 2, 3, 4]])
    assert np.allclose(back[1], np.exp(-4.0 * st.phi / 20.0**2) * st.w[1],
                       rtol=1e-14, atol=0)
    w = st.w.copy()
    assert np.array_equal(en.pull_back(w, st.phi, INF), w)


def test_etd_run_matches_rk4_oracle(grid, eosf):
    # per output, the ETD run agrees with classical RK4 at the wave CFL step
    # to 1e-3 of the perturbation, in the sweep's norms (H^3 for W, H^5 for
    # the potential)
    c, t_final, n_out = 40.0, 0.05, 5
    st = perturbed_state(grid, eosf, c)
    traj = en.run(st, t_final, n_outputs=n_out)
    assert traj.ok and traj.steps == 5 and traj.rhs_evals == 20
    seg = t_final / n_out
    per_seg = math.ceil(seg / (0.5 * grid.h / c) - 1e-12)
    ref = st
    for m in range(1, n_out + 1):
        for _ in range(per_seg):
            ref = en.step(ref, seg / per_seg)
        w_scale = grid.sobolev_norm(ref.w, 3, background=ref.w.mean(axis=(1, 2, 3)))
        phi_scale = grid.sobolev_norm(ref.phi, 5, background=ref.phi.mean())
        assert grid.sobolev_norm(traj.ws[m] - ref.w, 3) <= 1e-3 * w_scale
        assert grid.sobolev_norm(traj.phis[m] - ref.phi, 5) <= 1e-3 * phi_scale


def test_etd_step_freezes_modes_outside_mask(grid, eosf):
    # RK4's masked right-hand side never moves the potential's modes outside
    # the 2/3 mask; rotating them with exp(i omega dt) moved the H^5
    # potential gap of the sweep by 4% to 600%.  The stepper carries the
    # spectra, so they stay bit for bit over a run of steps
    st = perturbed_state(grid, eosf, 40.0)
    rng = np.random.default_rng(7)
    st = replace(st, phi=st.phi + 1e-3 * rng.standard_normal(st.phi.shape),
                 pi=st.pi + 1e-3 * rng.standard_normal(st.pi.shape))
    stepper = en.EtdStepper(st, 0.0125)
    spec0 = stepper.spec.copy()
    outside, inside = ~grid.dealias_mask, grid.dealias_mask
    assert np.max(np.abs(spec0[:, outside])) > 1e-3
    for _ in range(5):
        before = stepper.spec[:, inside]
        st = en.etd_step(st, stepper)
        assert np.array_equal(stepper.spec[:, outside], spec0[:, outside])
        assert not np.array_equal(stepper.spec[:, inside], before)


def test_etd_steps_by_hand_reproduce_run(grid, eosf):
    # stepping an EtdStepper with etd_step outside `stepping.drive` gives
    # the run's outputs bit for bit, at two fluid CFL steps per output
    st = perturbed_state(grid, eosf, 160.0)
    n_out = 2
    traj = en.run(st, 0.2, n_outputs=n_out)
    assert traj.ok and traj.steps == 4
    assert traj.dt_reason == "fluid CFL"
    stepper = en.EtdStepper(st, traj.dt)
    for m in range(1, n_out + 1):
        for _ in range(traj.steps // n_out):
            st = en.etd_step(st, stepper)
        assert np.array_equal(st.w, traj.ws[m])
        assert np.array_equal(st.phi, traj.phis[m])
        assert np.array_equal(st.pi, traj.pis[m])


def test_etd_minus_coefficients_are_conjugates(grid, eosf):
    dt = 0.00625
    stepper = en.EtdStepper(perturbed_state(grid, eosf, 80.0), dt)
    minus = en.etd_coefficients(-1j * stepper.omega * dt, dt)
    for row, direct in zip((stepper.q, stepper.f1, stepper.f2, stepper.f3),
                           minus):
        assert np.array_equal(row[1], row[0].conj())
        assert np.max(np.abs(row[1] - direct)) <= 1e-12 * dt
    assert np.array_equal(stepper.e[1], np.exp(-1j * stepper.omega * dt))


def test_etd_contour_matches_closed_forms():
    # away from 0 the closed forms are well conditioned; the full-circle
    # contour mean must reproduce them, for complex as well as real z.  On
    # |z| = 1 the circle passes through 0, where a node at distance d would
    # cost eps / d**3 of accuracy
    z = np.concatenate([[1.0, -1.0, 1j, -1j, 0.6 + 0.8j, 0.8 - 0.6j,
                         -0.28 + 0.96j, 3.0 + 4.0j, -2.0 + 0.5j],
                        1j * np.linspace(1.0, 30.0, 59), -1j * np.linspace(1.0, 30.0, 59)])
    dt = 0.7
    ez = np.exp(z)
    closed = (dt * (np.exp(0.5 * z) - 1.0) / z,
              dt * (-4.0 - z + ez * (4.0 - 3.0 * z + z * z)) / z**3,
              2.0 * dt * (2.0 + z + ez * (z - 2.0)) / z**3,
              dt * (-4.0 - 3.0 * z - z * z + ez * (4.0 - z)) / z**3)
    for got, want in zip(en.etd_coefficients(z, dt), closed):
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12


def test_etd_coefficients_at_zero_are_rk4_weights():
    dt = 0.3
    got = en.etd_coefficients(np.zeros(1), dt)
    for g, want in zip(got, (dt / 2, dt / 6, dt / 3, dt / 6)):
        assert abs(g[0] - want) <= 1e-15 * dt


@pytest.mark.parametrize("c", [160.0, 10240.0], ids=["160", "10240"])
def test_shared_grid_time_floor_below_gap(grid, eosf, c):
    # refined as the sweep refines it, both runs at twice the outputs and so
    # at half the shared dt, the fluid and potential gaps at t_final move by
    # at most a tenth of their size (the time-discretisation floor).  A
    # c = 10240 rung stepped finer than the limit run would leave the limit
    # run's own time error in its fluid gap, which then moves 15x
    t_final = 0.05
    spec = PerturbationSpec(amp_eta=0.05, amp_p=0.05, amp_v=(0.05, 0.0, 0.0),
                            center=(math.pi,) * 3, width=math.pi / 4)
    b = build_newtonian_data(spec, INF, eosf, grid, admissible_box=BOX)
    lift = lift_to_relativistic(b, eos.PhysicalConstants(grav_g=G, c=c))
    st = en.from_bundle(lift)

    def gaps(n_outputs):
        limit = ep.run(ep.from_bundle(b, INF), t_final, n_outputs=n_outputs)
        traj = en.run(st, t_final, n_outputs=n_outputs)
        assert limit.ok and traj.ok and traj.dt == limit.dt
        pulled = en.pull_back(traj.ws[-1], traj.phis[-1], st.consts)
        dev = ((limit.phis[-1] - b.phi_bar_inf)
               - (traj.phis[-1] - lift.phi_bar_c))
        return (grid.sobolev_norm(limit.ws[-1] - pulled, 3),
                grid.sobolev_norm(dev, 5))

    for coarse, fine in zip(gaps(1), gaps(2)):
        assert abs(coarse - fine) <= 0.1 * fine


def test_run_dt_rule_and_telemetry(grid, eosf):
    # two outputs over 0.05 are shorter than the fluid CFL step
    # h / (2 s_fluid), and the output interval sets dt; one output over 0.2
    # is longer, and the fluid CFL step sets it
    st = perturbed_state(grid, eosf, 40.0)
    traj = en.run(st, 0.05, n_outputs=2)
    assert traj.dt_reason == "output interval"
    assert traj.steps == 2 and traj.rhs_evals == 8
    assert traj.dt == pytest.approx(0.025, rel=1e-14)
    slow = perturbed_state(grid, eosf, 5.0)
    traj = en.run(slow, 0.2, n_outputs=1)
    assert traj.ok and traj.dt_reason == "fluid CFL"
    assert traj.dt <= 0.5 * grid.h / stepping.fluid_signal_speed(slow)


def test_run_step_count_does_not_grow_with_c(grid, eosf):
    # the reference output interval of 0.01 is shorter than the fluid CFL
    # step, which c does not bound: every c takes one step per output
    for c in (10.0, 40.0, 160.0, 10240.0):
        traj = en.run(perturbed_state(grid, eosf, c), 0.05, n_outputs=5)
        assert traj.ok and traj.dt_reason == "output interval"
        assert traj.steps == 5 and traj.rhs_evals == 20
