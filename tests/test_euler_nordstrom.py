"""Tests for the finite-c integrator: matrices, solves, and stepping."""

import math
from dataclasses import replace

import numpy as np
import pytest

from nordlimit import eos
from nordlimit import euler_nordstrom as en
from nordlimit import euler_poisson as ep
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
    phi_bar = eos.background_potential(consts, eosf, 1.0, 1.0)
    shape = (grid.n,) * 3
    w = np.zeros((5,) + shape)
    w[0] = 1.0
    w[1] = math.exp(4 * phi_bar / c**2)
    return en.RelState(w=w, phi=np.full(shape, phi_bar), pi=np.zeros(shape),
                       t=0.0, consts=consts, eos=eosf, grid=grid)


def perturbed_state(grid, eosf, c, amp_v=(0.05, 0.02, 0.01)):
    spec = PerturbationSpec(amp_eta=0.05, amp_p=0.05, amp_v=amp_v,
                            center=(math.pi,) * 3, width=math.pi / 4)
    b = build_newtonian_data(spec, INF, eosf, grid, admissible_box=BOX)
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


def test_fluid_rhs_matches_dense_lu(grid, eosf):
    st = perturbed_state(grid, eosf, 20.0)
    r1 = en.fluid_rhs(st)
    r2 = en.fluid_rhs_lu(st)
    assert np.max(np.abs(r1 - r2)) <= 1e-12 * np.max(np.abs(r2))


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
        w = st.script_w()
        r = eos.mass_density(INF, eosf, w[0], w[1])
        q = eos.q_coefficient(INF, eosf, w[0], w[1])
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
        ns = ep.NewtState(w=st.script_w(), t=0.0, consts=INF, eos=eosf,
                          grid=grid, eta_bar=1.0, p_bar=1.0, phi=st.phi)
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


def test_shared_thermo_matches_one_argument_forms(grid, eosf):
    # the RHS computes _thermo once and hands it to both halves; the result
    # must not depend on whether the caller supplies it
    st = perturbed_state(grid, eosf, 20.0)
    thermo = en._thermo(st)
    assert np.array_equal(en.fluid_rhs(st, thermo), en.fluid_rhs(st))
    for a, b in zip(en.potential_rhs(st, thermo), en.potential_rhs(st)):
        assert np.array_equal(a, b)
