"""Tests for the shared perturbed quiet-fluid initial data."""

import math

import numpy as np
import pytest

from nordlimit import eos
from nordlimit import euler_poisson as ep
from nordlimit.fields import Grid3
from nordlimit.initial_data import (PerturbationSpec, build_newtonian_data,
                                    gaussian_bump, lift_to_relativistic,
                                    mollify_bundle)

L = 2.0 * math.pi
INF = eos.PhysicalConstants(grav_g=0.05, kappa=1.0, c=math.inf)
BOX = ((0.5, 1.5), (0.5, 1.5))


@pytest.fixture(scope="module")
def grid():
    return Grid3(32, L)


@pytest.fixture(scope="module")
def eosf():
    return eos.PolytropicEos()


def generic_spec():
    return PerturbationSpec(amp_eta=0.05, amp_p=0.05, amp_v=(0.05, 0.02, 0.0),
                            center=(math.pi, math.pi, math.pi), width=math.pi / 4)


def test_bump_width_validation(grid):
    with pytest.raises(ValueError):
        gaussian_bump(grid, (0, 0, 0), L / 4)
    with pytest.raises(ValueError):
        gaussian_bump(grid, (0, 0, 0), 0.0)


def test_zero_perturbation_is_quiet(grid, eosf):
    b = build_newtonian_data(PerturbationSpec(), INF, eosf, grid)
    assert np.max(np.abs(b.phi_inf - b.phi_bar_inf)) <= 1e-13
    assert np.max(np.abs(b.psi0)) <= 1e-13
    assert np.max(np.abs(b.w_inf[0] - 1.0)) <= 1e-13
    assert np.max(np.abs(b.w_inf[2:])) == 0.0


def test_zero_velocity_bump_has_no_momentum_potential(grid, eosf):
    spec = PerturbationSpec(amp_p=0.05, center=(1.0, 2.0, 3.0), width=0.8)
    b = build_newtonian_data(spec, INF, eosf, grid)
    assert np.max(np.abs(b.psi0)) <= 1e-13
    assert np.max(np.abs(b.phi_inf - b.phi_bar_inf)) > 1e-4


def test_potential_forward_residual(grid, eosf):
    b = build_newtonian_data(generic_spec(), INF, eosf, grid, admissible_box=BOX)
    rho = eos.mass_density(INF, eosf, b.w_inf[1])
    res = (grid.laplacian(b.phi_inf) - INF.kappa**2 * b.phi_inf
           - 4 * math.pi * INF.grav_g * rho)
    assert grid.l2_norm(res) / grid.l2_norm(rho) <= 1e-10


def test_momentum_potential_forward_residual(grid, eosf):
    b = build_newtonian_data(generic_spec(), INF, eosf, grid)
    rho = eos.mass_density(INF, eosf, b.w_inf[1])
    src = -4 * math.pi * INF.grav_g * sum(
        grid.derivative(rho * b.w_inf[2 + k], k) for k in range(3))
    res = grid.laplacian(b.psi0) - INF.kappa**2 * b.psi0 - src
    assert grid.l2_norm(res) <= 1e-10 * max(grid.l2_norm(src), 1e-30)


def test_potential_datum_is_limit_constraint_solve(grid, eosf):
    # the limit run starts from the potential of the data, bit for bit
    b = build_newtonian_data(generic_spec(), INF, eosf, grid)
    assert np.array_equal(b.phi_inf, ep.solve_constraint(ep.from_bundle(b, INF)))


def test_lift_pointwise_identity(grid, eosf):
    b = build_newtonian_data(generic_spec(), INF, eosf, grid)
    lift = lift_to_relativistic(b, eos.PhysicalConstants(grav_g=0.05, c=20.0))
    # constructed, not solved: exact equality of the deviations
    assert np.array_equal(lift.phi_c - lift.phi_bar_c,
                          b.phi_inf - b.phi_bar_inf)


def test_lift_background_is_constant_state(grid, eosf):
    b = build_newtonian_data(PerturbationSpec(), INF, eosf, grid)
    k = eos.PhysicalConstants(grav_g=0.05, c=20.0)
    lift = lift_to_relativistic(b, k)
    expect_p = math.exp(4 * lift.phi_bar_c / 20.0**2) * 1.0
    assert np.max(np.abs(lift.w_c[1] - expect_p)) <= 1e-13
    assert np.max(np.abs(lift.phi_c - lift.phi_bar_c)) <= 1e-13


def test_weighted_pressure_converges(grid, eosf):
    b = build_newtonian_data(generic_spec(), INF, eosf, grid)
    cs = [10, 20, 40, 80, 160]
    gaps = []
    for c in cs:
        lift = lift_to_relativistic(b, eos.PhysicalConstants(grav_g=0.05, c=float(c)))
        gaps.append(np.max(np.abs(lift.w_c[1] - b.w_inf[1])))
    slope = np.polyfit(np.log(cs), np.log(gaps), 1)[0]
    assert slope == pytest.approx(-2.0, abs=0.05)


def test_admissibility_margin_enforced(grid, eosf):
    spec = PerturbationSpec(amp_p=0.5, center=(math.pi,) * 3, width=0.8)
    with pytest.raises(ValueError, match="admissible box"):
        build_newtonian_data(spec, INF, eosf, grid, admissible_box=BOX)


def test_admissibility_message_names_grid_point_as_plain_ints(grid, eosf):
    # every point lies below the eta box, so the first one is named
    box = ((2.0, 3.0), BOX[1])
    with pytest.raises(ValueError, match=r"at grid point \(0, 0, 0\) "):
        build_newtonian_data(generic_spec(), INF, eosf, grid, admissible_box=box)


def test_mollify_bundle_gap_decreases(grid, eosf):
    b = build_newtonian_data(generic_spec(), INF, eosf, grid)
    gaps = []
    for eps in (0.4, 0.2, 0.1, 0.05):
        sm = mollify_bundle(b, eps)
        gaps.append(grid.sobolev_norm(b.w_inf - sm.w_inf, 4))
    assert all(a > b_ for a, b_ in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.1 * gaps[0]
