"""Tests for the equation-of-state family and background constants."""

import math

import numpy as np
import pytest

from nordlimit import eos

INF = eos.PhysicalConstants(c=math.inf)


def test_limit_sound_speed_closed_form():
    # m0=1, gamma=2, a_inf=1, p=1: d rho/d p = 1/2 so squared speed is 2
    e = eos.PolytropicEos(m0=1.0, gamma=2.0, a_inf=1.0)
    assert eos.closure(INF, e, 1.0)[1] == pytest.approx(2.0, rel=1e-14)


def test_finite_c_sound_speed_closed_form():
    # adds 1/((gamma-1) c^2) = 0.01 to the compressibility: 1/0.51
    e = eos.PolytropicEos()
    k = eos.PhysicalConstants(c=10.0)
    assert eos.closure(k, e, 1.0)[1] == pytest.approx(1.0 / 0.51, rel=1e-14)


def test_finite_c_mass_density_closed_form():
    e = eos.PolytropicEos()
    k = eos.PhysicalConstants(c=10.0)
    assert eos.mass_density(k, e, 1.0) == pytest.approx(1.01, rel=1e-14)


def test_sound_speed_matches_density_derivative():
    # central-difference oracle for d rho / d p
    e = eos.PolytropicEos(m0=1.3, gamma=1.7, a_inf=0.8, a1=0.5)
    rng = np.random.default_rng(7)
    for consts in (INF, eos.PhysicalConstants(c=25.0)):
        for _ in range(20):
            p = rng.uniform(0.5, 1.5)
            rng.uniform(0.9, 1.1)  # an eta draw: keeps the p samples
            dp = 1e-6 * p
            fd = (eos.mass_density(consts, e, p + dp)
                  - eos.mass_density(consts, e, p - dp)) / (2 * dp)
            assert 1.0 / eos.closure(consts, e, p)[1] == pytest.approx(
                fd, rel=1e-8)


def test_q_identity_polytropic():
    # q collapses to gamma * exp(4 phi/c^2) * p for this family
    e = eos.PolytropicEos(gamma=1.8)
    rng = np.random.default_rng(3)
    p = rng.uniform(0.5, 1.5, 50)
    rng.uniform(0.9, 1.1, 50)  # an eta draw: keeps the phi samples
    phi = rng.uniform(-1.0, 0.0, 50)
    k = eos.PhysicalConstants(c=15.0)
    q = eos.closure(k, e, p, eos.potential_weight(k, phi))[2]
    assert np.allclose(q, e.gamma * np.exp(4 * phi / 15.0**2) * p, rtol=1e-12)
    q_inf = eos.closure(INF, e, p)[2]
    assert np.allclose(q_inf, e.gamma * p, rtol=1e-12)


def test_family_convergence_rates():
    e = eos.PolytropicEos(a1=0.3)
    slopes = eos.rate_check(e, (0.9, 1.1), (0.5, 1.5), [10, 20, 40, 80, 160])
    for name, slope in slopes.items():
        assert slope <= -1.9, name


def test_lorentz_factor():
    v = np.zeros((3, 4))
    assert np.allclose(eos.lorentz_factor_sq(eos.PhysicalConstants(c=10.0), v), 1.0)
    v[0] = 6.0
    g2 = eos.lorentz_factor_sq(eos.PhysicalConstants(c=10.0), v)
    assert np.allclose(g2, 100.0 / 64.0)
    assert np.all(eos.lorentz_factor_sq(INF, v) == 1.0)
    v[1, 2] = 1.0  # the fastest point names itself, as plain ints
    with pytest.raises(ValueError, match=r"superluminal velocity at grid point \(2,\)$"):
        eos.lorentz_factor_sq(eos.PhysicalConstants(c=5.0), v)


def test_coefficients_match_the_closure():
    # every field of the record equals its formula from the EOS primitives
    e = eos.PolytropicEos(a1=0.3)
    rng = np.random.default_rng(4)
    eta = rng.uniform(0.5, 1.5, 6)
    p = rng.uniform(0.5, 1.5, 6)
    v = rng.uniform(-0.5, 0.5, (3, 6))
    phi = rng.uniform(-1.0, 0.0, 6)
    for k in (eos.PhysicalConstants(c=10.0), INF):
        icc = k.inv_c_sq
        big_p = np.exp(4.0 * phi * icc) * p
        w = np.concatenate([eta[None], big_p[None], v])
        co = eos.coefficients(k, e, w, phi if k.finite_c else None)
        p_back = eos.pull_back_pressure(k, phi, big_p)
        assert np.array_equal(co.p, p_back if k.finite_c else big_p)
        assert np.allclose(co.p, p, rtol=1e-14, atol=0)
        assert np.array_equal(co.big_p, big_p)
        assert np.array_equal(co.v, v)
        weight = eos.potential_weight(k, phi)
        assert np.array_equal(co.q, eos.closure(k, e, co.p, weight)[2])
        assert np.array_equal(co.ssq, eos.closure(k, e, co.p)[1])
        assert np.array_equal(co.gam2, eos.lorentz_factor_sq(k, v))
        rho = eos.mass_density(k, e, co.p)
        assert np.array_equal(co.r, np.exp(4.0 * phi * icc) * rho)
        assert np.array_equal(co.alpha, co.gam2 * (co.r + icc * big_p))
    assert np.array_equal(co.alpha, co.r)  # at c = inf
    with pytest.raises(ValueError, match="potential"):
        eos.coefficients(eos.PhysicalConstants(c=10.0), e, w)


def test_closure_raises_on_causality_for_every_field():
    # gamma = 3 at large p: s_c**2 tends to (gamma - 1) c**2 > c**2
    e = eos.PolytropicEos(gamma=3.0)
    k = eos.PhysicalConstants(c=1.0)
    for fn in (eos.mass_density, eos.closure):
        with pytest.raises(ValueError, match="non-causal"):
            fn(k, e, 1e6)
    assert eos.mass_density(INF, e, 1e6) > 0


def test_causality_error_names_the_grid_point():
    # on a field the message names the point of the largest s_c**2 (two
    # points are non-causal here); a scalar keeps the bare message
    e = eos.PolytropicEos(gamma=3.0)
    k = eos.PhysicalConstants(c=1.0)
    message = "^sound speed reached the light speed: non-causal state"
    p = np.full((4, 5, 6), 0.1)
    p[3, 0, 0] = 1e5
    p[1, 2, 3] = 1e6
    with pytest.raises(ValueError, match=message + r" at grid point \(1, 2, 3\)$"):
        eos.closure(k, e, p)
    with pytest.raises(ValueError, match=message + "$"):
        eos.closure(k, e, 1e6)


def test_background_potential_limit_closed_form():
    k = eos.PhysicalConstants(grav_g=0.05, kappa=1.0)
    e = eos.PolytropicEos()
    expect = -4.0 * math.pi * 0.05 * 1.0
    assert eos.background_potential(k, e, 1.0) == pytest.approx(expect, rel=1e-14)


def test_background_potential_finite_c_residual():
    e = eos.PolytropicEos()
    for c in (10.0, 40.0, 160.0):
        k = eos.PhysicalConstants(grav_g=0.05, kappa=1.3, c=c)
        phi = eos.background_potential(k, e, 1.0)
        rho = eos.mass_density(k, e, 1.0)
        res = k.kappa**2 * phi + 4 * math.pi * k.grav_g * math.exp(
            4 * phi / c**2) * (rho - 3.0 / c**2)
        assert abs(res) <= 1e-12
        assert phi < 0


def test_background_potential_strong_gravity():
    # |phi_bar| ~ 1e4: |F| <= BACKGROUND_TOL is out of reach in floating
    # point, and the iteration stops at roundoff instead of raising
    e = eos.PolytropicEos()
    k = eos.PhysicalConstants(grav_g=1e4, kappa=1.0, c=160.0)
    phi = eos.background_potential(k, e, 1.0)
    rho = eos.mass_density(k, e, 1.0)
    res = k.kappa**2 * phi + 4 * math.pi * k.grav_g * math.exp(
        4 * phi / k.c**2) * (rho - 3.0 / k.c**2)
    assert phi < 0
    assert abs(res) <= 1e-15 * abs(phi)


def test_background_potential_gap_rate():
    e = eos.PolytropicEos()
    cs = [10, 20, 40, 80, 160]
    inf_consts = eos.PhysicalConstants(grav_g=0.05)
    phi_inf = eos.background_potential(inf_consts, e, 1.0)
    gaps = []
    for c in cs:
        k = eos.PhysicalConstants(grav_g=0.05, c=float(c))
        gaps.append(abs(eos.background_potential(k, e, 1.0) - phi_inf))
    slope = np.polyfit(np.log(cs), np.log(gaps), 1)[0]
    assert slope == pytest.approx(-2.0, abs=0.05)


@pytest.mark.parametrize("a1, constant", [(0.0, 2.83577), (1.0, 3.14993)],
                         ids=["a1=0", "a1=1"])
def test_background_gap_first_post_newtonian_constant(a1, constant):
    # expanding F(phi) = kappa**2 phi + 4 pi G exp(4 phi/c**2) (rho_c(p_bar)
    # - 3 p_bar/c**2) = 0 to first order in c**-2 about phi_inf gives
    #   c**2 (phi_c - phi_inf) -> -(4 pi G / kappa**2) (weight + internal
    #                              + entropy + pressure_source)
    # with rho_inf = m0 (p_bar / A_inf)**(1/gamma) and the terms below
    g, kap, p_bar, c = 0.05, 1.0, 1.0, 640.0
    e = eos.PolytropicEos(a1=a1)
    rho_inf = e.m0 * (p_bar / e.a_inf) ** (1.0 / e.gamma)
    phi_inf = -4.0 * math.pi * g * rho_inf / kap**2
    weight = 4.0 * phi_inf * rho_inf           # exp(4 phi/c**2) about phi_inf
    internal = p_bar / (e.gamma - 1.0)         # p/c**2 part of rho_c
    entropy = -(e.a1 / e.gamma) * rho_inf      # a1/c**2 of A_c in rho_c
    pressure_source = -3.0 * p_bar             # the -3 P/c**2 source
    closed = -(4.0 * math.pi * g / kap**2) * (
        weight + internal + entropy + pressure_source)
    assert closed == pytest.approx(constant, rel=1e-5)
    k = eos.PhysicalConstants(grav_g=g, kappa=kap, c=c)
    inf = eos.PhysicalConstants(grav_g=g, kappa=kap)
    gap = c**2 * (eos.background_potential(k, e, p_bar)
                  - eos.background_potential(inf, e, p_bar))
    assert gap == pytest.approx(closed, rel=1e-4)


def test_parameter_validation():
    with pytest.raises(ValueError):
        eos.PhysicalConstants(kappa=0.0)
    with pytest.raises(ValueError):
        eos.PhysicalConstants(kappa=-1.0)
    with pytest.raises(ValueError):
        eos.PolytropicEos(gamma=1.0)
    with pytest.raises(ValueError):
        eos.PolytropicEos(m0=-1.0)
    k = eos.PhysicalConstants(c=10.0)
    with pytest.raises(ValueError, match="needs the potential"):
        eos.closure(k, eos.PolytropicEos(), 1.0, eos.potential_weight(k, None))
