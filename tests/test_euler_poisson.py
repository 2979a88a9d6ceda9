"""Tests for the constrained Newtonian-limit integrator."""

import math
import os
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from nordlimit import eos
from nordlimit import fields
from nordlimit import euler_poisson as ep
from nordlimit.fields import Grid3, read_snapshot
from nordlimit.initial_data import PerturbationSpec, build_newtonian_data

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


def background_state(grid, eosf):
    shape = (grid.n,) * 3
    w = np.zeros((5,) + shape)
    w[0] = 1.0
    w[1] = 1.0
    return ep.NewtState(w=w, t=0.0, consts=INF, eos=eosf, grid=grid,
                        p_bar=1.0)


def perturbed_state(grid, eosf, amp_v=(0.05, 0.02, 0.01)):
    spec = PerturbationSpec(amp_eta=0.05, amp_p=0.05, amp_v=amp_v,
                            center=(math.pi,) * 3, width=math.pi / 4)
    b = build_newtonian_data(spec, INF, eosf, grid, admissible_box=BOX)
    return ep.from_bundle(b, INF)


def test_constraint_background(grid, eosf):
    st = ep.with_constraint(background_state(grid, eosf))
    rho_bar = float(eos.mass_density(INF, eosf, 1.0))
    phi_bar = -4.0 * math.pi * G * rho_bar / INF.kappa**2
    assert np.max(np.abs(st.phi - phi_bar)) <= 1e-13


def test_constraint_single_mode(grid, eosf):
    # choose p so that the limit density is exactly 1 + amp*sin(x); the
    # screened Poisson solve then returns a single analytic mode
    st = background_state(grid, eosf)
    x, _, _ = grid.meshgrid()
    amp = 1e-3
    st = replace(st, w=st.w.copy())
    st.w[1] = eosf.a_inf * ((1.0 + amp * np.sin(x)) / eosf.m0) ** eosf.gamma
    phi = ep.with_constraint(st).phi
    phi_bar = -4.0 * math.pi * G / INF.kappa**2
    expect = phi_bar - 4.0 * math.pi * G * amp * np.sin(x) / (1.0 + INF.kappa**2)
    assert np.max(np.abs(phi - expect)) <= 1e-14


def test_constraint_forward_residual(grid, eosf):
    st = ep.with_constraint(perturbed_state(grid, eosf))
    rho = eos.mass_density(INF, eosf, st.w[1])
    lhs = grid.laplacian(st.phi) - INF.kappa**2 * st.phi
    # the uniform mode closes exactly: -kappa**2 phi_bar = 4 pi G rho_bar
    rhs = 4.0 * math.pi * G * rho
    assert np.max(np.abs(grid.dealias(lhs - rhs))) <= 1e-11


def test_background_fixed_point(grid, eosf):
    st = ep.with_constraint(background_state(grid, eosf))
    assert np.max(np.abs(ep.newtonian_rhs(st))) <= 1e-13


def test_background_drift(grid, eosf):
    st = ep.with_constraint(background_state(grid, eosf))
    w0 = st.w.copy()
    for _ in range(100):
        st = ep.step(st, 0.01)
    assert np.max(np.abs(st.w - w0)) <= 1e-10


def test_dual_formulation(grid, eosf):
    # the pressure-form run and the conservation-form density evolution agree
    st = ep.with_constraint(perturbed_state(grid, eosf))
    r0 = eos.mass_density(INF, eosf, st.w[1])
    wr = np.concatenate([st.w[:1], r0[None], st.w[2:]])
    dt = 0.005
    deriv = lambda y: grid.dealias(
        ep.mass_form_rhs(y, INF, eosf, grid, 1.0))
    for _ in range(20):
        st = ep.step(st, dt)
        k1 = deriv(wr)
        k2 = deriv(wr + 0.5 * dt * k1)
        k3 = deriv(wr + 0.5 * dt * k2)
        k4 = deriv(wr + dt * k3)
        wr = wr + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
    r_from_p = eos.mass_density(INF, eosf, st.w[1])
    assert np.max(np.abs(wr[1] - r_from_p)) <= 1e-6
    assert np.max(np.abs(wr[0] - st.w[0])) <= 1e-6


def test_rk4_self_convergence(grid, eosf):
    base = ep.with_constraint(perturbed_state(grid, eosf))
    t_final = 0.04
    finals = []
    for steps in (16, 32, 64):
        st = base
        dt = t_final / steps
        for _ in range(steps):
            st = ep.step(st, dt)
        finals.append(st.w)
    e1 = np.max(np.abs(finals[0] - finals[1]))
    e2 = np.max(np.abs(finals[1] - finals[2]))
    assert e1 / e2 == pytest.approx(16.0, abs=2.0)


def test_transport_range_preservation(grid, eosf):
    # eta obeys a pure transport equation, so its range cannot grow beyond
    # spectral interpolation error
    st = ep.with_constraint(perturbed_state(grid, eosf))
    top = float(np.max(st.w[0]))
    for _ in range(20):
        st = ep.step(st, 0.005)
    assert float(np.max(st.w[0])) <= top + 1e-5


def test_run_output_times(grid, eosf):
    st = perturbed_state(grid, eosf)
    traj = ep.run(st, 0.05, n_outputs=5, eta_box=BOX[0], p_box=BOX[1])
    assert traj.ok
    assert traj.ts == pytest.approx([0.01 * m for m in range(6)], abs=1e-14)


def test_run_abort_on_box(grid, eosf):
    st = perturbed_state(grid, eosf)
    traj = ep.run(st, 0.05, n_outputs=5, eta_box=(0.99, 1.01), p_box=BOX[1])
    assert not traj.ok
    assert "margin" in traj.abort_reason


def test_rhs_requires_constraint(grid, eosf):
    with pytest.raises(ValueError, match="constraint"):
        ep.newtonian_rhs(background_state(grid, eosf))


def test_solve_and_rhs_read_only_the_cached_density(grid, eosf):
    # the closure is with_constraint's alone: a state with a potential but
    # no density, or no density at all, is refused, not given a closure
    st = ep.with_constraint(background_state(grid, eosf))
    for call in (ep.newtonian_rhs, ep.solve_constraint):
        with pytest.raises(ValueError, match="call with_constraint first"):
            call(replace(st, density=None))


def count_calls(monkeypatch, module, name):
    """Patch module.name to log the shapes of each call's arguments (not
    the arguments, which would stay alive); returns the log."""
    real = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append([np.shape(arg) for arg in args])
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_deriv_evaluates_the_closure_once(grid, eosf, monkeypatch):
    # rho_inf and q_inf of a solved state come from one closure evaluation:
    # `with_constraint` makes it and caches the pair, which `_deriv` reads;
    # the background density, a constant of the run, is evaluated on first
    # use
    st = ep.with_constraint(perturbed_state(grid, eosf))
    ep._deriv(st)
    calls = count_calls(monkeypatch, eos, "closure")
    st = ep.with_constraint(st)
    assert len(calls) == 1
    ep._deriv(st)
    assert len(calls) == 1


def test_step_solves_constraint_per_stage(grid, eosf, monkeypatch):
    # the first stage reuses the potential and density of the step start;
    # the other three stages and the new state each solve the constraint,
    # from the one closure (one power of p) of their own w
    st = ep.with_constraint(perturbed_state(grid, eosf))
    solves = count_calls(monkeypatch, ep, "solve_constraint")
    closures = count_calls(monkeypatch, eos, "closure")
    powers = count_calls(monkeypatch, eos, "_rest_density")
    for _ in range(3):
        st = ep.step(st, 0.01)
    assert len(solves) == len(closures) == 12
    # besides the scalar powers of the background, at p_bar
    assert sum(len(shapes[2]) == 3 for shapes in powers) == 12


# the tracemalloc peak of one 64**3 `step` of the perturbed state, dt =
# 0.02, on two CPUs, as measured for the stage that formed its terms on
# whole arrays and took the closure twice per stage
WHOLE_ARRAY_STEP_PEAK = 94.376e6


def test_step_at_64_cubed_takes_one_closure_per_state(eosf, monkeypatch):
    # on two CPUs the per-point work runs in two x-slabs; the closure is
    # still taken once per solved state, four per step, and the step
    # allocates no more than the whole-array stage did
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    st = ep.with_constraint(perturbed_state(Grid3(64, L), eosf))
    closures = count_calls(monkeypatch, eos, "closure")
    tracemalloc.start()
    try:
        ep.step(st, 0.02)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        fields.stop_transform_threads()
    assert len(closures) == 4
    assert peak <= WHOLE_ARRAY_STEP_PEAK


def test_step_on_four_threads_matches_one_cpu(eosf, monkeypatch):
    # four x-slabs on four threads that switch as often as the interpreter
    # allows give the step of one CPU, bit for bit
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    st = ep.with_constraint(perturbed_state(Grid3(64, L), eosf))
    one = ep.step(st, 0.02)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        four = ep.step(st, 0.02)
    finally:
        sys.setswitchinterval(interval)
        fields.stop_transform_threads()
    for a, b in ((one.w, four.w), (one.phi, four.phi),
                 (one.density[0], four.density[0]),
                 (one.density[1], four.density[1])):
        assert a.tobytes() == b.tobytes()


def _step_solving_every_stage(state, dt):
    """RK4 with the constraint solved and -grad phi applied in physical
    space at every stage."""
    def deriv(st):
        st = ep.with_constraint(st)
        return st.grid.dealias(ep.newtonian_rhs(st))

    k1 = deriv(state)
    k2 = deriv(replace(state, w=state.w + 0.5 * dt * k1, t=state.t + 0.5 * dt))
    k3 = deriv(replace(state, w=state.w + 0.5 * dt * k2, t=state.t + 0.5 * dt))
    k4 = deriv(replace(state, w=state.w + dt * k3, t=state.t + dt))
    out = replace(state, w=state.w + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0,
                  t=state.t + dt)
    return ep.with_constraint(out)


def test_run_ep_snapshot_matches_every_stage_oracle(tmp_path, monkeypatch):
    # the run-ep final snapshot is bit-identical to one stepped with the
    # oracle RK4 written out here
    from nordlimit import cli
    config = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                          "configs", "quick.ini")

    def final_snapshot(name):
        out = tmp_path / name
        assert cli.main(["--config", config, "--out", str(out), "run-ep"]) == 0
        return read_snapshot(str(out / "run_ep_final.nrdf"))[2]

    got = final_snapshot("run_ep")
    monkeypatch.setattr(ep, "step", _step_solving_every_stage)
    assert np.array_equal(got, final_snapshot("every_stage"))
