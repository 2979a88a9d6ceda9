"""Tests for the run loop `stepping.drive`, shared by both systems."""

import math
from dataclasses import replace

import numpy as np
import pytest

from nordlimit import eos
from nordlimit import stepping
from nordlimit import euler_nordstrom as en
from nordlimit import euler_poisson as ep
from nordlimit.fields import Grid3
from nordlimit.initial_data import (PerturbationSpec, build_newtonian_data,
                                    lift_to_relativistic)

G = 0.05
INF = eos.PhysicalConstants(grav_g=G, kappa=1.0, c=math.inf)
BOX = ((0.5, 1.5), (0.5, 1.5))


@pytest.fixture(scope="module")
def grid():
    return Grid3(32, 2.0 * math.pi)


@pytest.fixture(scope="module")
def eosf():
    return eos.PolytropicEos()


def en_state(grid, eosf, c=40.0):
    spec = PerturbationSpec(amp_eta=0.05, amp_p=0.05, amp_v=(0.05, 0.02, 0.01),
                            center=(math.pi,) * 3, width=math.pi / 4)
    b = build_newtonian_data(spec, INF, eosf, grid, admissible_box=BOX)
    return en.from_bundle(lift_to_relativistic(b, eos.PhysicalConstants(grav_g=G, c=c)))


def ep_state(grid, eosf):
    b = build_newtonian_data(PerturbationSpec(amp_eta=0.05, amp_p=0.05,
                                              amp_v=(0.05, 0.0, 0.0)),
                             INF, eosf, grid, admissible_box=BOX)
    return ep.from_bundle(b, INF)


# per system: module, start state, the step function `drive` calls, the
# call that raises and its message
SYSTEMS = {
    "en": (en, en_state, "etd_step", 3,
           "superluminal velocity at grid point (1, 2, 3)"),
    "ep": (ep, ep_state, "step", 1, "nonpositive limit density"),
}


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_run_records_step_failure_as_abort(grid, eosf, monkeypatch, system):
    module, start, attr, fail_at, message = SYSTEMS[system]
    real = getattr(module, attr)
    calls = []

    def failing(state, *args):
        calls.append(state.t)
        if len(calls) == fail_at:
            raise ValueError(message)
        return real(state, *args)

    monkeypatch.setattr(module, attr, failing)
    if system == "en":
        traj = module.run(start(grid, eosf), 0.05, n_outputs=4)
        assert not traj.ok
        assert traj.steps == 2 and len(traj.ts) == 3
        assert "step 3 from t=0.025" in traj.abort_reason
        assert "superluminal velocity at grid point (1, 2, 3)" in traj.abort_reason
    else:
        traj = module.run(start(grid, eosf), 0.05, n_outputs=2)
        assert not traj.ok and traj.steps == 0 and len(traj.ts) == 1
        assert traj.abort_reason == "step 1 from t=0 failed: nonpositive limit density"


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_run_aborts_on_inadmissible_initial_state(grid, eosf, system):
    # eta reaches 1.05 at t = 0, past the 1% margin of (0.99, 1.01)
    module, start = SYSTEMS[system][:2]
    state = start(grid, eosf)
    traj = module.run(state, 0.05, n_outputs=2,
                      eta_box=(0.99, 1.01), p_box=BOX[1])
    assert not traj.ok and traj.steps == 0 and traj.rhs_evals == 0
    assert len(traj.ts) == 1 and traj.ts[0] == 0.0
    assert traj.abort_reason == ("initial state: admissibility margin below 1% "
                                 "of the configured box")
    # the record keeps dt_max, the CFL step of the initial state
    assert traj.dt == 0.5 * grid.h / stepping.fluid_signal_speed(state)


# per system: why a start state with |v| = 1e300 is not admissible
OVERFLOW = {"en": "velocity reached c/2", "ep": "non-finite fluid signal speed"}


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_run_aborts_on_overflowing_signal_speed(grid, eosf, system):
    # |v|**2 overflows, so the signal speed is inf and dt_max is 0: the
    # initial check comes before the dt arithmetic divides by it
    module, start = SYSTEMS[system][:2]
    state = start(grid, eosf)
    w = state.w.copy()
    w[2] = 1e300
    with np.errstate(over="ignore"):
        traj = module.run(replace(state, w=w), 0.05, n_outputs=2)
    assert not traj.ok and traj.steps == 0 and traj.dt == 0.0
    assert traj.abort_reason == "initial state: " + OVERFLOW[system]


def test_run_aborts_on_non_causal_initial_state(grid):
    # gamma = 3 at c = 2: a sound speed past c at the bump's peak only; the
    # run ends before the first step, naming the point, with dt = 0 as when
    # the signal speed is not finite
    state = en_state(grid, eos.PolytropicEos(gamma=3.0), c=2.0)
    w = state.w.copy()
    w[1, 4, 5, 6] = 100.0
    traj = en.run(replace(state, w=w), 0.05, n_outputs=2)
    assert not traj.ok and traj.steps == 0 and traj.dt == 0.0
    assert len(traj.ts) == 1
    assert traj.abort_reason == ("initial state: sound speed reached the "
                                 "light speed: non-causal state at grid "
                                 "point (4, 5, 6)")


def ready(system, grid, eosf):
    """Start state of a system with its potential in place."""
    state = SYSTEMS[system][1](grid, eosf)
    return ep.with_constraint(state) if system == "ep" else state


def fix_dt(monkeypatch, dt_max):
    """Make every signal speed h / dt_max, so that cfl = 1 gives dt_max."""
    monkeypatch.setattr(stepping, "fluid_signal_speed",
                        lambda state: state.grid.h / dt_max)


# per system: the field a step spoils and its name in the abort reason
SPOILED = {"en": ("pi", "pi"), "ep": ("w", "P")}


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_drive_aborts_on_non_finite_step_inside_segment(grid, eosf, system,
                                                        monkeypatch):
    # a 3-step segment whose step 2 leaves a NaN: the run ends at that step,
    # not at the output time after step 3
    attr, name = SPOILED[system]
    calls = []

    def start(state, dt):
        def step(st):
            calls.append(st.t)
            out = replace(st, t=st.t + dt)
            if len(calls) == 2:
                spoiled = getattr(out, attr).copy()
                spoiled[(1,) * spoiled.ndim] = np.nan
                out = replace(out, **{attr: spoiled})
            return out
        return step

    state = ready(system, grid, eosf)
    fix_dt(monkeypatch, 0.01)
    traj = stepping.drive(state, start, 1.0, 0.03, 1)
    assert not traj.ok and len(calls) == 2
    assert traj.steps == 1 and len(traj.ts) == 1
    assert traj.abort_reason == "step 2 from t=0.01 failed: non-finite %s" % name


@pytest.mark.parametrize("dt_max, per_seg, reason", [
    (0.05, 1, "output interval"),
    (0.02, 1, "fluid CFL"),
    (0.02 * (1 + 1e-13), 1, "fluid CFL"),
    (0.0075, 3, "fluid CFL"),
], ids=["longer", "equal", "equal-within-roundoff", "shorter"])
def test_drive_names_output_interval_when_it_sets_dt(grid, eosf, monkeypatch,
                                                     dt_max, per_seg, reason):
    state = ready("ep", grid, eosf)
    fix_dt(monkeypatch, dt_max)
    traj = stepping.drive(state, lambda st, dt: lambda s: replace(s, t=s.t + dt),
                          1.0, 0.04, 2)
    assert traj.ok and traj.steps == 2 * per_seg
    assert traj.dt == pytest.approx(0.02 / per_seg, rel=1e-14)
    assert traj.dt_reason == reason


class Started(Exception):
    pass


def refuse_start(state, dt):
    raise Started


@pytest.mark.parametrize("per_seg, built", [(10, True), (11, False)],
                         ids=["at-ceiling", "above-ceiling"])
def test_drive_refuses_more_than_max_steps_before_the_stepper(
        grid, eosf, monkeypatch, per_seg, built):
    # a ceiling of 40 steps and 4 outputs of per_seg steps each: 40 in all
    # builds the stepper, one step per output more raises a ValueError
    # naming the count first
    monkeypatch.setattr(stepping, "MAX_STEPS", 40)
    state = ready("ep", grid, eosf)
    fix_dt(monkeypatch, 1.0 / per_seg)
    args = (state, refuse_start, 1.0, 4.0, 4)
    if built:
        with pytest.raises(Started):
            stepping.drive(*args)
        return
    with pytest.raises(ValueError, match=r"^output interval 1\.0 over time "
                       r"step .*: %d steps per output times 4 outputs is more "
                       r"than 40 steps$" % per_seg):
        stepping.drive(*args)


def test_drive_aborts_on_non_causal_output(grid):
    # a step that leaves a sound speed past c at one point: the output check
    # records it as the abort reason, not an exception
    state = en_state(grid, eos.PolytropicEos(gamma=3.0), c=2.0)

    def start(state, dt):
        def step(st):
            w = st.w.copy()
            w[1, 1, 2, 3] = 100.0
            return replace(st, w=w, t=st.t + dt)
        return step

    traj = stepping.drive(state, start, 0.5, 0.02, 2)
    assert not traj.ok and traj.steps == 1 and len(traj.ts) == 1
    assert traj.abort_reason == ("sound speed reached the light speed: "
                                 "non-causal state at grid point (1, 2, 3)")


@pytest.mark.parametrize("cfl", [0.0, 1.5, math.nan])
def test_drive_refuses_cfl_outside_unit_interval(grid, eosf, cfl):
    with pytest.raises(ValueError, match=r"^cfl must lie in \(0, 1\]$"):
        stepping.drive(ready("ep", grid, eosf), refuse_start, cfl, 0.04, 2)
