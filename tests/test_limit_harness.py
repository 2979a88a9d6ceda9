"""Tests for the sweep harness, rate fits, and report emission."""

import concurrent.futures
import json
import math
import multiprocessing
import os
import pickle
import signal
import time
import tracemalloc
import types

import numpy as np
import pytest

from nordlimit import cli
from nordlimit import eos
from nordlimit import euler_nordstrom as en
from nordlimit import fields
from nordlimit import limit_harness as lh
from nordlimit import euler_poisson as ep
from nordlimit.initial_data import build_newtonian_data, lift_to_relativistic


def test_fit_slope_exact_power_law():
    cs = [10.0, 20.0, 40.0, 80.0]
    vals = [3.0 * c**-2 for c in cs]
    slope, resid = lh.fit_slope(cs, vals)
    assert slope == pytest.approx(-2.0, abs=1e-12)
    assert resid <= 1e-12


def test_fit_slope_reports_scatter():
    cs = [10.0, 20.0, 40.0, 80.0]
    vals = [1e-3, 2e-3, 0.5e-3, 1e-3]
    _, resid = lh.fit_slope(cs, vals)
    assert resid > 0.1


def test_config_validation():
    with pytest.raises(ValueError, match="ascending"):
        lh.SweepConfig(c_values=(20.0, 10.0, 40.0)).validate()
    with pytest.raises(ValueError, match="ascending"):
        lh.SweepConfig(c_values=(10.0, 20.0)).validate()
    with pytest.raises(ValueError, match="finite"):
        lh.SweepConfig(c_values=(10.0, 20.0, math.inf)).validate()
    with pytest.raises(ValueError, match="t_final"):
        lh.SweepConfig(t_final=0.0).validate()
    with pytest.raises(ValueError, match="sobolev_order"):
        lh.SweepConfig(sobolev_order=2).validate()
    with pytest.raises(ValueError, match="cfl"):
        lh.SweepConfig(cfl=1.5).validate()
    with pytest.raises(ValueError, match="positive: -1 at c = 1$"):
        lh.SweepConfig(c_values=(1.0, 20.0, 40.0)).validate()
    # a p_bar <= 0 is named by the data's admissible-box check
    with pytest.raises(ValueError, match="initial p leaves the admissible box"):
        lh.SweepConfig(p_bar=-1.0).validate().make_bundle()


def quiet_config():
    return lh.SweepConfig(n=16, amp_eta=0.0, amp_p=0.0, amp_v=(0.0, 0.0, 0.0),
                          c_values=(10.0, 20.0, 40.0), t_final=0.05,
                          n_outputs=5)


def test_quiet_sweep_reduces_to_background_gap():
    # with zero perturbation both systems sit on their uniform backgrounds:
    # the fluid and potential deviations stay at roundoff and only the
    # constant background potentials differ, at second order in 1/c
    result = lh.run_sweep(quiet_config())
    report = result.report
    assert max(report.sup_w) <= 1e-9
    assert max(report.sup_phi) <= 1e-9
    assert report.slope_gap == pytest.approx(-2.0, abs=0.05)
    assert all(b < a for a, b in zip(report.phi_bar_gap,
                                     report.phi_bar_gap[1:]))


def test_emit_report_format(tmp_path):
    report = lh.RateReport(c_values=[10.0, 20.0, 40.0],
                           sup_w=[4e-3, 1e-3, 2.5e-4],
                           sup_phi=[4e-4, 1e-4, 2.5e-5],
                           phi_bar_gap=[4e-2, 1e-2, 2.5e-3]).fit()
    csv_path, summary_path = lh.emit_report(report, tmp_path)
    with open(csv_path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "c,supWdiff,supPhidiff,phiBarGap"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 10.0 and float(first[1]) == 4e-3
    with open(summary_path) as fh:
        summary = fh.read()
    assert "PASS" in summary


def test_emit_report_deterministic(tmp_path):
    report = lh.RateReport(c_values=[10.0, 20.0, 40.0],
                           sup_w=[4e-3, 1e-3, 2.5e-4],
                           sup_phi=[4e-4, 1e-4, 2.5e-5],
                           phi_bar_gap=[4e-2, 1e-2, 2.5e-3]).fit()
    d1, d2 = tmp_path / "a", tmp_path / "b"
    p1, _ = lh.emit_report(report, d1)
    p2, _ = lh.emit_report(report, d2)
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()


def test_emit_report_threshold_fail(tmp_path):
    report = lh.RateReport(c_values=[10.0, 20.0, 40.0],
                           sup_w=[1e-3, 1e-3, 1e-3],
                           sup_phi=[1e-4, 1e-4, 1e-4],
                           phi_bar_gap=[4e-2, 1e-2, 2.5e-3]).fit()
    _, summary_path = lh.emit_report(report, tmp_path)
    with open(summary_path) as fh:
        assert "FAIL" in fh.read()


def test_limit_trajectory_residual_floor():
    # on a limit-system trajectory the elliptic residual is exactly the
    # constraint and sits at roundoff
    cfg = lh.SweepConfig(n=16, c_values=(10.0, 20.0, 40.0), t_final=0.05,
                         n_outputs=5)
    grid = cfg.make_grid()
    eosf = cfg.make_eos()
    consts_inf = cfg.consts(math.inf)
    bundle = build_newtonian_data(cfg.make_perturbation(), consts_inf, eosf,
                                  grid, admissible_box=(cfg.eta_box, cfg.p_box))
    traj = ep.run(ep.from_bundle(bundle, consts_inf), cfg.t_final,
                  n_outputs=cfg.n_outputs, eta_box=cfg.eta_box, p_box=cfg.p_box)
    assert traj.ok
    _, sup_e2 = lh.approximate_solution_residuals(
        traj, bundle.phi_inf, bundle.w_inf, consts_inf, eosf, grid,
        cfg.sobolev_order)
    assert sup_e2 <= 1e-9


def test_residuals_on_two_cpus_match_one(monkeypatch):
    # the per-output norms run in two forked workers or in this process;
    # the sups are the same bit for bit
    cfg = quiet_config()
    cfg.amp_eta = cfg.amp_p = 0.05
    bundle = cfg.make_bundle()
    consts = cfg.consts(20.0)
    lifted = lift_to_relativistic(bundle, consts)
    traj = en.run(en.from_bundle(lifted), cfg.t_final, n_outputs=cfg.n_outputs)
    sups = []
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        sups.append(lh.approximate_solution_residuals(
            traj, lifted.phi_c, bundle.w_inf, consts, bundle.eos, bundle.grid,
            cfg.sobolev_order))
    assert sups[0] == sups[1]
    assert all(s > 0 for s in sups[0])


def limit_state_n16():
    """The limit state of the n=16 sweep data, with its potential solved."""
    cfg = lh.SweepConfig(n=16)
    consts_inf = cfg.consts(math.inf)
    bundle = build_newtonian_data(cfg.make_perturbation(), consts_inf,
                                  cfg.make_eos(), cfg.make_grid(),
                                  admissible_box=(cfg.eta_box, cfg.p_box))
    return ep.with_constraint(ep.from_bundle(bundle, consts_inf))


def test_newtonian_operator_residual_zero_on_rhs():
    # feeding the system's own right-hand side as the time derivative makes
    # the operator residual vanish identically
    st = limit_state_n16()
    dt_w = ep.newtonian_rhs(st)
    res = lh.newtonian_operator_residual(st, dt_w)
    # velocity rows are scaled by the density, hence the loose absolute tol
    assert np.max(np.abs(res)) <= 1e-12


def test_newtonian_operator_residual_is_momentum_form():
    # on a time derivative that is not the right-hand side, the residual is
    # the limit operator written out in momentum form, the velocity rows
    # scaled by the density: a wrong row scale shows here, not on the RHS
    st = limit_state_n16()
    grid, w, phi = st.grid, st.w, st.phi
    dt_w = np.random.default_rng(5).normal(size=w.shape)
    v = w[2:]
    r_inf = eos.mass_density(st.consts, st.eos, w[1])
    q_inf = eos.closure(st.consts, st.eos, w[1])[2]
    dw = grid.gradient(w)
    deta, dp, dv = dw[0], dw[1], dw[2:]
    adv = lambda grad: np.einsum("k...,k...->...", v, grad)
    oracle = np.empty_like(w)
    oracle[0] = dt_w[0] + adv(deta)
    oracle[1] = dt_w[1] + adv(dp) + q_inf * (dv[0, 0] + dv[1, 1] + dv[2, 2])
    oracle[2:] = (r_inf * (dt_w[2:] + np.einsum("k...,jk...->j...", v, dv))
                  + dp + r_inf * grid.gradient(phi))
    res = lh.newtonian_operator_residual(st, dt_w)
    assert np.max(np.abs(res - oracle)) <= 1e-13 * np.max(np.abs(oracle))


def test_quick_sweep_gaps_match_rk4_oracle(monkeypatch):
    # every per-c gap of configs/quick.ini within 1% of the same sweep with
    # classical RK4 (`en.step`) at the wave CFL step h / (2 c)
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "quick.ini")
    config = cli.sweep_config_from(cli.parse_config(path))
    report = lh.run_sweep(config).report

    def rk4_stepper(state, dt):
        sub = math.ceil(dt / (0.5 * state.grid.h / state.consts.c) - 1e-12)

        def advance(st):
            for _ in range(sub):
                st = en.step(st, dt / sub)
            return st
        return advance

    monkeypatch.setattr(en, "EtdStepper", rk4_stepper)
    oracle = lh.run_sweep(config).report
    for key in ("sup_w", "sup_phi", "phi_bar_gap"):
        got, want = np.array(getattr(report, key)), np.array(getattr(oracle, key))
        assert np.max(np.abs(got - want) / want) <= 1e-2


def test_slow_sound_sweep_runs_share_one_time_grid():
    # a fluid signal speed of about 0.7: the fluid CFL step is longer than
    # the one output interval of 0.2, so the limit run and every rung take
    # one step of it, and no rung's gap carries a time error the limit run
    # does not
    config = lh.SweepConfig(n=16, p_bar=0.05, p_box=(0.01, 0.1), amp_eta=0.02,
                            amp_p=0.02, amp_v=(0.02, 0.0, 0.0),
                            c_values=(10.0, 20.0, 40.0), t_final=0.2,
                            n_outputs=1)
    runs = lh.run_sweep(config).runs
    assert sorted(runs) == [10.0, 20.0, 40.0, math.inf]
    assert {(r["dt"], r["steps"]) for r in runs.values()} == {(0.2, 1)}


def test_etd_rung_is_asymptotic_preserving():
    # at c = 1e8 on the limit run's time grid, the pulled-back rung is the
    # limit run to roundoff at every output, while w moves by about 0.44 in
    # H^3 over the run: the stepper needs no step that resolves c
    config = lh.SweepConfig(n=16)
    bundle = config.make_bundle()
    grid, consts = bundle.grid, config.consts(1e8)
    limit = ep.run(ep.from_bundle(bundle, config.consts(math.inf)),
                   config.t_final, **config.run_args())
    lifted = lift_to_relativistic(bundle, consts)
    traj = en.run(en.from_bundle(lifted), config.t_final, **config.run_args())
    assert limit.ok and traj.ok and limit.steps == traj.steps == 20
    assert grid.sobolev_norm(limit.ws[-1] - limit.ws[0], 3) >= 0.1
    for w, phi, w_inf in zip(traj.ws, traj.phis, limit.ws):
        assert grid.sobolev_norm(w_inf - en.pull_back(w, phi, consts), 3) <= 1e-9


class InlineFuture:
    """A job of InlinePool, run when its result is taken."""

    def __init__(self, fn, item):
        self.fn, self.item = fn, item

    def result(self):
        return self.fn(self.item)

    def cancel(self):
        return False


class InlinePool:
    """Stand-in for ProcessPoolExecutor that runs each job in this process
    when its result is taken (a rung waits for the limit run, which runs
    after the submits), and records its worker count and submission order."""

    made = []

    def __init__(self, max_workers, mp_context=None):
        self.max_workers = max_workers
        self.submitted = []
        InlinePool.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, c):
        self.submitted.append(c)
        return InlineFuture(fn, c)


@pytest.mark.parametrize("cpus, workers", [(8, 3), (2, 2), (1, 1)])
def test_rung_workers_capped_by_rungs_and_cpus(monkeypatch, cpus, workers):
    # the pool gets min(rungs, usable CPUs) workers and the rungs in ladder
    # order; checked with an inline pool, so no process is started
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    InlinePool.made = []
    result = lh.run_sweep(quiet_config())
    assert multiprocessing.active_children() == []
    if workers == 1:
        assert InlinePool.made == []
    else:
        [pool] = InlinePool.made
        assert pool.max_workers == workers
        assert pool.submitted == [10.0, 20.0, 40.0]
    assert list(result.runs) == [math.inf, 10.0, 20.0, 40.0]
    assert result.report.c_values == [10.0, 20.0, 40.0]


def test_sweep_memory_does_not_grow_with_outputs(monkeypatch):
    # on one CPU the limit run, then each rung, runs here: the limit outputs
    # go to the shared mapping, which tracemalloc does not see, and a rung
    # drops each state at its gaps, so 40 outputs peak less than one state
    # (7 fields of 16**3) above 5
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    config = quiet_config()
    config.amp_eta = config.amp_p = 0.05
    peaks = []
    for outputs in (5, 40):
        config.n_outputs = outputs
        tracemalloc.start()
        try:
            lh.run_sweep(config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 7 * 16**3 * 8


def test_parallel_sweep_matches_in_process_sweep(monkeypatch):
    # forked workers return the same gaps, bit for bit, and the same run
    # records but for their wall times and peak resident memory
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    parallel = lh.run_sweep(quiet_config())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    serial = lh.run_sweep(quiet_config())
    for key in ("sup_w", "sup_phi", "phi_bar_gap"):
        assert getattr(parallel.report, key) == getattr(serial.report, key)

    def timeless(result):
        return [(c, {key: value for key, value in record.items()
                     if key not in ("wall_s", "peak_rss_mb")})
                for c, record in result.runs.items()]

    assert timeless(parallel) == timeless(serial)
    assert list(serial.runs) == [math.inf, 10.0, 20.0, 40.0]


# a 64**3 grid, where the grid transforms fan out over threads; one step
# per run.  That is too short a time for the potential slope, so its sweep
# ends with exit 2 (the rate thresholds fail) after writing its report.
FAN_OUT = """
[grid]
n = 64

[run]
t_final = 0.01
n_outputs = 1

[sweep]
c_values = 10,20,40
"""


def run_cli(tmp_path, name, command, cpus, monkeypatch, code=0):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    path = tmp_path / "fan_out.ini"
    path.write_text(FAN_OUT)
    out = tmp_path / name
    assert cli.main(["--config", str(path), "--out", str(out), command]) == code
    return out


def test_run_ep_on_two_cpus_matches_one_cpu(tmp_path, monkeypatch):
    # on three CPUs the x-slabs of the limit stage are uneven (21, 21 and
    # 22 planes)
    outs = [run_cli(tmp_path, "cpus%d" % cpus, "run-ep", cpus, monkeypatch)
            for cpus in (1, 2, 3)]
    for cpus, out in enumerate(outs, 1):
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["transform_threads"] == cpus
        for name in ("run_ep_final.nrdf", "run_ep_diagnostics.csv"):
            assert (out / name).read_bytes() == (outs[0] / name).read_bytes()


def test_run_ep_slab_error_aborts_alike_on_one_and_two_cpus(tmp_path,
                                                            monkeypatch):
    # the first stage state gets a zero density in its last x-slab: the
    # ValueError of that slab's task ends run-ep with the same abort record
    # and the same outputs on one CPU as on two
    real = ep._limit_density

    def zero_in_last_slab(state):
        r_inf, q_inf = real(state)
        if state.t > 0:
            r_inf = r_inf.copy()
            r_inf[-1, 0, 0] = 0.0
        return r_inf, q_inf

    monkeypatch.setattr(ep, "_limit_density", zero_in_last_slab)
    outs = [run_cli(tmp_path, "cpus%d" % cpus, "run-ep", cpus, monkeypatch,
                    code=2) for cpus in (1, 2)]
    for out in outs:
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["abort_reason"] == ("step 1 from t=0 failed: "
                                            "nonpositive limit density")
    for name in ("run_ep_final.nrdf", "run_ep_diagnostics.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_forked_sweep_after_thread_pool_matches_one_cpu(tmp_path, monkeypatch):
    # three CPUs: the sweep forks three rung workers, each of which builds
    # its own three-thread pool, and then the limit run fans out over three
    # threads in this process
    three = run_cli(tmp_path, "three", "sweep", 3, monkeypatch, code=2)
    assert fields._pool[:2] == (os.getpid(), 3)
    fields.stop_transform_threads()
    one = run_cli(tmp_path, "one", "sweep", 1, monkeypatch, code=2)
    assert multiprocessing.active_children() == []
    for name in ("rates.csv", "summary.txt"):
        assert (three / name).read_bytes() == (one / name).read_bytes()


class Timeout(Exception):
    pass


def _sweep_within(seconds, config):
    """run_sweep(config), failed with Timeout after seconds: a worker left
    waiting would hang the sweep.  The workers are killed on a timeout."""
    def expire(signum, frame):
        raise Timeout("sweep still running after %d s" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return lh.run_sweep(config)
    except Timeout:
        for child in multiprocessing.active_children():
            child.kill()
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_aborted_limit_run_ends_forked_sweep(monkeypatch):
    # the rung workers run while the limit run aborts in this process: the
    # sweep raises SweepAborted, and no worker is left waiting for it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def failing(state, dt):
        raise ValueError("nonpositive limit density")

    monkeypatch.setattr(ep, "step", failing)
    with pytest.raises(lh.SweepAborted) as info:
        _sweep_within(60, quiet_config())
    assert str(info.value) == ("limit-system run aborted: step 1 from t=0 "
                               "failed: nonpositive limit density")
    assert list(info.value.result.runs) == [math.inf]
    assert multiprocessing.active_children() == []


def test_limit_outputs_release_rungs_one_by_one(monkeypatch, tmp_path):
    # the limit run fails at its step 3, after publishing outputs 0 to 2:
    # every rung takes its gaps at those, and its wait for output 3 raises
    # once the limit run has ended, which stops the rung there: no rung is
    # left waiting, and none steps on past its step 3
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    calls = []
    real_step, real_wait = ep.step, lh.LimitOutputs.wait_for
    real_etd_step = en.etd_step
    waits, steps = tmp_path / "waits", tmp_path / "steps"

    def failing(state, dt):
        calls.append(state.t)
        if len(calls) == 3:
            raise ValueError("nonpositive limit density")
        return real_step(state, dt)

    def logged(self, m):
        # one line per wait, appended from whichever process waits: 1 if
        # output m was published, 0 if the wait raised
        published = 0
        try:
            real_wait(self, m)
            published = 1
        finally:
            with open(waits, "a") as fh:
                fh.write("%d %d\n" % (m, published))

    def counted(state, stepper):
        # one line per rung step, with the rung's c
        with open(steps, "a") as fh:
            fh.write("%g\n" % state.consts.c)
        return real_etd_step(state, stepper)

    monkeypatch.setattr(ep, "step", failing)
    monkeypatch.setattr(lh.LimitOutputs, "wait_for", logged)
    monkeypatch.setattr(en, "etd_step", counted)
    with pytest.raises(lh.SweepAborted) as info:
        _sweep_within(60, quiet_config())
    assert str(info.value) == ("limit-system run aborted: step 3 from t=0.02 "
                               "failed: nonpositive limit density")
    assert multiprocessing.active_children() == []
    logged_waits = sorted(tuple(map(int, line.split()))
                          for line in waits.read_text().splitlines())
    # three rungs, each waiting once at outputs 0 to 3 and nowhere else
    assert logged_waits == sorted([(m, int(m < 3)) for m in range(4)] * 3)
    # each of the three rungs stopped after 3 of its 5 steps
    assert sorted(steps.read_text().split()) == sorted(["10", "20", "40"] * 3)


def test_limit_outputs_stress_more_waiters_than_cores():
    # four forked waiters, more than the cores of a small host, and one
    # output published every millisecond: each waiter must see every output
    # m whole (w all m, phi all -m), woken by its publication alone (the run
    # is ended only after the joins), so a lost wake-up leaves a waiter
    # alive at its join
    outputs = 40
    limit = lh.LimitOutputs(outputs, 2)

    def waiter():
        ok = True
        for m in range(outputs):
            limit.wait_for(m)
            ok = ok and np.all(limit.ws[m] == m) and np.all(limit.phis[m] == -m)
        os._exit(0 if ok else 1)

    ctx = multiprocessing.get_context("fork")
    procs = [ctx.Process(target=waiter) for _ in range(4)]
    for proc in procs:
        proc.start()
    try:
        for m in range(outputs):
            time.sleep(0.001)
            limit.publish(types.SimpleNamespace(
                w=np.full((5, 2, 2, 2), float(m)),
                phi=np.full((2, 2, 2), -float(m))))
        for proc in procs:
            proc.join(30)
        assert [proc.exitcode for proc in procs] == [0] * 4
    finally:
        limit.end()
        for proc in procs:
            if proc.is_alive():
                proc.kill()
    # past the end of the ended run, a wait raises at once, and its error
    # crosses a process boundary with its message
    with pytest.raises(lh.LimitRunEnded) as info:
        limit.wait_for(outputs)
    assert str(pickle.loads(pickle.dumps(info.value))) == (
        "the limit run ended before output %d" % outputs)


def test_raising_limit_run_ends_forked_sweep(monkeypatch):
    # an exception that escapes the limit run is raised by the sweep, and
    # no worker is left waiting for the limit outputs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def raising(*args, **kwargs):
        raise RuntimeError("limit run failed")

    monkeypatch.setattr(ep, "run", raising)
    with pytest.raises(RuntimeError, match="limit run failed"):
        _sweep_within(60, quiet_config())
    assert multiprocessing.active_children() == []
