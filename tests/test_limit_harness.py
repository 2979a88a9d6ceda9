"""Tests for the sweep harness, rate fits, and report emission."""

import concurrent.futures
import json
import math
import multiprocessing
import os
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
    res = lh.newtonian_operator_residual(st.w, dt_w, st.phi, st.consts,
                                         st.eos, st.grid)
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
    res = lh.newtonian_operator_residual(w, dt_w, phi, st.consts, st.eos, grid)
    assert np.max(np.abs(res - oracle)) <= 1e-13 * np.max(np.abs(oracle))


def test_quick_sweep_gaps_match_rk4_oracle(monkeypatch):
    # every per-c gap of configs/quick.ini within 1% of the same sweep with
    # classical RK4 (`en.step`) at the wave CFL step h / (2 c)
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "quick.ini")
    config = cli.sweep_config_from(cli.parse_config(path))
    report = lh.run_sweep(config, keep_trajectories=False).report

    def rk4_stepper(state, dt):
        sub = math.ceil(dt / (0.5 * state.grid.h / state.consts.c) - 1e-12)

        def advance(st):
            for _ in range(sub):
                st = en.step(st, dt / sub)
            return st
        return advance

    monkeypatch.setattr(en, "EtdStepper", rk4_stepper)
    oracle = lh.run_sweep(config, keep_trajectories=False).report
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
    runs = lh.run_sweep(config, keep_trajectories=False).runs
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
    result = lh.run_sweep(quiet_config(), keep_trajectories=False)
    assert multiprocessing.active_children() == []
    if workers == 1:
        assert InlinePool.made == []
    else:
        [pool] = InlinePool.made
        assert pool.max_workers == workers
        assert pool.submitted == [10.0, 20.0, 40.0]
    assert list(result.runs) == [math.inf, 10.0, 20.0, 40.0]
    assert result.report.c_values == [10.0, 20.0, 40.0]
    assert result.en_trajs == {} and result.en_bundles == {}


def test_sweep_memory_does_not_grow_with_outputs(monkeypatch):
    # on one CPU the limit run, then each rung, runs here: the limit outputs
    # go to the shared mapping, which tracemalloc does not see, and a rung
    # drops each state at its gaps, so 40 outputs peak less than one state
    # (7 fields of 16**3) above 5
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    config = quiet_config()
    config.amp_eta = config.amp_p = 0.05
    peaks, reports = [], []
    for outputs in (5, 40):
        config.n_outputs = outputs
        tracemalloc.start()
        try:
            reports.append(lh.run_sweep(config, keep_trajectories=False).report)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 7 * 16**3 * 8
    # the gaps taken output by output do not depend on keeping the runs
    kept = lh.run_sweep(config, keep_trajectories=True)
    assert len(kept.ep_traj.ws) == len(kept.en_trajs[10.0].ws) == 41
    for key in ("sup_w", "sup_phi", "phi_bar_gap"):
        assert getattr(kept.report, key) == getattr(reports[1], key)


def test_parallel_sweep_matches_in_process_sweep(monkeypatch):
    # forked workers return the same gaps, bit for bit, and the kept
    # trajectories and lifted bundles
    parallel = lh.run_sweep(quiet_config())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    serial = lh.run_sweep(quiet_config())
    for key in ("sup_w", "sup_phi", "phi_bar_gap"):
        assert getattr(parallel.report, key) == getattr(serial.report, key)
    assert sorted(parallel.en_trajs) == [10.0, 20.0, 40.0]
    for c, traj in serial.en_trajs.items():
        other = parallel.en_trajs[c]
        assert other.ts == traj.ts
        assert all(np.array_equal(a, b) for a, b in zip(other.ws, traj.ws))
        assert parallel.en_bundles[c].phi_bar_c == serial.en_bundles[c].phi_bar_c


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
    one = run_cli(tmp_path, "one", "run-ep", 1, monkeypatch)
    two = run_cli(tmp_path, "two", "run-ep", 2, monkeypatch)
    for out, threads in ((one, 1), (two, 2)):
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["transform_threads"] == threads
    for name in ("run_ep_final.nrdf", "run_ep_diagnostics.csv"):
        assert (one / name).read_bytes() == (two / name).read_bytes()


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
        return lh.run_sweep(config, keep_trajectories=False)
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
    # every rung takes its gaps at those, and its wait for output 3 and on
    # ends with the limit run, so no rung is left waiting
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    calls = []
    real_step, real_wait = ep.step, lh.LimitOutputs.wait_for
    log = tmp_path / "waits"

    def failing(state, dt):
        calls.append(state.t)
        if len(calls) == 3:
            raise ValueError("nonpositive limit density")
        return real_step(state, dt)

    def logged(self, m):
        # one line per wait, appended from whichever process waits
        published = real_wait(self, m)
        with open(log, "a") as fh:
            fh.write("%d %d %d\n" % (os.getpid(), m, published))
        return published

    monkeypatch.setattr(ep, "step", failing)
    monkeypatch.setattr(lh.LimitOutputs, "wait_for", logged)
    with pytest.raises(lh.SweepAborted) as info:
        _sweep_within(60, quiet_config())
    assert str(info.value) == ("limit-system run aborted: step 3 from t=0.02 "
                               "failed: nonpositive limit density")
    assert multiprocessing.active_children() == []
    waits = sorted(tuple(map(int, line.split()))[1:]
                   for line in log.read_text().splitlines())
    # three rungs, each waiting once at each of its six outputs
    assert waits == sorted([(m, int(m < 3)) for m in range(6)] * 3)


def test_limit_outputs_stress_more_waiters_than_cores():
    # four forked waiters, more than the cores of a small host, and one
    # output published every millisecond: each waiter must see every output
    # m whole (w all m, phi all -m), woken by its publication alone (the run
    # is ended only after the joins), so a lost wake-up leaves a waiter
    # alive at its join
    outputs = 40
    limit = lh.LimitOutputs(outputs, 2)

    def waiter():
        ok = all(limit.wait_for(m) and np.all(limit.ws[m] == m)
                 and np.all(limit.phis[m] == -m) for m in range(outputs))
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
