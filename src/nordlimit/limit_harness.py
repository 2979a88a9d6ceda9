"""The main experiment: sweep the light speed and fit convergence rates.

One Euler-Poisson run and one finite-c run per sweep value start from
matched data; at matched output times the finite-c solution is pulled back
to limit variables (eta, exp(-4 phi/c**2) P, v) and compared in discrete
Sobolev norms.  The report records, per c,

    supWdiff   = sup_t | w_limit - w_c |_{H^(N-1)},
    supPhidiff = sup_t | (phi_limit - phibar_limit) - (phi_c - phibar_c) |_{H^(N+1) proxy},
    phiBarGap  = | phibar_limit - phibar_c |,

with least-squares log-log slopes.  The H^(N+1) figure is a proxy: it
applies spectral derivatives of order up to N+1 to the stored potential
fields, which is well-defined on the band-limited grid representation but
is not a claim about continuum H^(N+1) control.
"""

import errno
import itertools
import math
import mmap
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import eos as eos_mod
from . import euler_nordstrom as en
from . import euler_poisson as ep
from . import fields
from . import initial_data
from . import stepping
from .eos import fit_slope


@dataclass
class SweepConfig:
    """Everything needed to reproduce the sweep."""

    n: int = 32
    length: float = 2.0 * math.pi
    grav_g: float = 0.05
    kappa: float = 1.0
    m0: float = 1.0
    gamma: float = 2.0
    a_inf: float = 1.0
    a1: float = 0.0
    eta_bar: float = 1.0
    p_bar: float = 1.0
    amp_eta: float = 0.05
    amp_p: float = 0.05
    amp_v: tuple = (0.05, 0.0, 0.0)
    center: tuple = (math.pi, math.pi, math.pi)
    width: float = math.pi / 4.0
    c_values: tuple = (10.0, 20.0, 40.0, 80.0, 160.0)
    t_final: float = 0.2
    cfl: float = 0.5
    sobolev_order: int = 4
    n_outputs: int = 20
    mollify_eps: float = 0.2
    eta_box: tuple = (0.5, 1.5)
    p_box: tuple = (0.5, 1.5)

    def validate(self):
        for name, value in vars(self).items():
            if not all(map(math.isfinite, value if isinstance(value, tuple)
                           else (value,))):
                raise ValueError("%s must be finite, got %r" % (name, value))
        cs = list(self.c_values)
        if len(cs) < 3 or cs[0] <= 0 or any(b <= a for a, b in zip(cs, cs[1:])):
            raise ValueError("c_values must be positive and ascending with >= 3 "
                             "entries")
        if not self.t_final > 0:
            raise ValueError("t_final must be positive")
        if not self.mollify_eps >= 0:
            raise ValueError("mollify_eps must be >= 0")
        # a wider Gaussian damps every nonzero mode below exp(-2 pi**2)
        if self.mollify_eps > self.length > 0:  # length <= 0: the grid's error
            raise ValueError("mollify_eps must be <= length (%g)" % self.length)
        if self.n_outputs < 1:
            raise ValueError("n_outputs must be >= 1")
        if self.sobolev_order < 4:
            raise ValueError("sobolev_order must be >= 4")
        if not (0 < self.cfl <= 1):
            raise ValueError("cfl must lie in (0, 1]")
        for name, (lo, hi) in (("eta", self.eta_box), ("p", self.p_box)):
            if not lo < hi:
                raise ValueError("admissible %s box [%g, %g] is empty: %s_min "
                                 "must be below %s_max" % (name, lo, hi, name, name))
        # every rung lifts the data onto its background: a c without one
        # fails here, before any run.  A p_bar <= 0, outside the density's
        # domain, is left to the data's own positivity and box checks.
        if self.p_bar > 0:
            eos = self.make_eos()
            for c in cs:
                eos_mod.background_potential(self.consts(c), eos, self.p_bar)
        return self

    def make_grid(self):
        return fields.Grid3(self.n, self.length)

    def make_eos(self):
        return eos_mod.PolytropicEos(m0=self.m0, gamma=self.gamma,
                                     a_inf=self.a_inf, a1=self.a1)

    def make_perturbation(self):
        return initial_data.PerturbationSpec(
            amp_eta=self.amp_eta, amp_p=self.amp_p, amp_v=tuple(self.amp_v),
            center=tuple(self.center), width=self.width)

    def consts(self, c):
        return eos_mod.PhysicalConstants(grav_g=self.grav_g, kappa=self.kappa, c=c)

    def run_args(self):
        """Keyword arguments of `ep.run` and `en.run` for every run of the sweep."""
        return dict(cfl=self.cfl, n_outputs=self.n_outputs,
                    eta_box=self.eta_box, p_box=self.p_box)

    def make_bundle(self):
        """The limit-system data bundle (it carries the grid and the EOS)."""
        return initial_data.build_newtonian_data(
            self.make_perturbation(), self.consts(math.inf), self.make_eos(),
            self.make_grid(), eta_bar=self.eta_bar, p_bar=self.p_bar,
            admissible_box=(self.eta_box, self.p_box))


# rate acceptance: fluid and potential slopes at most -0.9, background-gap
# slope within 0.1 of -2
RATE_THRESHOLDS = {"slope_w": -0.9, "slope_phi": -0.9, "slope_gap": (-2.0, 0.1)}


@dataclass
class RateReport:
    c_values: list
    sup_w: list
    sup_phi: list
    phi_bar_gap: list
    slope_w: float = math.nan
    slope_phi: float = math.nan
    slope_gap: float = math.nan
    resid_w: float = math.nan
    resid_phi: float = math.nan
    resid_gap: float = math.nan

    def fit(self):
        self.slope_w, self.resid_w = fit_slope(self.c_values, self.sup_w)
        self.slope_phi, self.resid_phi = fit_slope(self.c_values, self.sup_phi)
        self.slope_gap, self.resid_gap = fit_slope(self.c_values, self.phi_bar_gap)
        return self

    def meets_thresholds(self):
        """Whether the fitted slopes meet RATE_THRESHOLDS."""
        gap_target, gap_tol = RATE_THRESHOLDS["slope_gap"]
        return (self.slope_w <= RATE_THRESHOLDS["slope_w"]
                and self.slope_phi <= RATE_THRESHOLDS["slope_phi"]
                and abs(self.slope_gap - gap_target) <= gap_tol)


@dataclass
class SweepResult:
    """The fitted RateReport, the limit data bundle and the telemetry; no
    run's fields.

    runs maps each light speed (math.inf for the limit run) to its dt,
    dt_reason, steps, rhs_evals and wall_s, and for a rung also its
    peak_rss_mb (`run_sweep`); phases_s maps each phase run so
    far (bundle, then runs: the limit run and the rungs, which overlap) to
    its wall time.
    """

    config: SweepConfig
    report: RateReport
    bundle: object
    abort_reasons: dict = field(default_factory=dict)
    runs: dict = field(default_factory=dict)
    phases_s: dict = field(default_factory=dict)


class SweepAborted(RuntimeError):
    """A run of the sweep aborted; .result is the partial SweepResult."""

    def __init__(self, message, result):
        super().__init__(message)
        self.result = result


@dataclass
class RungResult:
    """What one finite-c rung hands back to `run_sweep`: its telemetry
    record, its three gaps and its abort reason, and no fields."""

    record: dict
    sup_w: float
    sup_phi: float
    phi_bar_gap: float
    abort_reason: str = None


class LimitRunEnded(RuntimeError):
    """The limit run ended without the output a rung waits for."""


class LimitOutputs:
    """The limit run's output fields, for rungs that may run in forked
    workers: w and phi of every output, and a header holding the count of
    outputs published so far and a flag that the limit run has ended, in
    one anonymous shared mapping made before the fork.  A fork-context
    Condition wakes the rungs waiting on the header.  A rung waiting for an
    output the ended limit run did not publish gets LimitRunEnded, which
    stops its run there."""

    def __init__(self, outputs, n):
        # imported here, as in fork_map: a process that runs no sweep need
        # not carry it
        import multiprocessing
        w_size, phi_size = outputs * 5 * n**3, outputs * n**3
        nbytes = 8 * (2 + w_size + phi_size)
        try:
            buffer = mmap.mmap(-1, nbytes)
        except (OverflowError, OSError) as exc:
            # more bytes than a mapping can address, or than the system grants
            if isinstance(exc, OSError) and exc.errno != errno.ENOMEM:
                raise
            raise MemoryError("cannot map %d bytes for %d limit outputs"
                              % (nbytes, outputs)) from None
        # [published outputs, ended]
        self._header = np.frombuffer(buffer, dtype=np.int64, count=2)
        self.ws = np.frombuffer(buffer, count=w_size, offset=16).reshape(
            (outputs, 5, n, n, n))
        self.phis = np.frombuffer(buffer, offset=8 * (2 + w_size)).reshape(
            (outputs, n, n, n))
        self._changed = multiprocessing.get_context("fork").Condition()

    @property
    def published(self):
        return int(self._header[0])

    def publish(self, state):
        """Write the next output state in, then wake the rungs waiting for it."""
        m = self.published
        self.ws[m], self.phis[m] = state.w, state.phi
        with self._changed:
            self._header[0] = m + 1
            self._changed.notify_all()

    def end(self):
        """Mark the limit run ended, with or without all of its outputs."""
        with self._changed:
            self._header[1] = 1
            self._changed.notify_all()

    def wait_for(self, m):
        """Return once output m is published; raise LimitRunEnded if the
        limit run has ended without it."""
        with self._changed:
            self._changed.wait_for(
                lambda: self._header[0] > m or self._header[1])
        if self.published <= m:
            raise LimitRunEnded("the limit run ended before output %d" % m)


def run_sweep(config, progress=None):
    """Run the full experiment; returns a SweepResult with a fitted report.

    The finite-c rungs share nothing but the limit run's outputs and the
    data, so they run through `fields.fork_map`: in forked worker processes,
    one per rung and at most one per CPU this process may run on, while the
    limit run runs in this process (in this process, after the limit run,
    when that is one CPU).  The limit run publishes each output into
    `LimitOutputs` as it reaches it.  Each worker holds one rung's state:
    at each of its outputs it waits for the limit output of the same index,
    takes both gaps there and drops the state, and it sends back only the
    sups and the telemetry.  A rung stops at the first limit output that
    will not come.  The results are taken in ladder order.  progress, if
    given, is called with one line of text per finished run, in ladder
    order.  An aborted run raises SweepAborted carrying the partial result:
    the runs up to the first aborted one.
    """
    config.validate()
    clock = time.perf_counter()
    bundle = config.make_bundle()
    grid = bundle.grid
    phases_s = {"bundle": time.perf_counter() - clock}
    report_line = progress or (lambda line: None)
    result = SweepResult(config=config, report=None, bundle=bundle,
                         phases_s=phases_s)
    limit = LimitOutputs(config.n_outputs + 1, grid.n)

    def finished(c, label, record):
        result.runs[c] = record
        report_line("%s: %d steps of dt=%.4g (%s), %d RHS evaluations, %.2f s"
                    % (label, record["steps"], record["dt"], record["dt_reason"],
                       record["rhs_evals"], record["wall_s"]))

    def limit_run():
        try:
            traj = ep.run(ep.from_bundle(bundle, config.consts(math.inf)),
                          config.t_final, observe=limit.publish,
                          **config.run_args())
            finished(math.inf, "limit run", traj.record())
            if not traj.ok:
                result.abort_reasons[math.inf] = traj.abort_reason
                raise SweepAborted("limit-system run aborted: "
                                   + traj.abort_reason, result)
        finally:
            limit.end()

    def run_rung(c):
        """One finite-c rung: lift the data, and run, taking the sup-in-time
        Sobolev gaps against the limit run output by output.  Its record
        adds peak_rss_mb, the peak resident memory of the process it ran
        in: its forked worker's own, or, for a rung run in this process,
        this process's peak so far."""
        consts_c = config.consts(c)
        lifted = initial_data.lift_to_relativistic(bundle, consts_c)
        order = config.sobolev_order
        w_sup = phi_sup = 0.0
        outputs = itertools.count()

        def gaps(state):
            """Both gaps at output m, the state's, once the limit run has
            published it."""
            nonlocal w_sup, phi_sup
            m = next(outputs)
            limit.wait_for(m)
            w_sup = max(w_sup, grid.sobolev_norm(
                limit.ws[m] - en.pull_back(state.w, state.phi, consts_c),
                order - 1))
            dev = ((limit.phis[m] - bundle.phi_bar_inf)
                   - (state.phi - lifted.phi_bar_c))
            phi_sup = max(phi_sup, grid.sobolev_norm(dev, order + 1))

        traj = en.run(en.from_bundle(lifted), config.t_final, observe=gaps,
                      **config.run_args())
        return RungResult(record=dict(traj.record(),
                                      peak_rss_mb=stepping.peak_rss_mb()),
                          sup_w=w_sup, sup_phi=phi_sup,
                          phi_bar_gap=abs(bundle.phi_bar_inf - lifted.phi_bar_c),
                          abort_reason=traj.abort_reason)

    clock = time.perf_counter()
    try:
        rungs = fields.fork_map(run_rung, config.c_values, meanwhile=limit_run)
    finally:
        phases_s["runs"] = time.perf_counter() - clock
    sup_w, sup_phi, gaps = [], [], []
    for c, rung in zip(config.c_values, rungs):
        finished(c, "c=%g" % c, rung.record)
        if rung.abort_reason is not None:
            result.abort_reasons[c] = rung.abort_reason
            raise SweepAborted("finite-c run aborted at c=%g: %s"
                               % (c, rung.abort_reason), result)
        sup_w.append(rung.sup_w)
        sup_phi.append(rung.sup_phi)
        gaps.append(rung.phi_bar_gap)
    result.report = RateReport(c_values=list(config.c_values), sup_w=sup_w,
                               sup_phi=sup_phi, phi_bar_gap=gaps).fit()
    return result


def newtonian_operator_residual(w, dt_w, phi, consts_inf, eos, grid,
                                density=None):
    """Pointwise residual of the limit system at (w, d_t w, phi): d_t w minus
    the limit solver's operator `ep.newtonian_rhs` at the given potential,
    the velocity rows multiplied by rho_inf (the momentum form).  density,
    if given, is the (rho_inf, q_inf) of w (`eos.closure` at c = inf)."""
    state = ep.NewtState(w=w, t=0.0, consts=consts_inf, eos=eos, grid=grid,
                         p_bar=None, phi=phi)
    if density is None:
        density = ep._limit_density(state)
    res = dt_w - ep.newtonian_rhs(state, density)
    res[2:] *= density[0]
    return res


def approximate_solution_residuals(traj, phi_data, w_data_inf, consts, eos,
                                   grid, order):
    """Sup-in-time norms of the two closeness residuals of a finite-c run.

    The first residual applies the limit-system operator to the pulled-back
    finite-c solution (time derivative by centered differences at output
    times); the second measures how far the potential deviation is from
    solving the screened Poisson equation sourced by the limit density.
    Also works on a limit-system trajectory, where the first residual is
    the pure time-differencing floor and the second is ~0.
    """
    consts_inf = eos_mod.PhysicalConstants(grav_g=consts.grav_g,
                                           kappa=consts.kappa, c=math.inf)
    fourpg = 4.0 * math.pi * consts.grav_g

    def pulled_back(m):
        return en.pull_back(traj.ws[m], traj.phis[m], consts)

    rho_data = eos_mod.mass_density(consts_inf, eos, w_data_inf[1])

    def norms(m):
        """The norms of the two residuals at output m; the first is None at
        the end outputs, where the centered difference has no neighbour."""
        wm = pulled_back(m)
        rho, _, q = eos_mod.closure(consts_inf, eos, wm[1])
        e2 = (grid.laplacian(traj.phis[m] - phi_data)
              - consts.kappa**2 * (traj.phis[m] - phi_data)
              - fourpg * (rho - rho_data))
        e2_norm = grid.sobolev_norm(e2, order - 1)
        if not 1 <= m <= len(traj.ts) - 2:
            return None, e2_norm
        dt_out = traj.ts[m + 1] - traj.ts[m - 1]
        dt_w = (pulled_back(m + 1) - pulled_back(m - 1)) / dt_out
        e1 = newtonian_operator_residual(wm, dt_w, traj.phis[m],
                                         consts_inf, eos, grid, (rho, q))
        return grid.sobolev_norm(e1, order - 1), e2_norm

    # one output per item, in the workers of a fork map; the sups are taken
    # here, in output order
    sup_e1 = 0.0
    sup_e2 = 0.0
    for e1, e2 in fields.fork_map(norms, range(len(traj.ts))):
        sup_e2 = max(sup_e2, e2)
        if e1 is not None:
            sup_e1 = max(sup_e1, e1)
    return sup_e1, sup_e2


def emit_report(report, out_dir):
    """Write the rate CSV and a human-readable summary; returns file paths."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "rates.csv")
    with open(csv_path, "w") as fh:
        fh.write("c,supWdiff,supPhidiff,phiBarGap\n")
        for i, c in enumerate(report.c_values):
            fh.write("%.17g,%.17g,%.17g,%.17g\n" % (
                c, report.sup_w[i], report.sup_phi[i], report.phi_bar_gap[i]))
    summary_path = os.path.join(out_dir, "summary.txt")
    lines = [
        "convergence-rate sweep summary",
        "c values: %s" % (list(report.c_values),),
        "fluid slope: %.4f (rms fit residual %.4f)" % (report.slope_w, report.resid_w),
        "potential slope: %.4f (rms fit residual %.4f)" % (report.slope_phi, report.resid_phi),
        "background-gap slope: %.4f (rms fit residual %.4f)" % (report.slope_gap, report.resid_gap),
    ]
    lines.append("acceptance thresholds: %s"
                 % ("PASS" if report.meets_thresholds() else "FAIL"))
    with open(summary_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return csv_path, summary_path
