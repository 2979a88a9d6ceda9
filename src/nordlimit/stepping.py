"""The run loop shared by the finite-c and the limit system.

The experiment compares the two runs at matched output times, so the rules
that make them comparable (output-time rounding, admissibility and CFL
margin checks, the abort format, telemetry) live here once, in `drive`.
"""

import math
import resource
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import eos as eos_mod

# the most steps one run may ask for: far above every c ladder the experiment
# runs (20 steps at any c on reference.ini), far below a never-ending count
MAX_STEPS = 10**8


def peak_rss_mb():
    """Peak resident memory of this process so far, in MB (ru_maxrss is in
    KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def max_speed(w):
    """max |v| of the fluid fields w; an overflowing |v| reads inf, which
    every caller checks or records."""
    with np.errstate(over="ignore"):
        return float(np.max(np.sqrt(np.sum(w[2:] ** 2, axis=0))))


def fluid_signal_speed(state):
    """CFL speed of the fluid: max |v| + max sound speed."""
    ssq = eos_mod.closure(state.consts, state.eos, state.pressure())[1]
    return max_speed(state.w) + float(np.max(np.sqrt(ssq)))


@dataclass
class Trajectory:
    """Output times of a run, its last output state, the stored snapshots
    (none when the run had an observer), step telemetry and abort
    bookkeeping.

    pis holds the potential's time derivative: an evolved field at finite
    c, and the limit state's constant 0.0 at c = inf.
    """

    dt: float
    dt_reason: str
    ts: list = field(default_factory=list)
    ws: list = field(default_factory=list)
    phis: list = field(default_factory=list)
    pis: list = field(default_factory=list)
    last: object = None
    abort_reason: str = None
    steps: int = 0
    wall_s: float = 0.0

    @property
    def ok(self):
        return self.abort_reason is None

    @property
    def rhs_evals(self):
        """Right-hand sides evaluated: both integrators take four per step."""
        return 4 * self.steps

    def add(self, state, observe=None):
        """Record the output state: its time, and state as the last output.

        With observe, observe(state) is called and no field is kept, so a
        run holds one state whatever its output count.  Without, the
        snapshot is stored: the state's own arrays, not copies.  A step
        builds new arrays and nothing writes into a state's, so the snapshot
        stays valid; a copy would keep the initial state twice, as the
        caller of `drive` holds it for the whole run.
        """
        self.ts.append(state.t)
        self.last = state
        if observe is not None:
            observe(state)
            return
        self.ws.append(state.w)
        self.phis.append(state.phi)
        self.pis.append(state.pi)

    def record(self):
        """Telemetry of the run, as written to the manifests."""
        return {"dt": self.dt, "dt_reason": self.dt_reason, "steps": self.steps,
                "rhs_evals": self.rhs_evals, "wall_s": self.wall_s}


def non_finite_field(state):
    """Name of the first field of state holding a NaN or an infinity, or None."""
    named = [("eta", state.w[0]), ("P", state.w[1]), ("v", state.w[2:]),
             ("phi", state.phi), ("pi", state.pi)]
    for name, f in named:
        if not np.all(np.isfinite(f)):
            return name
    return None


def check_admissibility(state, eta_box=None, p_box=None):
    """Return a failure description or None.

    Checks finiteness, positivity, at finite c the |v| < c/2 working regime,
    and (when boxes are configured) a 1% margin inside the admissible boxes.
    """
    bad = non_finite_field(state)
    if bad is not None:
        return "non-finite %s" % bad
    p = state.pressure()
    if np.any(state.w[0] <= 0) or np.any(p <= 0):
        return "lost positivity of eta or p"
    if state.consts.finite_c and max_speed(state.w) >= 0.5 * state.consts.c:
        return "velocity reached c/2"
    for f, box in ((state.w[0], eta_box), (p, p_box)):
        if box is not None:
            margin = 0.01 * (box[1] - box[0])
            if float(np.min(f)) < box[0] + margin or float(np.max(f)) > box[1] - margin:
                return "admissibility margin below 1% of the configured box"
    return None


def drive(state, start, dt_max, speed, t_final, n_outputs, eta_box=None,
          p_box=None, observe=None):
    """Integrate state to t_final with outputs at n_outputs equal intervals;
    returns the Trajectory.

    Every output, the initial state included, goes to `Trajectory.add`:
    to observe(state) if observe is given, or else into the stored
    snapshots.  The Trajectory records the output times, the last output
    state and the telemetry either way; its wall_s includes the observer's
    time.

    Both systems step by one rule: dt_max is the fluid CFL step
    cfl h / s_fluid of the initial state, speed the fluid signal speed
    s_fluid behind it, and start(state, dt) returns the system's stepper, a
    function that advances a state by one step of size dt.  dt is dt_max
    rounded down so that every output time is hit exactly; this keeps the
    two systems, at any c, on one time grid.  The recorded reason is
    "fluid CFL", or "output interval" when one output interval is shorter
    than dt_max and so sets dt.  The run aborts (partial trajectory
    returned) when the initial state (then dt is dt_max) or an output is not
    admissible, when speed is not finite or grows past 110% at an output,
    on a ValueError raised inside a step, or when a step leaves a NaN or an
    infinity in any field.  A dt_max that is not positive, or too small for
    a finite number of steps per output, raises a ValueError before the
    stepper is built, and so does a run of more than MAX_STEPS steps.
    """
    clock = time.perf_counter()
    traj = Trajectory(dt=dt_max, dt_reason="fluid CFL")
    try:
        traj.add(state, observe)
        reason = check_admissibility(state, eta_box, p_box)
        if reason is None and not math.isfinite(speed):
            reason = "non-finite fluid signal speed"
        if reason is not None:
            traj.abort_reason = "initial state: " + reason
            return traj
        if not dt_max > 0:
            raise ValueError("time step %r (fluid CFL) is not positive"
                             % dt_max)
        seg = t_final / n_outputs
        ratio = seg / dt_max
        if not math.isfinite(ratio):
            raise ValueError("output interval %r over time step %r: steps "
                             "per output not finite" % (seg, dt_max))
        per_seg = max(1, math.ceil(ratio - 1e-12))
        if per_seg * n_outputs > MAX_STEPS:
            raise ValueError("output interval %r over time step %r: %.15g "
                             "steps per output times %d outputs is more "
                             "than %d steps"
                             % (seg, dt_max, per_seg, n_outputs, MAX_STEPS))
        if ratio < 1.0 - 1e-12:
            traj.dt_reason = "output interval"
        traj.dt = seg / per_seg
        step = start(state, traj.dt)
        for m in range(n_outputs):
            for _ in range(per_seg):
                try:
                    new = step(state)
                    bad = non_finite_field(new)
                    failure = None if bad is None else "non-finite " + bad
                except ValueError as exc:
                    failure = str(exc)
                if failure is not None:
                    traj.abort_reason = "step %d from t=%.6g failed: %s" % (
                        traj.steps + 1, state.t, failure)
                    return traj
                state = new
                traj.steps += 1
            # land exactly on the nominal output time despite roundoff
            state = replace(state, t=(m + 1) * seg)
            reason = check_admissibility(state, eta_box, p_box)
            if reason is None and fluid_signal_speed(state) > 1.1 * speed:
                reason = "CFL margin violated: signal speed grew past 110% of initial"
            if reason is not None:
                traj.abort_reason = reason
                return traj
            traj.add(state, observe)
        return traj
    finally:
        traj.wall_s = time.perf_counter() - clock
