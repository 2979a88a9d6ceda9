"""The three benchmark workloads: inputs from a seed, set-up, one pass, oracle.

Every workload is closed-loop: one caller runs one pass at a time.  The
seed sets only the perturbation: the Gaussian-bump centre, the eta and p
amplitudes and the velocity amplitude and direction.  Everything else is the
reference physics of `configs/reference.ini`, restated here so that the
benchmark owns its input, except that `sweep` and `limit` run to a shorter
t_final so that one run of the benchmark holds several passes.  The program
receives only the generated INI.

The `sweep` and `limit` checks do not depend on the code under test: fixed
thresholds, a log-log fit done here, conservation laws evaluated with the
equation of state written out here, and snapshots parsed here.  The
`diagnostics` invariants (EOS rate slopes, positivity ratio, divergence
defect, Klein-Gordon energy, residuals) are computed by the program and only
held to fixed thresholds here; its snapshot round trips are checked bit for
bit against both the program's reader and the parser here.
"""

import contextlib
import io
import json
import math
import os
import random
import shutil
import struct

import numpy as np

from spans import LADDER

LENGTH = 2.0 * math.pi
WIDTH = math.pi / 4.0
# reference physics (configs/reference.ini) minus the seeded perturbation
PHYSICS = {
    "grid": {"length": LENGTH},
    "constants": {"grav_g": 0.05, "kappa": 1.0},
    "eos": {"m0": 1.0, "gamma": 2.0, "a_inf": 1.0, "a1": 0.0},
    "background": {"eta": 1.0, "p": 1.0},
    "admissible": {"eta_min": 0.5, "eta_max": 1.5, "p_min": 0.5, "p_max": 1.5},
    "run": {"t_final": 0.2, "cfl": 0.5, "n_outputs": 20, "sobolev_order": 4,
            "mollify_eps": 0.2, "c": 20},
    "sweep": {"c_values": ",".join("%g" % c for c in LADDER)},
}
SEEDED = ("amp_eta", "amp_p", "amp_vx", "amp_vy", "amp_vz",
          "center_x", "center_y", "center_z")


def perturbation(seed):
    """The seeded perturbation: amplitudes well inside the admissible box."""
    rng = random.Random(seed)
    center = [rng.uniform(0.0, LENGTH) for _ in range(3)]
    amp_eta = rng.uniform(0.03, 0.07)
    amp_p = rng.uniform(0.03, 0.07)
    speed = rng.uniform(0.03, 0.07)
    direction = [rng.gauss(0.0, 1.0) for _ in range(3)]
    norm = math.sqrt(sum(d * d for d in direction))
    amp_v = [speed * d / norm for d in direction]
    values = [amp_eta, amp_p] + amp_v + center
    return dict(zip(SEEDED, values), width=WIDTH)


def config_text(n, seed, run=None):
    """The INI the program receives: reference physics, grid n, seeded bump,
    and the [run] keys in `run` in place of the reference ones."""
    sections = dict(PHYSICS, perturbation=perturbation(seed))
    sections["grid"] = dict(PHYSICS["grid"], n=n)
    sections["run"] = dict(PHYSICS["run"], **(run or {}))
    lines = []
    for name, keys in sections.items():
        lines.append("[%s]" % name)
        lines.extend("%s = %s" % kv for kv in keys.items())
        lines.append("")
    return "\n".join(lines)


def rho_inf(eta, p):
    """Limit mass density m0 (p / a_inf)**(1/gamma), written out independently."""
    e = PHYSICS["eos"]
    return e["m0"] * (p / e["a_inf"]) ** (1.0 / e["gamma"])


def initial_fields(n, seed):
    """Initial (eta, p, v) of the limit system, built here from the seed."""
    pert = perturbation(seed)
    x = np.arange(n) * (LENGTH / n)
    rsq = 0.0
    for axis, key in enumerate(("center_x", "center_y", "center_z")):
        d = x - pert[key]
        d -= LENGTH * np.round(d / LENGTH)
        shape = [1, 1, 1]
        shape[axis] = n
        rsq = rsq + (d * d).reshape(shape)
    bump = np.exp(-0.5 * rsq / WIDTH**2)
    bg = PHYSICS["background"]
    return (bg["eta"] + pert["amp_eta"] * bump, bg["p"] + pert["amp_p"] * bump,
            np.stack([pert[k] * bump for k in ("amp_vx", "amp_vy", "amp_vz")]))


def read_nrdf(path):
    """Parse a snapshot file directly: (n, length, t, fields[ncomp, x, y, z])."""
    with open(path, "rb") as fh:
        raw = fh.read()
    magic, version, n, length, t, ncomp = struct.unpack_from("<4sIIddI", raw)
    if magic != b"NRDF" or version != 1:
        raise ValueError("not an NRDF v1 snapshot")
    data = np.frombuffer(raw, dtype="<f8", offset=32)
    if data.size != ncomp * n**3:
        raise ValueError("snapshot payload has %d values, expected %d"
                         % (data.size, ncomp * n**3))
    return n, length, t, data.reshape(ncomp, n, n, n).transpose(0, 3, 2, 1)


def fit_slope(cs, vals):
    return float(np.polyfit(np.log(cs), np.log(vals), 1)[0])


class Workload:
    """Base: owns a work directory and the generated INI of one seed."""

    n = 32
    run_keys = {}  # [run] keys that differ from the reference physics

    def __init__(self, nl, work_dir, seed):
        self.nl = nl
        self.seed = seed
        self.ini = os.path.join(work_dir, "%s.ini" % self.name)
        self.out = os.path.join(work_dir, "out")
        self.facts = {}

    def prepare(self):
        """Write and parse the INI and build the initial data of both systems.

        This is the part of a run before the first time step; subclasses add
        what their pass needs.
        """
        with open(self.ini, "w") as fh:
            fh.write(config_text(self.n, self.seed, self.run_keys))
        cli, init = self.nl.cli, self.nl.initial_data
        sc = cli.sweep_config_from(cli.parse_config(self.ini, strict=True))
        sc.validate()
        grid, eos = sc.make_grid(), sc.make_eos()
        bundle = init.build_newtonian_data(
            sc.make_perturbation(), sc.consts(math.inf), eos, grid,
            eta_bar=sc.eta_bar, p_bar=sc.p_bar,
            admissible_box=(sc.eta_box, sc.p_box))
        return sc, grid, eos, bundle

    def run_cli(self, command):
        """Run one nordlimit subcommand in-process into an emptied output
        directory, its printout discarded."""
        shutil.rmtree(self.out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            return self.nl.cli.main(["--config", self.ini, "--out", self.out,
                                     "--strict", command])


class Sweep(Workload):
    """`nordlimit sweep` on the shortened geometric ladder at n=32."""

    name = "sweep"
    # one output interval to t_final = 0.05: ceil(t_final / dt_cfl) = 6, 11
    # and 21 steps for the three rungs, and a potential slope of about -1.87
    # against the -0.9 limit (t_final = 0.03 fails it)
    run_keys = {"t_final": 0.05, "n_outputs": 1}

    def setup(self):
        sc, grid, eos, bundle = self.prepare()
        for c in sc.c_values:
            self.nl.initial_data.lift_to_relativistic(bundle, sc.consts(c))

    def run_pass(self):
        rc = self.run_cli("sweep")
        if rc != 0:
            return ["nordlimit sweep exited %d" % rc]
        with open(os.path.join(self.out, "rates.csv")) as fh:
            header = fh.readline().strip()
            rows = np.array([[float(x) for x in line.split(",")]
                             for line in fh if line.strip()])
        if header != "c,supWdiff,supPhidiff,phiBarGap":
            return ["rates.csv header %r" % header]
        if rows.shape != (len(LADDER), 4) or list(rows[:, 0]) != list(LADDER):
            return ["rates.csv does not hold one row per rung"]
        if not (np.all(np.isfinite(rows)) and np.all(rows[:, 1:] > 0)):
            return ["rates.csv holds a non-finite or non-positive gap"]
        slopes = {key: fit_slope(rows[:, 0], rows[:, col])
                  for col, key in ((1, "slope_w"), (2, "slope_phi"), (3, "slope_gap"))}
        self.facts = dict(slopes, sup_w=list(rows[:, 1]))
        bad = []
        if not slopes["slope_w"] <= -0.9:
            bad.append("fluid slope %.4f > -0.9" % slopes["slope_w"])
        if not slopes["slope_phi"] <= -0.9:
            bad.append("potential slope %.4f > -0.9" % slopes["slope_phi"])
        if not abs(slopes["slope_gap"] + 2.0) <= 0.1:
            bad.append("background-gap slope %.4f not within 0.1 of -2"
                       % slopes["slope_gap"])
        if not np.all(np.diff(rows[:, 1]) < 0):
            bad.append("supWdiff not strictly decreasing in c")
        return bad


class Limit(Workload):
    """`nordlimit run-ep` alone at n=64: no finite-c code runs."""

    name = "limit"
    n = 64
    # five output intervals to t_final = 0.1, each shorter than one CFL step,
    # so that every seed takes 5 steps
    run_keys = {"t_final": 0.1, "n_outputs": 5}

    def setup(self):
        sc, grid, eos, bundle = self.prepare()
        ep = self.nl.euler_poisson
        ep.with_constraint(ep.from_bundle(bundle, sc.consts(math.inf)))
        eta, p, v = initial_fields(self.n, self.seed)
        rho = rho_inf(eta, p)
        self.mass0 = float(np.sum(rho))
        self.momentum0 = np.sum(rho * v, axis=(1, 2, 3))

    def run_pass(self):
        rc = self.run_cli("run-ep")
        if rc != 0:
            return ["nordlimit run-ep exited %d" % rc]
        with open(os.path.join(self.out, "manifest.json")) as fh:
            if not json.load(fh)["checks"].get("run_completed"):
                return ["manifest does not record a completed run"]
        n, length, t, data = read_nrdf(os.path.join(self.out, "run_ep_final.nrdf"))
        if ((n, length, data.shape[0]) != (self.n, LENGTH, 6)
                or not math.isclose(t, self.run_keys["t_final"], rel_tol=1e-12)):
            return ["final snapshot header (n=%d, L=%r, t=%r, ncomp=%d)"
                    % (n, length, t, data.shape[0])]
        if not np.all(np.isfinite(data)) or np.any(data[:2] <= 0):
            return ["final state non-finite or not positive"]
        rho = rho_inf(data[0], data[1])
        mass_drift = abs(float(np.sum(rho)) - self.mass0) / self.mass0
        mom_drift = float(np.linalg.norm(
            np.sum(rho * data[2:5], axis=(1, 2, 3)) - self.momentum0)
            / np.linalg.norm(self.momentum0))
        self.facts = {"mass_drift": mass_drift, "momentum_drift": mom_drift}
        bad = []
        if not mass_drift <= 1e-12:
            bad.append("mass drifted %.3g relative" % mass_drift)
        if not mom_drift <= 1e-9:
            bad.append("momentum drifted %.3g relative" % mom_drift)
        return bad


class Diagnostics(Workload):
    """The `check` invariant suite on a stored finite-c trajectory."""

    name = "diagnostics"
    c = LADDER[0]
    t_final = 0.1
    n_outputs = 20

    def setup(self):
        sc, grid, eos, bundle = self.prepare()
        nl = self.nl
        self.sc, self.grid, self.eos, self.bundle = sc, grid, eos, bundle
        self.consts = sc.consts(self.c)
        self.lifted = nl.initial_data.lift_to_relativistic(bundle, self.consts)
        self.smoothed = nl.initial_data.mollify_bundle(self.lifted, sc.mollify_eps)
        self.traj = nl.euler_nordstrom.run(
            nl.euler_nordstrom.from_bundle(self.lifted), self.t_final,
            cfl=sc.cfl, n_outputs=self.n_outputs,
            eta_box=sc.eta_box, p_box=sc.p_box)
        if not self.traj.ok:
            raise RuntimeError("stored trajectory aborted: %s"
                               % self.traj.abort_reason)
        self.variations = np.random.default_rng(self.seed).normal(size=(16, 5))

    def run_pass(self):
        nl, sc, grid, eos = self.nl, self.sc, self.grid, self.eos
        ec, en, traj, consts = nl.energy_currents, nl.euler_nordstrom, self.traj, self.consts
        order = sc.sobolev_order
        bad = []

        slopes = nl.eos.rate_check(eos, sc.eta_box, sc.p_box, sc.c_values,
                                   seed=self.seed)
        if not all(s <= -1.9 for s in slopes.values()):
            bad.append("EOS rate slopes %s above -1.9" % slopes)

        lo = math.inf
        for m in range(len(traj.ts)):
            bg = ec.background_coeffs(consts, eos, traj.ws[m], traj.phis[m])
            lo = min(lo, ec.positivity_ratio(consts, bg, self.variations)[0])
        if not lo > 0:
            bad.append("energy current not positive (min ratio %g)" % lo)

        rep = ec.divergence_identity_check(
            traj, self.smoothed.w_c, self.lifted.phi_c, consts, eos, grid,
            eta_bar=sc.eta_bar, p_bar=sc.p_bar)
        if not rep.max_defect <= 1e-3:
            bad.append("divergence defect %.3g > 1e-3" % rep.max_defect)

        sup_l, e0, kg_ok = 0.0, None, True
        for m in range(len(traj.ts)):
            st = en.RelState(w=traj.ws[m], phi=traj.phis[m], pi=traj.pis[m],
                             t=traj.ts[m], consts=consts, eos=eos, grid=grid)
            l = ec.assemble_eov_inhomogeneity(st, self.smoothed.w_c,
                                              self.lifted.phi_c)[5]
            sup_l = max(sup_l, grid.sobolev_norm(l, order))
            e = ec.kg_energy(st, self.lifted.phi_c, order)
            e0 = e if e0 is None else e0
            kg_ok = kg_ok and e <= e0 + consts.c * traj.ts[m] * sup_l * (1.0 + 1e-3)
        if not kg_ok:
            bad.append("Klein-Gordon energy inequality violated")

        e1, e2 = nl.limit_harness.approximate_solution_residuals(
            traj, self.lifted.phi_c, self.bundle.w_inf, consts, eos, grid, order)
        if not (math.isfinite(e1) and math.isfinite(e2) and e1 >= 0 and e2 >= 0):
            bad.append("residual norms not finite (%r, %r)" % (e1, e2))

        os.makedirs(self.out, exist_ok=True)
        path = os.path.join(self.out, "snapshot.nrdf")
        for m in range(len(traj.ts)):
            data = np.concatenate([traj.ws[m], traj.phis[m][None], traj.pis[m][None]])
            nl.fields.write_snapshot(path, grid, traj.ts[m], data)
            want = np.ascontiguousarray(data).tobytes()
            g, t, back = nl.fields.read_snapshot(path)
            if not (g.n == grid.n and g.length == grid.length and t == traj.ts[m]
                    and back.shape == data.shape and back.tobytes() == want):
                bad.append("snapshot of output %d does not round-trip" % m)
            n, length, t, parsed = read_nrdf(path)
            if not (n == grid.n and length == grid.length and t == traj.ts[m]
                    and parsed.shape == data.shape
                    and np.ascontiguousarray(parsed).tobytes() == want):
                bad.append("snapshot of output %d does not hold the data" % m)
        self.facts = {"min_ratio": lo, "max_defect": rep.max_defect,
                      "residuals": [e1, e2], "eos_slopes": slopes}
        return bad


WORKLOADS = {w.name: w for w in (Sweep, Limit, Diagnostics)}
