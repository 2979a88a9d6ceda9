"""Command-line entry point: config parsing and experiment orchestration.

Subcommands: run-en (finite-c run), run-ep (limit run), sweep (the rate
experiment), check (invariant suite), info (snapshot inspection).  Configs
are INI-style key = value sections; unknown keys are warnings by default
and hard errors under --strict.  Exit codes: 0 success, 1 usage error (a
bad flag or argument included) or config error, 2 check/threshold failure.
"""

import argparse
import configparser
import json
import math
import os
import platform
import resource
import sys
import time

import numpy as np

from . import __version__
from . import energy_currents as ec
from . import eos as eos_mod
from . import euler_nordstrom as en
from . import euler_poisson as ep
from . import fields
from . import initial_data
from . import limit_harness as lh
from . import stepping

# Every config key, once: section -> key -> (type, SweepConfig field), or
# (type, field, index) for a tuple entry; run.c, read by run-en only, has none
CONFIG_SCHEMA = {
    "grid": {"n": (int, "n"), "length": (float, "length")},
    "constants": {"grav_g": (float, "grav_g"), "kappa": (float, "kappa")},
    "eos": {"m0": (float, "m0"), "gamma": (float, "gamma"),
            "a_inf": (float, "a_inf"), "a1": (float, "a1")},
    "background": {"eta": (float, "eta_bar"), "p": (float, "p_bar")},
    "admissible": {"eta_min": (float, "eta_box", 0),
                   "eta_max": (float, "eta_box", 1),
                   "p_min": (float, "p_box", 0), "p_max": (float, "p_box", 1)},
    "perturbation": {"amp_eta": (float, "amp_eta"), "amp_p": (float, "amp_p"),
                     "amp_vx": (float, "amp_v", 0),
                     "amp_vy": (float, "amp_v", 1),
                     "amp_vz": (float, "amp_v", 2),
                     "center_x": (float, "center", 0),
                     "center_y": (float, "center", 1),
                     "center_z": (float, "center", 2),
                     "width": (float, "width")},
    "run": {"t_final": (float, "t_final"), "cfl": (float, "cfl"),
            "n_outputs": (int, "n_outputs"),
            "sobolev_order": (int, "sobolev_order"),
            "mollify_eps": (float, "mollify_eps"), "c": (str, None)},
    "sweep": {"c_values": (str, "c_values")},
}


class ConfigError(Exception):
    pass


def parse_config(path, strict=False):
    """Read and type-check a config file against the schema.

    Returns a {section: {key: value}} dict containing only the keys present
    in the file.  Unknown sections or keys raise under strict, warn
    otherwise.
    """
    # no interpolation: a '%' in a value is a literal character
    cp = configparser.ConfigParser(interpolation=None)
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError("malformed config: %s" % exc)
    if not read:
        raise ConfigError("config file not found: %s" % path)
    out = {}
    unknown = []
    for section in cp.sections():
        schema = CONFIG_SCHEMA.get(section)
        if schema is None:
            unknown.append(section)
            continue
        out[section] = {}
        for key, raw in cp.items(section):
            if key not in schema:
                unknown.append("%s.%s" % (section, key))
                continue
            try:
                out[section][key] = schema[key][0](raw)
            except ValueError as exc:
                raise ConfigError("bad value for %s.%s: %s" % (section, key, exc))
    if unknown:
        msg = "unknown config keys: " + ", ".join(sorted(unknown))
        if strict:
            raise ConfigError(msg)
        print("warning: " + msg, file=sys.stderr)
    return out


def sweep_config_from(cfg):
    """Build a SweepConfig from a parsed config dict (defaults fill gaps)."""
    sc = lh.SweepConfig()
    for section, keys in CONFIG_SCHEMA.items():
        for key, (_, name, *index) in keys.items():
            value = cfg.get(section, {}).get(key)
            if name is None or value is None:
                continue
            if name == "c_values":
                try:
                    value = tuple(float(x) for x in value.split(","))
                except ValueError as exc:
                    raise ConfigError("bad sweep.c_values: %s" % exc)
            if index:  # one entry of a tuple field
                value = tuple(value if i == index[0] else entry
                              for i, entry in enumerate(getattr(sc, name)))
            setattr(sc, name, value)
    # kappa > 0 is a structural requirement of the screened operators
    if sc.kappa <= 0:
        raise ConfigError("constants.kappa must be > 0: the screened "
                          "(kappa > 0) operator is what makes the potential "
                          "solvable; kappa = 0 is outside scope")
    return sc


def _run_c_value(cfg):
    # float() reads "inf" and "infinity" in any case, around any spaces
    try:
        val = float(cfg.get("run", {}).get("c", "inf"))
    except ValueError:
        raise ConfigError("run.c must be a positive number or 'inf'")
    if val <= 0:
        raise ConfigError("run.c must be positive")
    return val


class Manifest:
    """Run manifest: config, environment (with the CPUs the run may use and
    the threads of its grid transforms), emitted files, pass/fail flags."""

    def __init__(self, out_dir, cfg, args, n):
        self.path = os.path.join(out_dir, "manifest.json")
        self.data = {
            "tool_version": __version__,
            "config": cfg,
            "seed": args.seed,
            "strict": bool(args.strict),
            "host": platform.node(),
            "platform": platform.platform(),
            "cpus": len(os.sched_getaffinity(0)),
            "transform_threads": fields.transform_threads(n),
            "start_time": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "end_time": None,
            "outputs": [],
            "checks": {},
            "notes": [
                "sup-over-time norms are taken at output times only",
                "admissible compact box taken from the [admissible] section",
            ],
        }

    def add_output(self, path):
        self.data["outputs"].append(os.path.basename(path))

    def set_check(self, name, ok):
        self.data["checks"][name] = bool(ok)

    def write(self):
        self.data["end_time"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        with open(self.path, "w") as fh:
            json.dump(self.data, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _out_dir(args):
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _diagnostics_row(state, order, phi_data=None):
    """The diagnostics of one output state, as (t, minEta, minP, maxV, hNw,
    kgE); kgE, the field energy of a finite-c run from its lifted data
    phi_data, is 0 without them.  An aborted run's overflowing state is
    recorded as inf or nan."""
    w = state.w
    with np.errstate(over="ignore", invalid="ignore"):
        hn = state.grid.sobolev_norm(w, order,
                                     background=[float(np.mean(f)) for f in w])
        kge = 0.0 if phi_data is None else ec.kg_energy(state, phi_data, order)
        return (state.t, float(np.min(w[0])), float(np.min(w[1])),
                stepping.max_speed(w), hn, kge)


def cmd_run(args, cfg, sc, out, manifest):
    """run-en (the finite-c system at run.c) or run-ep (the limit system).

    Each diagnostics row is computed as its output arrives, and the final
    snapshot is the last output state, so the run holds one state whatever
    n_outputs is.  The manifest's run record adds this process's peak
    resident memory.
    """
    finite = args.command == "run-en"
    c = _run_c_value(cfg) if finite else math.inf
    if finite and not math.isfinite(c):
        raise ConfigError("run-en needs a finite run.c")
    bundle = sc.make_bundle()
    grid = bundle.grid
    if finite:
        lifted = initial_data.lift_to_relativistic(bundle, sc.consts(c))
        runner, start = en.run, en.from_bundle(lifted)
    else:
        runner, start = ep.run, ep.from_bundle(bundle, sc.consts(c))
    rows = []
    phi_data = lifted.phi_c if finite else None
    traj = runner(start, sc.t_final, observe=lambda state: rows.append(
        _diagnostics_row(state, sc.sobolev_order, phi_data)), **sc.run_args())
    # c as text at c = inf, as in the sweep's records: JSON has no infinity
    manifest.data["run"] = dict(traj.record(), c=c if finite else "inf",
                                peak_rss_mb=peak_rss_mb())
    name = args.command.replace("-", "_")
    diag = os.path.join(out, name + "_diagnostics.csv")
    with open(diag, "w") as fh:
        fh.write("t,dt,minEta,minP,maxV,hNw,kgE\n")
        for t, *rest in rows:
            fh.write("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n"
                     % (t, traj.dt, *rest))
    last = traj.last
    comps = [last.w, last.phi[None]]
    if finite:
        comps.append(last.pi[None])
    snap = os.path.join(out, name + "_final.nrdf")
    fields.write_snapshot(snap, grid, last.t, np.concatenate(comps))
    manifest.add_output(diag)
    manifest.add_output(snap)
    manifest.set_check("run_completed", traj.ok)
    if not traj.ok:
        manifest.data["abort_reason"] = traj.abort_reason
        print("run aborted: " + traj.abort_reason, file=sys.stderr)
        return 2
    print("%s complete: t=%g, dt=%g (%s), steps=%d, outputs=%d" %
          (args.command, traj.ts[-1], traj.dt, traj.dt_reason, traj.steps,
           len(traj.ts)))
    return 0


def peak_rss_mb():
    """Peak resident memory of this process so far, in MB (ru_maxrss is in
    KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_records(runs):
    """Per-run telemetry keyed by the light speed as text ("inf" = limit)."""
    return {"%g" % c: record for c, record in runs.items()}


def cmd_sweep(args, cfg, sc, out, manifest):
    """The rate experiment; the manifest records each run's telemetry and
    this process's peak resident memory (the rungs' forked workers are not
    counted)."""
    try:
        result = lh.run_sweep(sc, keep_trajectories=False,
                              progress=lambda line: print(line, file=sys.stderr))
    except lh.SweepAborted as exc:
        manifest.data["peak_rss_mb"] = peak_rss_mb()
        manifest.data["phases_s"] = exc.result.phases_s
        manifest.data["runs"] = _run_records(exc.result.runs)
        manifest.data["abort_reasons"] = _run_records(exc.result.abort_reasons)
        manifest.set_check("rate_thresholds", False)
        print("sweep aborted: %s" % exc, file=sys.stderr)
        return 2
    manifest.data["peak_rss_mb"] = peak_rss_mb()
    manifest.data["runs"] = _run_records(result.runs)
    clock = time.perf_counter()
    csv_path, summary_path = lh.emit_report(result.report, out)
    manifest.data["phases_s"] = dict(result.phases_s,
                                     report=time.perf_counter() - clock)
    manifest.add_output(csv_path)
    manifest.add_output(summary_path)
    ok = result.report.meets_thresholds()
    manifest.set_check("rate_thresholds", ok)
    with open(summary_path) as fh:
        print(fh.read(), end="")
    return 0 if ok else 2


def cmd_check(args, cfg, sc, out, manifest):
    rng = np.random.default_rng(args.seed)
    results = {}
    phases_s = manifest.data["phases_s"] = {}
    clock = time.perf_counter()

    def lap(phase):
        """Record the wall time since the previous lap as phase."""
        nonlocal clock
        now = time.perf_counter()
        phases_s[phase] = now - clock
        clock = now

    bundle = sc.make_bundle()
    grid, eos = bundle.grid, bundle.eos
    lap("bundle")
    slopes = eos_mod.rate_check(eos, sc.eta_box, sc.p_box,
                                sc.c_values, seed=args.seed)
    results["eos_rates"] = all(s <= eos_mod.RATE_SLOPE_MAX
                              for s in slopes.values())
    # the number behind each verdict
    values = manifest.data["check_values"] = {
        "eos_rates": {name: _json_number(s) for name, s in slopes.items()}}
    lap("eos_rates")

    c_mid = sc.c_values[len(sc.c_values) // 2]
    consts_c = sc.consts(c_mid)
    lifted = initial_data.lift_to_relativistic(bundle, consts_c)
    t_short = min(sc.t_final, 0.1)
    traj = en.run(en.from_bundle(lifted), t_short,
                  **dict(sc.run_args(), n_outputs=max(8, sc.n_outputs)))
    results["en_run"] = traj.ok
    lap("en_run")
    if not traj.ok:
        # an aborted run's states may lie outside the invariants' domain
        manifest.data["abort_reason"] = traj.abort_reason
        print("run aborted: " + traj.abort_reason, file=sys.stderr)
        results.update(positivity=False, kg_inequality=False,
                       divergence_identity=False)
        return _report_checks(results, manifest)

    # positivity, the field-energy inequality and the divergence identity
    # in one pass over the stored run, one output per item of a fork map
    manifest.data["fork_workers"] = fields.fork_workers(len(traj.ts))
    smoothed = initial_data.mollify_bundle(lifted, sc.mollify_eps)
    rep, verdicts, numbers = ec.check_invariants(
        traj, smoothed.w_c, lifted.phi_c, consts_c, eos, grid,
        rng.normal(size=(16, 5)), sc.sobolev_order)
    results.update(verdicts)
    values.update((name, _json_number(x)) for name, x in numbers.items())
    rep.write_csv(os.path.join(out, "divergence_check.csv"))
    manifest.add_output(os.path.join(out, "divergence_check.csv"))
    lap("outputs")
    return _report_checks(results, manifest)


def _json_number(x):
    """x, or None where strict JSON has no number for it (NaN, inf)."""
    return float(x) if math.isfinite(x) else None


def _report_checks(results, manifest):
    """Print and record each check; the exit code is 2 if one failed."""
    for name, flag in sorted(results.items()):
        manifest.set_check(name, flag)
        print("%-24s %s" % (name, "PASS" if flag else "FAIL"))
    return 0 if all(results.values()) else 2


def cmd_info(args):
    grid, t, data = fields.read_snapshot(args.snapshot)
    print("snapshot: %s" % args.snapshot)
    print("  n = %d, L = %.17g, t = %.17g, ncomp = %d"
          % (grid.n, grid.length, t, data.shape[0]))
    for i, comp in enumerate(data):
        print("  comp %d: L2 = %.10g, Linf = %.10g, mean = %.10g"
              % (i, grid.l2_norm(comp), float(np.max(np.abs(comp))),
                 float(np.mean(comp))))
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="nordlimit",
        description="Numerical laboratory for the light-speed limit of a "
                    "self-gravitating relativistic fluid")
    ap.add_argument("--config", metavar="PATH", help="run configuration file")
    ap.add_argument("--out", metavar="DIR", help="output directory")
    ap.add_argument("--seed", type=int, metavar="U64", default=0,
                    help="seed for randomized checks")
    ap.add_argument("--strict", action="store_true",
                    help="treat unknown config keys as errors")
    sub = ap.add_subparsers(dest="command")
    sub.add_parser("run-en", help="run the finite-c system")
    sub.add_parser("run-ep", help="run the limit system")
    sub.add_parser("sweep", help="run the convergence-rate experiment")
    sub.add_parser("check", help="run the invariant suite")
    info = sub.add_parser("info", help="print snapshot header and norms")
    info.add_argument("snapshot", help="snapshot file path")
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if args.seed < 0:  # numpy's generators take non-negative seeds only
            ap.error("argument --seed: expected a non-negative integer")
    except SystemExit as exc:
        if exc.code:  # argparse's usage errors exit 2, a failed check's code
            return 1
        raise
    if args.command is None:
        ap.print_usage(sys.stderr)
        return 1
    try:
        if args.command == "info":
            return cmd_info(args)
        if not args.config:
            print("error: --config is required for this command", file=sys.stderr)
            return 1
        cfg = parse_config(args.config, args.strict)
        sc = sweep_config_from(cfg).validate()
        out = _out_dir(args)
        manifest = Manifest(out, cfg, args, sc.n)
        handler = {"run-en": cmd_run, "run-ep": cmd_run,
                   "sweep": cmd_sweep, "check": cmd_check}[args.command]
        try:
            return handler(args, cfg, sc, out, manifest)
        finally:
            manifest.write()
    except (ConfigError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except MemoryError as exc:
        print("error: not enough memory: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
