"""Tests for the command-line interface: configs, exit codes, outputs."""

import concurrent.futures
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import nordlimit
from nordlimit import cli
from nordlimit import fields
from nordlimit import limit_harness as lh

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "configs")

# rates.csv of `nordlimit sweep` on configs/quick.ini as computed with
# classical RK4 at dt = cfl h / c and derivatives from full 3D transforms;
# kept as the oracle of any new integrator, which must stay within 1%
QUICK_RATES = [
    [10.0, 0.00055486491817880314, 0.0019323146683397096, 0.027195499851495719],
    [20.0, 0.0001331246480150836, 0.001048827993643985, 0.0070138049390631174],
    [40.0, 3.2566690649082622e-05, 0.00026772966158943859, 0.0017675824251957017],
]
# the same with the exponential integrator of `run` (within 5.1e-3 of
# RK4); a change of transform arithmetic may move these by roundoff only
QUICK_RATES_ETD = [
    [10.0, 0.00055597567616876649, 0.0019325769356603678, 0.027195499851495719],
    [20.0, 0.00013344437154064919, 0.0010488147023866039, 0.0070138049390631174],
    [40.0, 3.2402211516112506e-05, 0.00026769909408473717, 0.0017675824251957017],
]

QUIET = """
[grid]
n = 16

[perturbation]
amp_eta = 0.0
amp_p = 0.0
amp_vx = 0.0

[run]
t_final = 0.02
n_outputs = 2
"""

SMALL = """
[grid]
n = 16

[perturbation]
amp_eta = 0.02
amp_p = 0.02
amp_vx = 0.02

[run]
t_final = 0.02
n_outputs = 2
c = 10
"""


def write(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# every key of the schema, each with a value no other key has: the
# defaults repeat (center_x/y/z are all pi, amp_vy = amp_vz, eta_box = p_box)
EVERY_KEY = """
[grid]
n = 64
length = 7.5

[constants]
grav_g = 0.07
kappa = 1.1

[eos]
m0 = 1.3
gamma = 1.4
a_inf = 1.6
a1 = 0.8

[background]
eta = 1.05
p = 0.95

[admissible]
eta_min = 0.41
eta_max = 1.61
p_min = 0.42
p_max = 1.62

[perturbation]
amp_eta = 0.011
amp_p = 0.012
amp_vx = 0.013
amp_vy = 0.014
amp_vz = 0.015
center_x = 2.1
center_y = 2.2
center_z = 2.3
width = 0.9

[run]
t_final = 0.3
cfl = 0.45
n_outputs = 7
sobolev_order = 5
mollify_eps = 0.15
c = 33

[sweep]
c_values = 11,22,44
"""


def keys_of(cfg):
    return {(section, key) for section, keys in cfg.items() for key in keys}


def test_parse_config_round_trip(tmp_path):
    path = write(tmp_path, SMALL)
    cfg = cli.parse_config(path)
    assert cfg["grid"]["n"] == 16
    assert cfg["run"]["t_final"] == 0.02
    # reference.ini sets every key to the library default, as its header says
    reference = cli.parse_config(os.path.join(CONFIGS, "reference.ini"), strict=True)
    assert keys_of(reference) == keys_of(cli.CONFIG_SCHEMA)
    assert cli.sweep_config_from(reference) == lh.SweepConfig()


def test_every_config_key_sets_its_own_field(tmp_path):
    cfg = cli.parse_config(write(tmp_path, EVERY_KEY), strict=True)
    assert keys_of(cfg) == keys_of(cli.CONFIG_SCHEMA)
    values = [value for keys in cfg.values() for value in keys.values()]
    assert len(set(values)) == len(values)
    assert cli.sweep_config_from(cfg) == lh.SweepConfig(
        n=64, length=7.5, grav_g=0.07, kappa=1.1, m0=1.3, gamma=1.4,
        a_inf=1.6, a1=0.8, eta_bar=1.05, p_bar=0.95, amp_eta=0.011,
        amp_p=0.012, amp_v=(0.013, 0.014, 0.015), center=(2.1, 2.2, 2.3),
        width=0.9, c_values=(11.0, 22.0, 44.0), t_final=0.3, cfl=0.45,
        sobolev_order=5, n_outputs=7, mollify_eps=0.15,
        eta_box=(0.41, 1.61), p_box=(0.42, 1.62))
    assert cli._run_c_value(cfg) == 33.0


def test_unknown_key_warns_then_errors(tmp_path, capsys):
    path = write(tmp_path, SMALL + "\n[grid]\nbogus = 1\n".replace("[grid]\n", ""))
    text = SMALL + "bogus_key = 1\n"
    path = write(tmp_path, text, "bogus.ini")
    cfg = cli.parse_config(path)
    assert "bogus_key" not in cfg.get("run", {})
    assert "unknown config keys" in capsys.readouterr().err
    with pytest.raises(cli.ConfigError, match="unknown config keys"):
        cli.parse_config(path, strict=True)


def test_strict_flag_exit_code(tmp_path):
    path = write(tmp_path, SMALL + "bogus_key = 1\n")
    assert cli.main(["--config", path, "--strict", "--out", str(tmp_path),
                     "run-en"]) == 1


def test_kappa_zero_rejected(tmp_path):
    path = write(tmp_path, SMALL + "\n[constants]\nkappa = 0.0\n")
    code = cli.main(["--config", path, "--out", str(tmp_path), "run-en"])
    assert code == 1
    with pytest.raises(cli.ConfigError, match="kappa"):
        cli.sweep_config_from(cli.parse_config(path))


def test_missing_config_and_command(tmp_path):
    assert cli.main([]) == 1
    assert cli.main(["run-ep"]) == 1
    assert cli.main(["--config", str(tmp_path / "nope.ini"), "--out",
                     str(tmp_path), "run-ep"]) == 1


def test_run_ep_quiet(tmp_path):
    path = write(tmp_path, QUIET)
    out = tmp_path / "out"
    assert cli.main(["--config", path, "--out", str(out), "run-ep"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["checks"]["run_completed"] is True
    assert "run_ep_final.nrdf" in manifest["outputs"]
    diag = (out / "run_ep_diagnostics.csv").read_text().splitlines()
    assert diag[0] == "t,dt,minEta,minP,maxV,hNw,kgE"
    grid, t, data = fields.read_snapshot(str(out / "run_ep_final.nrdf"))
    assert grid.n == 16 and t == pytest.approx(0.02)
    assert data.shape[0] == 6  # five fluid fields plus the potential
    assert np.allclose(data[0], 1.0)


def test_run_en_small(tmp_path):
    path = write(tmp_path, SMALL)
    out = tmp_path / "out"
    assert cli.main(["--config", path, "--out", str(out), "run-en"]) == 0
    grid, t, data = fields.read_snapshot(str(out / "run_en_final.nrdf"))
    assert data.shape[0] == 7  # fluid, potential, and its time derivative
    assert t == pytest.approx(0.02)


@pytest.mark.parametrize("command", ["run-en", "run-ep", "sweep"])
@pytest.mark.parametrize("line, bad", [("n_outputs = 2", "n_outputs = 0"),
                                       ("t_final = 0.02", "t_final = -0.05"),
                                       ("t_final = 0.02", "t_final = inf")],
                         ids=["n_outputs=0", "t_final=-0.05", "t_final=inf"])
def test_malformed_run_values_fail_cleanly(tmp_path, capsys, command, line, bad):
    # no division by zero in the run loop, no backward or endless integration
    path = write(tmp_path, SMALL.replace(line, bad))
    assert cli.main(["--config", path, "--out", str(tmp_path / "out"),
                     command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s must be" % bad.split()[0])
    assert "Traceback" not in err


@pytest.mark.parametrize("text, message", [
    (SMALL + "\n[grid]\nn = 8\n", "malformed config: "),
    (SMALL.replace("n = 16", "n = 16\nn = 8"), "malformed config: "),
    ("n = 16\n" + SMALL, "malformed config: "),
    # no interpolation: '%' is a literal character, and the value fails its type
    (SMALL.replace("n = 16", "n = 16%"), "bad value for grid.n: "),
    # a finite length whose cube, the volume of the box, overflows
    (SMALL.replace("n = 16", "n = 16\nlength = 1e200"), "grid length must be "),
    # constants whose squares, divisors of the operators, are 0 or inf
    (SMALL + "\n[sweep]\nc_values = 10, 20, 1e200\n",
     "c squared leaves the float range: c = 1e+200"),
    (SMALL + "\n[constants]\nkappa = 1e-170\n",
     "kappa squared leaves the float range: kappa = 1e-170"),
    (SMALL + "\n[constants]\nkappa = 1e200\n",
     "kappa squared leaves the float range: kappa = 1e+200"),
    # a background density that overflows, and a coupling at which Newton's
    # iteration for phi_bar does not converge: no background exists
    (SMALL + "\n[eos]\nm0 = 1e308\n\n[background]\np = 4\n",
     "background density rho_c(p_bar) must be finite: inf at c = 10\n"),
    (SMALL + "\n[constants]\ngrav_g = 1e300\n",
     "background potential did not converge in 200 Newton steps: source "
     "rho_c - 3 p/c**2 = 0.98 at c = 10\n"),
], ids=["duplicate-section", "duplicate-option", "no-section-header", "percent",
        "huge-length", "c-squared-overflow", "kappa-squared-underflow",
        "kappa-squared-overflow", "background-density-overflow",
        "background-newton-diverges"])
def test_malformed_config_is_usage_error(tmp_path, capsys, text, message):
    path = write(tmp_path, text)
    assert cli.main(["--config", path, "--out", str(tmp_path / "out"),
                     "run-ep"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + message)
    assert "Traceback" not in err


@pytest.mark.parametrize("command, line, value", [
    pytest.param(command, "n = 16", "n = 8388608", id=command)
    for command in ("run-en", "run-ep", "sweep", "check")] + [
    # run-en and run-ep refuse 1e14 steps before they map any output (see
    # test_huge_finite_step_count_is_usage_error)
    pytest.param("sweep", "n_outputs = 2", "n_outputs = 100000000000000",
                 id="sweep-n_outputs"),
    # 1.97e17 bytes: past any x86-64 address space, so mmap fails with
    # ENOMEM, but below the size at which it raises OverflowError
    pytest.param("sweep", "n_outputs = 2", "n_outputs = 1000000000000",
                 id="sweep-n_outputs-enomem")])
def test_grid_too_large_to_allocate_is_usage_error(tmp_path, capsys, command,
                                                   line, value):
    # the n**3 arrays of the grid, or the sweep's mapping of the limit run's
    # outputs, exceed any address space: a clear message, not numpy's or
    # mmap's traceback, and the manifest is still written
    path = write(tmp_path, SMALL.replace(line, value))
    out = tmp_path / "out"
    assert cli.main(["--config", path, "--out", str(out), command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: not enough memory: ")
    assert "Traceback" not in err
    assert (out / "manifest.json").exists()


@pytest.mark.parametrize("box, text", [
    ("eta", "eta_min = 2.0"), ("p", "p_min = 0.7\np_max = 0.7"),
], ids=["eta", "p"])
def test_empty_admissible_box_is_usage_error(tmp_path, capsys, box, text):
    # an empty box is a config error, not a fault of the initial data
    path = write(tmp_path, SMALL + "\n[admissible]\n" + text + "\n")
    assert cli.main(["--config", path, "--out", str(tmp_path / "out"),
                     "run-ep"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: admissible %s box [" % box)


def reference_at_16(tmp_path, key, value):
    """configs/reference.ini at n = 16 with the line of key set to value."""
    with open(os.path.join(CONFIGS, "reference.ini")) as fh:
        text = fh.read().replace("n = 32", "n = 16")
    text, count = re.subn(r"^%s = .*$" % key, "%s = %s" % (key, value), text,
                          flags=re.M)
    assert count == 1
    return write(tmp_path, text)


@pytest.mark.parametrize("key, value, name, command", [
    ("length", "inf", "length", "run-ep"),
    ("length", "inf", "length", "run-en"),
    ("center_x", "inf", "center", "run-ep"),
    ("center_x", "inf", "center", "run-en"),
    ("amp_eta", "nan", "amp_eta", "run-ep"),
    ("eta", "nan", "eta_bar", "run-ep"),
    ("grav_g", "inf", "grav_g", "run-ep"),
    ("m0", "inf", "m0", "run-ep"),
    ("a1", "nan", "a1", "run-en"),
])
def test_non_finite_config_value_is_usage_error(tmp_path, capsys, key, value,
                                                name, command):
    # an infinity or a NaN is refused by name before it reaches the physics
    path = reference_at_16(tmp_path, key, value)
    assert cli.main(["--config", path, "--out", str(tmp_path / "out"),
                     command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s must be finite, got " % name)
    assert "Traceback" not in err


@pytest.mark.parametrize("command, line, bad, message", [
    pytest.param(command, line, bad, message, id="%s-%s" % (command, name))
    for name, line, bad, message in (
        ("cfl=5e-324", "c = 10", "c = 10\ncfl = 5e-324", "time step 0.0 "),
        ("cfl=1e-320", "c = 10", "c = 10\ncfl = 1e-320", "output interval "),
        ("t_final=1e308", "t_final = 0.02", "t_final = 1e308",
         "output interval "))
    for command in ("run-en", "run-ep", "sweep", "check")
    # check runs to min(t_final, 0.1), so t_final = 1e308 is valid there
    if (command, name) != ("check", "t_final=1e308")])
def test_step_count_out_of_range_is_usage_error(tmp_path, capsys, command,
                                                line, bad, message):
    # a cfl that rounds dt_max to 0, or an output interval of infinitely
    # many steps: refused before the first step, not a ZeroDivisionError or
    # an OverflowError, and the manifest is still written
    path = write(tmp_path, SMALL.replace(line, bad))
    out = tmp_path / "out"
    assert cli.main(["--config", path, "--out", str(out), command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + message)
    assert "Traceback" not in err
    assert (out / "manifest.json").exists()


@pytest.mark.parametrize("command, key, value", [
    pytest.param(command, key, value, id="%s-%s=%s" % (command, key, value))
    for key, value in (("t_final", "1e308"), ("cfl", "1e-300"),
                       ("n_outputs", "100000000000000"))
    for command in ("run-en", "run-ep", "sweep", "check")
    # check runs to min(t_final, 0.1), so t_final = 1e308 is valid there; a
    # sweep of 1e14 outputs runs out of memory first
    if (command, key) not in {("check", "t_final"), ("sweep", "n_outputs")}])
def test_huge_finite_step_count_is_usage_error(tmp_path, capsys, command, key,
                                               value):
    # about 4e307 (t_final) or 2e298 (cfl) steps per output, or one step for
    # each of 1e14 outputs: finite, but a run that would never end; refused
    # before the first step, and the manifest is still written
    path = reference_at_16(tmp_path, key, value)
    out = tmp_path / "out"
    assert cli.main(["--config", path, "--out", str(out), command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: output interval ")
    assert re.search(r": [0-9.e+]+ steps per output times [0-9]+ outputs is "
                     r"more than 100000000 steps$", err.strip()), err
    assert "Traceback" not in err
    assert (out / "manifest.json").exists()


@pytest.mark.parametrize("command, amp_vx", [
    pytest.param(command, amp_vx, id=command + suffix)
    for amp_vx, suffix in (("1e300", ""), ("1.7e308", "-1.7e308"))
    for command in ("run-ep", "run-en", "sweep", "check")])
def test_overflowing_signal_speed_is_exit_2(tmp_path, capsys, command, amp_vx):
    # |v| = 1e300 makes the signal speed inf and dt_max 0: an abort of the
    # initial state, not a ZeroDivisionError; near the float maximum the
    # data's transforms overflow too
    path = reference_at_16(tmp_path, "amp_vx", amp_vx)
    assert cli.main(["--config", path, "--out", str(tmp_path / "out"),
                     command]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "Warning" not in err


def test_check_of_superluminal_run_is_exit_2(tmp_path, capsys):
    # amp_vx = 25 at c = 20 aborts the run at its initial state; the
    # invariants of a run that did not complete FAIL without evaluation
    with open(os.path.join(CONFIGS, "quick.ini")) as fh:
        path = write(tmp_path, fh.read().replace("amp_vx = 0.02", "amp_vx = 25"))
    out = tmp_path / "out"
    assert cli.main(["--config", path, "--out", str(out), "check"]) == 2
    err = capsys.readouterr().err
    assert "run aborted: initial state: velocity reached c/2" in err
    assert "Traceback" not in err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["abort_reason"] == "initial state: velocity reached c/2"
    assert manifest["checks"] == {"eos_rates": True, "en_run": False, "positivity": False,
                      "kg_inequality": False, "divergence_identity": False}
    assert not (out / "divergence_check.csv").exists()


def test_run_en_requires_finite_c(tmp_path):
    path = write(tmp_path, QUIET)  # no run.c, defaults to inf
    assert cli.main(["--config", path, "--out", str(tmp_path), "run-en"]) == 1


def test_run_en_strong_gravity(tmp_path, capsys):
    # quick.ini with G = 1e4 at c = 160: the background potential
    # (|phi_bar| ~ 1e4) is found, and the collapsing run is aborted and
    # reported, not ended by a traceback
    with open(os.path.join(CONFIGS, "quick.ini")) as fh:
        text = fh.read().replace("c = 20", "c = 160")
    path = write(tmp_path, text + "\n[constants]\ngrav_g = 1e4\n")
    out = tmp_path / "out"
    assert cli.main(["--config", path, "--out", str(out), "run-en"]) == 2
    assert "Traceback" not in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["abort_reason"].startswith("CFL margin violated")


@pytest.mark.parametrize("command, key, value", [
    ("sweep", "c_values = 10,20,40", "c_values = 1,20,40"),
    ("run-en", "c = 20", "c = 1")], ids=["sweep", "run-en"])
def test_light_speed_without_background_is_usage_error(tmp_path, capsys,
                                                       command, key, value):
    # quick.ini at c = 1: the background source rho_c - 3 p/c**2 is 2 - 3,
    # so no background potential exists; the error names that c, and the
    # sweep fails before its limit run
    with open(os.path.join(CONFIGS, "quick.ini")) as fh:
        text = fh.read().replace(key, value)
    path = write(tmp_path, text)
    out = str(tmp_path / "out")
    assert cli.main(["--config", path, "--out", out, command]) == 1
    err = capsys.readouterr().err
    assert ("error: background source density rho_c - 3 p/c**2 must be "
            "positive: -1 at c = 1\n") in err
    assert "limit run:" not in err


def test_sweep_worker_that_dies_is_exit_1(tmp_path, monkeypatch, capsys):
    # a rung's worker that exits without a result (as one killed for lack
    # of memory would) ends the sweep with a clear error, the manifest
    # written and no worker left behind
    from nordlimit import euler_nordstrom as en

    def exit_abruptly(*args, **kwargs):
        os._exit(3)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(en, "run", exit_abruptly)
    out = tmp_path / "out"
    path = os.path.join(CONFIGS, "quick.ini")
    assert cli.main(["--config", path, "--out", str(out), "sweep"]) == 1
    err = capsys.readouterr().err
    assert "error: A process in the process pool was terminated abruptly" in err
    assert "Traceback" not in err
    assert (out / "manifest.json").exists()
    assert multiprocessing.active_children() == []


def test_out_flag_honoured_with_env_set(tmp_path, monkeypatch):
    # no environment variable redirects the outputs away from --out
    path = write(tmp_path, QUIET)
    monkeypatch.setenv("NORDLIMIT_OUT", str(tmp_path / "env_out"))
    assert cli.main(["--config", path, "--out", str(tmp_path / "flag_out"),
                     "run-ep"]) == 0
    assert (tmp_path / "flag_out" / "manifest.json").exists()
    assert not (tmp_path / "env_out").exists()


def test_info_subcommand(tmp_path, capsys):
    path = write(tmp_path, QUIET)
    out = tmp_path / "out"
    assert cli.main(["--config", path, "--out", str(out), "run-ep"]) == 0
    capsys.readouterr()
    assert cli.main(["info", str(out / "run_ep_final.nrdf")]) == 0
    text = capsys.readouterr().out
    assert "n = 16" in text and "comp 0" in text


def test_info_rejects_bad_file(tmp_path):
    bad = tmp_path / "bad.nrdf"
    bad.write_bytes(b"not a snapshot")
    assert cli.main(["info", str(bad)]) == 1


def test_manifest_written_on_failure(tmp_path):
    # data rejected by the admissible box still leaves a manifest behind
    text = SMALL + "\n[admissible]\neta_min = 0.999\neta_max = 1.001\n"
    path = write(tmp_path, text)
    out = tmp_path / "out"
    assert cli.main(["--config", path, "--out", str(out), "run-en"]) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["checks"] == {}
    assert manifest["end_time"] is not None


def test_run_c_value_parsing():
    assert cli._run_c_value({"run": {"c": "inf"}}) == math.inf
    assert cli._run_c_value({}) == math.inf
    assert cli._run_c_value({"run": {"c": "25"}}) == 25.0
    assert cli._run_c_value({"run": {"c": " Infinity "}}) == math.inf
    with pytest.raises(cli.ConfigError):
        cli._run_c_value({"run": {"c": "-3"}})
    with pytest.raises(cli.ConfigError):
        cli._run_c_value({"run": {"c": "fast"}})


def test_sweep_quick_rates_golden(tmp_path):
    out = tmp_path / "out"
    path = os.path.join(CONFIGS, "quick.ini")
    assert cli.main(["--config", path, "--out", str(out), "sweep"]) == 0
    lines = (out / "rates.csv").read_text().splitlines()
    assert lines[0] == "c,supWdiff,supPhidiff,phiBarGap"
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert rows.shape == (3, 4)
    assert np.max(np.abs(rows - QUICK_RATES) / np.abs(QUICK_RATES)) <= 1e-2
    assert np.max(np.abs(rows - QUICK_RATES_ETD) / np.abs(QUICK_RATES_ETD)) <= 1e-9


def test_no_threads_flag(tmp_path):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["--threads", "2", "run-ep"])
    path = write(tmp_path, QUIET)
    out = tmp_path / "out"
    assert cli.main(["--config", path, "--out", str(out), "run-ep"]) == 0
    assert "threads" not in json.loads((out / "manifest.json").read_text())


@pytest.mark.parametrize("argv, message", [
    (["--bogus"], "unrecognized arguments: --bogus"),
    (["frobnicate"], "invalid choice: 'frobnicate'"),
    (["--seed", "abc", "check"], "argument --seed: invalid int value"),
    (["--seed", "-3", "check"], "argument --seed: expected a non-negative"),
], ids=["bad-flag", "bad-command", "bad-seed", "negative-seed"])
def test_argparse_errors_are_usage_errors(capsys, argv, message):
    # exit 1, not argparse's 2, which is the code of a failed check
    assert cli.main(argv) == 1
    assert message in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "--seed" in capsys.readouterr().out


def _run_fresh(code, env=None):
    """Run code in a fresh interpreter that imports this nordlimit, under env
    (default: this process's environment); returns its stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nordlimit.__file__)))
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _assert_cli_import_leaves_out(module):
    """Importing nordlimit.cli in a fresh interpreter does not load module."""
    _run_fresh("import sys, nordlimit.cli; assert %r not in sys.modules" % module)


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("user", [None, "2"], ids=["unset", "user-set"])
def test_import_pins_blas_to_one_thread_unless_set(user):
    # the program's forked workers and transform threads are its
    # parallelism: importing the package sets one BLAS thread per process
    # before numpy loads, and leaves a count the user chose alone
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    if user is not None:
        env.update(dict.fromkeys(BLAS_VARS, user))
    code = ("import os, sys, nordlimit; assert 'numpy' not in sys.modules; "
            "print(' '.join(os.environ[k] for k in %r))" % (BLAS_VARS,))
    assert _run_fresh(code, env).split() == [user or "1"] * 3


def test_cli_does_not_import_scipy():
    _assert_cli_import_leaves_out("scipy")


def test_cli_does_not_import_process_pool():
    # the pool's modules (about 2 MB resident) load only for a parallel sweep
    _assert_cli_import_leaves_out("concurrent.futures.process")


def test_cli_does_not_import_thread_pool():
    # transforms start threads only on a grid large enough to fan out
    _assert_cli_import_leaves_out("concurrent.futures.thread")


def test_sweep_manifest_records_runs_and_progress(tmp_path, capsys):
    out = tmp_path / "out"
    path = os.path.join(CONFIGS, "quick.ini")
    assert cli.main(["--config", path, "--out", str(out), "sweep"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["runs"]) == {"inf", "10", "20", "40"}
    # every stability step exceeds the output interval of 0.01, which sets dt
    for key in ("10", "20", "40"):
        run = manifest["runs"][key]
        assert run["dt_reason"] == "output interval"
        assert run["steps"] == 5 and run["rhs_evals"] == 20
        assert run["dt"] == pytest.approx(0.01) and run["wall_s"] > 0
    assert manifest["runs"]["inf"]["dt_reason"] == "output interval"
    assert "abort_reasons" not in manifest
    assert_positive_number(manifest["peak_rss_mb"])
    # each run records the peak of the process it ran in: a rung its
    # worker's, the limit run this process's at its end
    for key in ("inf", "10", "20", "40"):
        assert_positive_number(manifest["runs"][key]["peak_rss_mb"])
    assert (manifest["runs"]["inf"]["peak_rss_mb"]
            <= manifest["peak_rss_mb"])
    assert "peak_rss_children_mb" not in manifest
    assert set(manifest["phases_s"]) == {"bundle", "runs", "report"}
    assert all(t >= 0 for t in manifest["phases_s"].values())
    assert_records_parallelism(manifest)
    err = capsys.readouterr().err.splitlines()
    for c in ("10", "20", "40"):
        assert sum(line.startswith("c=%s: 5 steps" % c) for line in err) == 1
    # one progress line per run, in ladder order, though the rungs run in
    # parallel with the limit run
    labels = [line.split(":")[0] for line in err
              if line.startswith(("limit run:", "c="))]
    assert labels == ["limit run", "c=10", "c=20", "c=40"]


# a process that first reaps a child of 200 MB resident, then runs a quick
# sweep on two fork workers; it prints that child's peak in MB
BIG_CHILD_THEN_SWEEP = """
import os, resource, subprocess, sys
subprocess.run([sys.executable, "-c", "b = b'x' * (200 << 20)"], check=True)
os.sched_getaffinity = lambda pid: {0, 1}
from nordlimit import cli
assert cli.main(["--config", sys.argv[1], "--out", sys.argv[2], "sweep"]) == 0
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
"""


def test_rung_peak_memory_is_its_own_workers(tmp_path):
    # a rung records its worker's own peak, not the largest child the
    # process ever reaped
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(nordlimit.__path__[0]))
    done = subprocess.run(
        [sys.executable, "-c", BIG_CHILD_THEN_SWEEP,
         os.path.join(CONFIGS, "quick.ini"), str(out)],
        env=env, capture_output=True, text=True, check=True)
    child_mb = float(done.stdout.split()[-1])
    assert child_mb >= 200
    runs = json.loads((out / "manifest.json").read_text())["runs"]
    for key in ("10", "20", "40"):
        assert 0 < runs[key]["peak_rss_mb"] < child_mb


def assert_records_parallelism(manifest, outputs=None):
    # below 64**3 the grid transforms run on the calling thread alone
    assert manifest["cpus"] == len(os.sched_getaffinity(0))
    assert manifest["transform_threads"] == 1
    if outputs is not None:
        # a check manifest: its per-output work forks one worker per CPU,
        # at most one per output, and it records the wall time of its phases
        assert manifest["fork_workers"] == min(outputs, manifest["cpus"])
        assert set(manifest["phases_s"]) == {"bundle", "eos_rates", "en_run",
                                             "outputs"}
        assert all(t >= 0 for t in manifest["phases_s"].values())


def assert_positive_number(x):
    assert isinstance(x, (int, float)) and not isinstance(x, bool) and x > 0


def _reject_constant(name):
    raise ValueError("manifest holds %s, which strict JSON does not allow" % name)


# the output interval of 0.01 is shorter than both systems' stability steps
@pytest.mark.parametrize("command, c, dt_reason", [
    ("run-en", 10.0, "output interval"),
    ("run-ep", "inf", "output interval"),
], ids=["run-en", "run-ep"])
def test_run_manifest_records_run(tmp_path, capsys, command, c, dt_reason):
    path = write(tmp_path, SMALL)
    out = tmp_path / "out"
    assert cli.main(["--config", path, "--out", str(out), command]) == 0
    manifest = json.loads((out / "manifest.json").read_text(),
                          parse_constant=_reject_constant)
    assert_records_parallelism(manifest)
    run = manifest["run"]
    assert run["c"] == c
    assert run["dt_reason"] == dt_reason
    assert run["steps"] == 2 and run["rhs_evals"] == 8
    assert run["dt"] == pytest.approx(0.01) and run["wall_s"] > 0
    assert_positive_number(run["peak_rss_mb"])
    assert capsys.readouterr().out == (
        "%s complete: t=0.02, dt=0.01 (%s), steps=2, outputs=3\n"
        % (command, dt_reason))


@pytest.mark.parametrize("command", ["run-ep", "run-en"])
def test_run_memory_does_not_grow_with_outputs(tmp_path, command):
    # each output goes to its diagnostics row and is dropped: 64 outputs
    # peak less than one state (7 fields of 16**3) above 4, one step each
    peaks = []
    for outputs in (4, 64):
        path = write(tmp_path, SMALL.replace("t_final = 0.02", "t_final = 0.2")
                     .replace("n_outputs = 2", "n_outputs = %d" % outputs))
        out = tmp_path / ("out%d" % outputs)
        tracemalloc.start()
        try:
            assert cli.main(["--config", path, "--out", str(out), command]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        rows = out / (command.replace("-", "_") + "_diagnostics.csv")
        assert len(rows.read_text().splitlines()) == outputs + 2
    assert peaks[1] - peaks[0] < 7 * 16**3 * 8


def _raise_in_step(*args):
    raise ValueError("superluminal velocity at grid point (0, 1, 2)")


def test_step_failure_is_exit_2(tmp_path, monkeypatch, capsys):
    # a physics failure inside a step is a recorded abort, not a usage error
    from nordlimit import euler_nordstrom as en
    from nordlimit import euler_poisson as ep
    monkeypatch.setattr(en, "etd_step", _raise_in_step)
    monkeypatch.setattr(ep, "step", _raise_in_step)
    for command in ("run-en", "run-ep"):
        out = tmp_path / command
        path = write(tmp_path, SMALL)
        assert cli.main(["--config", path, "--out", str(out), command]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["checks"]["run_completed"] is False
        assert manifest["abort_reason"] == ("step 1 from t=0 failed: superluminal "
                                            "velocity at grid point (0, 1, 2)")
    assert "run aborted: step 1 from t=0" in capsys.readouterr().err


def test_sweep_abort_is_exit_2(tmp_path, monkeypatch, capsys):
    from nordlimit import euler_nordstrom as en
    monkeypatch.setattr(en, "etd_step", _raise_in_step)
    out = tmp_path / "out"
    path = os.path.join(CONFIGS, "quick.ini")
    assert cli.main(["--config", path, "--out", str(out), "sweep"]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["checks"] == {"rate_thresholds": False}
    assert manifest["abort_reasons"] == {
        "10": "step 1 from t=0 failed: superluminal velocity at grid point (0, 1, 2)"}
    assert manifest["runs"]["10"]["steps"] == 0
    assert manifest["runs"]["inf"]["steps"] == 5
    assert not (out / "rates.csv").exists()
    assert "sweep aborted: finite-c run aborted at c=10" in capsys.readouterr().err


def test_sweep_middle_rung_abort_is_exit_2(tmp_path, monkeypatch, capsys):
    # only c = 20 fails: the partial result holds the runs up to it, in
    # ladder order, although c = 40 may finish first
    from nordlimit import euler_nordstrom as en
    real = en.etd_step

    def failing_at_20(state, stepper):
        if state.consts.c == 20.0:
            _raise_in_step()
        return real(state, stepper)

    monkeypatch.setattr(en, "etd_step", failing_at_20)
    out = tmp_path / "out"
    path = os.path.join(CONFIGS, "quick.ini")
    assert cli.main(["--config", path, "--out", str(out), "sweep"]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["abort_reasons"] == {
        "20": "step 1 from t=0 failed: superluminal velocity at grid point (0, 1, 2)"}
    assert set(manifest["runs"]) == {"inf", "10", "20"}
    assert manifest["runs"]["10"]["steps"] == 5
    assert manifest["runs"]["20"]["steps"] == 0
    assert not (out / "rates.csv").exists()
    assert "sweep aborted: finite-c run aborted at c=20" in capsys.readouterr().err


def test_sweep_on_one_cpu_runs_in_process(tmp_path, monkeypatch):
    # with one usable CPU the rungs run in this process: no pool is made
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was created on one CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    out = tmp_path / "out"
    path = os.path.join(CONFIGS, "quick.ini")
    assert cli.main(["--config", path, "--out", str(out), "sweep"]) == 0
    lines = (out / "rates.csv").read_text().splitlines()
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert np.max(np.abs(rows - QUICK_RATES_ETD) / np.abs(QUICK_RATES_ETD)) <= 1e-9


def test_check_builds_background_once_per_output(tmp_path, monkeypatch):
    # 9 outputs, one build each: positivity, the field energy and the
    # divergence identity share it (18 with a pass for each)
    from nordlimit import energy_currents as ec
    real = ec.background_coeffs
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(ec, "background_coeffs", counted)
    out = tmp_path / "out"
    path = os.path.join(CONFIGS, "quick.ini")
    # counted in this process: one CPU keeps the per-output work here
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert cli.main(["--config", path, "--out", str(out), "check"]) == 0
    assert len(calls) == 9
    assert_records_parallelism(json.loads((out / "manifest.json").read_text()),
                               outputs=9)


def test_check_on_two_cpus_matches_one(tmp_path, monkeypatch, capsys):
    # the per-output work runs in two forked workers or in this process;
    # the printout and the divergence CSV are the same byte for byte
    path = os.path.join(CONFIGS, "quick.ini")
    seen = []
    for cpus in (2, 1):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        out = tmp_path / str(cpus)
        assert cli.main(["--config", path, "--out", str(out), "check"]) == 0
        manifest = json.loads((out / "manifest.json").read_text(),
                              parse_constant=_reject_constant)
        assert_records_parallelism(manifest, outputs=9)
        # the finite-c run's telemetry, keyed by its c as the sweep keys
        # its runs (8 outputs to t = 0.05, one step each), and the memory
        run = manifest["runs"]["20"]
        assert manifest["runs"] == {"20": {
            "dt": pytest.approx(0.00625), "dt_reason": "output interval",
            "steps": 8, "rhs_evals": 32, "wall_s": run["wall_s"],
            "peak_rss_mb": run["peak_rss_mb"]}}
        assert run["wall_s"] > 0
        assert_positive_number(run["peak_rss_mb"])
        assert_positive_number(manifest["peak_rss_mb"])
        seen.append((capsys.readouterr().out,
                     (out / "divergence_check.csv").read_bytes(),
                     manifest["check_values"]))
    assert seen[0] == seen[1]
    # the number behind each verdict
    values = seen[0][2]
    assert set(values) == {"eos_rates", "positivity", "kg_inequality",
                           "divergence_identity"}
    assert all(s <= -1.9 for s in values["eos_rates"].values())
    assert values["positivity"] > 0
    assert 0 < values["kg_inequality"] <= 1.0
    assert 0 <= values["divergence_identity"] <= 1e-3


def test_check_rejects_nan_mollify_eps(tmp_path, capsys):
    # NaN data would make every divergence row NaN; it is a config error
    path = write(tmp_path, SMALL + "mollify_eps = nan\n")
    assert cli.main(["--config", path, "--out", str(tmp_path / "out"),
                     "check"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: mollify_eps must be")
    assert "Traceback" not in err


def test_check_rejects_huge_mollify_eps(tmp_path, capsys):
    # a Gaussian wider than the box overflowed eps**2 in Grid3.mollify; the
    # box length itself is allowed
    path = write(tmp_path, SMALL + "mollify_eps = 1e200\n")
    assert cli.main(["--config", path, "--out", str(tmp_path / "out"),
                     "check"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: mollify_eps must be")
    assert "Traceback" not in err
    lh.SweepConfig(mollify_eps=2.0 * math.pi).validate()


def test_lost_positivity_is_exit_2(tmp_path, monkeypatch):
    # a current that is negative everywhere is a physics failure: check
    # records it and exits 2 (not 1, the usage/config-error code); -j0 has
    # the ratios (-max, -min)
    from nordlimit import energy_currents as ec
    real = ec.positivity_ratio
    monkeypatch.setattr(ec, "positivity_ratio",
                        lambda *args: tuple(-x for x in reversed(real(*args))))
    out = tmp_path / "out"
    path = os.path.join(CONFIGS, "quick.ini")
    assert cli.main(["--config", path, "--out", str(out), "check"]) == 2
    manifest = json.loads((out / "manifest.json").read_text(),
                          parse_constant=_reject_constant)
    assert manifest["checks"]["positivity"] is False


# gamma = 3 and p_bar = 0.5 are causal at c = 1.3, but the bump's peak
# p = 1.3 is past the sound-speed bound (2 c**2 / 3)**1.5 = 1.196
NON_CAUSAL_BUMP = """
[grid]
n = 16

[eos]
gamma = 3

[background]
p = 0.5

[admissible]
p_min = 0.1
p_max = 2

[perturbation]
amp_p = 0.8

[run]
t_final = 0.05
n_outputs = 5
c = 1.3

[sweep]
c_values = 1.3,2,4
"""
NON_CAUSAL_REASON = ("initial state: sound speed reached the light speed: "
                     "non-causal state at grid point (8, 8, 8)")


def test_non_causal_run_en_is_recorded_abort(tmp_path, capsys):
    # a physics failure, not a usage error: exit 2 with the abort and the
    # run record (dt = 0: no signal speed can be formed) in strict JSON
    path = write(tmp_path, NON_CAUSAL_BUMP)
    out = tmp_path / "out"
    assert cli.main(["--config", path, "--out", str(out), "run-en"]) == 2
    assert capsys.readouterr().err == "run aborted: %s\n" % NON_CAUSAL_REASON
    manifest = json.loads((out / "manifest.json").read_text(),
                          parse_constant=_reject_constant)
    assert manifest["abort_reason"] == NON_CAUSAL_REASON
    assert manifest["checks"]["run_completed"] is False
    run = manifest["run"]
    assert (run["c"], run["dt"], run["steps"]) == (1.3, 0.0, 0)
    assert_positive_number(run["peak_rss_mb"])


def test_non_causal_sweep_rung_is_recorded_abort(tmp_path):
    # the first rung is not causal: the sweep exits 2 with its reason and
    # the records of the limit run and of that rung
    path = write(tmp_path, NON_CAUSAL_BUMP)
    out = tmp_path / "out"
    assert cli.main(["--config", path, "--out", str(out), "sweep"]) == 2
    manifest = json.loads((out / "manifest.json").read_text(),
                          parse_constant=_reject_constant)
    assert manifest["abort_reasons"] == {"1.3": NON_CAUSAL_REASON}
    assert set(manifest["runs"]) == {"inf", "1.3"}
    assert manifest["runs"]["inf"]["steps"] == 5
    assert (manifest["runs"]["1.3"]["dt"], manifest["runs"]["1.3"]["steps"]) \
        == (0.0, 0)
    assert manifest["checks"]["rate_thresholds"] is False


def check_lines(out):
    """{check name: PASS or FAIL} from check's printout."""
    return dict(line.split() for line in out.splitlines())


def test_growing_field_energy_fails_kg_inequality(tmp_path, monkeypatch, capsys):
    # a field energy growing faster than e0 + c t sup|l| fails only the
    # field-energy inequality
    from nordlimit import energy_currents as ec
    monkeypatch.setattr(ec, "kg_energy", lambda state, phi_data, order:
                        1.0 + 1e9 * state.t)
    out = tmp_path / "out"
    path = os.path.join(CONFIGS, "quick.ini")
    assert cli.main(["--config", path, "--out", str(out), "check"]) == 2
    assert check_lines(capsys.readouterr().out) == {
        "divergence_identity": "PASS", "en_run": "PASS", "eos_rates": "PASS",
        "kg_inequality": "FAIL", "positivity": "PASS"}
    manifest = json.loads((out / "manifest.json").read_text(),
                          parse_constant=_reject_constant)
    assert manifest["check_values"]["kg_inequality"] > 1.0


def test_nan_positivity_ratio_fails_positivity(tmp_path, monkeypatch, capsys):
    # a NaN min ratio at one output after the first fails positivity, as
    # a NaN is not > 0 (min() over the outputs would skip it); its number
    # is null in the strict-JSON manifest
    from nordlimit import energy_currents as ec
    real = ec.positivity_ratio
    calls = []

    def nan_at_third(*args):
        calls.append(1)
        return (math.nan, math.nan) if len(calls) == 3 else real(*args)

    monkeypatch.setattr(ec, "positivity_ratio", nan_at_third)
    # one CPU: the outputs are taken in order, in this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    out = tmp_path / "out"
    path = os.path.join(CONFIGS, "quick.ini")
    assert cli.main(["--config", path, "--out", str(out), "check"]) == 2
    assert check_lines(capsys.readouterr().out) == {
        "divergence_identity": "PASS", "en_run": "PASS", "eos_rates": "PASS",
        "kg_inequality": "PASS", "positivity": "FAIL"}
    manifest = json.loads((out / "manifest.json").read_text(),
                          parse_constant=_reject_constant)
    assert manifest["check_values"]["positivity"] is None
