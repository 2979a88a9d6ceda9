"""Span tracing of nordlimit from the outside, and the per-layer metrics.

`Tracer.installed()` replaces every public function of each nordlimit
module, every public `Grid3` method and the private right-hand-side
boundary `_deriv` of both integrators with a wrapper that records one span:
name, start, end, parent and, for a few calls, the work done.  The program
itself carries no instrumentation; leaving the context restores the
originals.  Spans stay in memory until `write` stores them.

`layer_metrics` turns the spans of one pass into the per-layer metrics:

* `<module>.self_s` is the time inside that module's spans minus the time
  of their child spans.  Summed over the modules, plus the time of the pass
  spent outside any span (`process.outside_spans_s`), it gives the traced
  wall time of the pass by construction.  What `accounting_problems` checks
  instead is that the spans nest and that the time outside them is small.
* `<module>.<function>_s` is the inclusive time of the outermost calls of
  one function: it includes the child spans, so these overlap.
* counts (`*.steps`, `*.rhs_evals`, `fields.transforms`, ...) are per pass.
"""

import contextlib
import functools
import inspect
import json
import time

import numpy as np

MODULES = ("cli", "eos", "fields", "initial_data", "euler_nordstrom",
           "euler_poisson", "energy_currents", "limit_harness")
INTEGRATORS = {"euler_nordstrom": "en", "euler_poisson": "ep"}
LADDER = (10.0, 20.0, 40.0)
# functions whose inclusive time is a per-layer metric
FIELD_FNS = ("fft", "ifft", "gradient", "dealias", "laplacian",
             "helmholtz_solve", "derivative", "sobolev_norm")
CURRENT_FNS = ("divergence_identity_check", "positivity_ratio", "kg_energy")
_NAME, _START, _END, _PARENT, _WORK, _OUTER = range(6)
# the benchmark's own oracle and glue, outside every span, may take at most
# this share of a traced pass
OUTSIDE_SHARE = 0.05


def _transform_work(args, result):
    """(scalar 3D transforms, bytes in + out) of one Grid3.fft/ifft call."""
    arr = np.asarray(args[1])
    count = int(np.prod(arr.shape[:-3], dtype=np.int64))
    return count, arr.nbytes + np.asarray(result).nbytes


def _snapshot_bytes(args, result):
    if result is None:  # write_snapshot(path, grid, t, fields)
        return np.asarray(args[3]).size * 8 + 32
    return result[2].nbytes + 32  # read_snapshot -> (grid, t, fields)


def _rung_label(args, result):
    return float(args[1].c)  # lift_to_relativistic(bundle, consts)


WORK = {"fields.fft": _transform_work, "fields.ifft": _transform_work,
        "fields.write_snapshot": _snapshot_bytes,
        "fields.read_snapshot": _snapshot_bytes,
        "initial_data.lift_to_relativistic": _rung_label}


class Tracer:
    """Records spans of wrapped nordlimit calls; one thread, strictly nested."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self._stack = []
        self._active = {}

    def _wrap(self, fn, name):
        spans, stack, active = self.spans, self._stack, self._active
        work = WORK.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            depth = active.get(name, 0)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, depth == 0]
            spans.append(span)
            stack.append(sid)
            active[name] = depth + 1
            span[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = clock()
                stack.pop()
                active[name] = depth
            if work is not None:
                span[_WORK] = work(args, result)
            return result

        return traced

    def _targets(self):
        """(owner, attribute, span name) of every call site to wrap."""
        for mod_name in MODULES:
            mod = getattr(self.package, mod_name)
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") or (
                    mod_name in INTEGRATORS and attr == "_deriv")
                if (public and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    yield mod, attr, "%s.%s" % (mod_name, attr)
        grid_cls = self.package.fields.Grid3
        for attr, obj in vars(grid_cls).items():
            if not attr.startswith("_") and inspect.isfunction(obj):
                yield grid_cls, attr, "fields.%s" % attr

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, name in list(self._targets()):
                orig = vars(owner)[attr]
                saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(orig, name))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def write(self, path):
        names = sorted({s[_NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "work"],
                       "names": names,
                       "spans": [[index[s[_NAME]], s[_START], s[_END],
                                  s[_PARENT], s[_WORK]] for s in self.spans]},
                      fh)


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for fn in FIELD_FNS + ("snapshot_io",):
        units["fields.%s_s" % fn] = "s"
    units.update({"fields.transforms": "count",
                  "fields.transforms_per_rhs.en": "count",
                  "fields.transforms_per_rhs.ep": "count",
                  "fields.transform_bytes_computed": "B",
                  "fields.snapshot_bytes": "B"})
    for mod in INTEGRATORS:
        units.update({mod + ".steps": "count", mod + ".rhs_evals": "count",
                      mod + ".step_p50_ms": "ms", mod + ".step_p95_ms": "ms"})
    units.update({"euler_nordstrom.fluid_rhs_s": "s",
                  "euler_nordstrom.potential_rhs_s": "s",
                  "euler_poisson.newtonian_rhs_s": "s",
                  "euler_poisson.solve_constraint_s": "s"})
    for fn in CURRENT_FNS + ("eov_inhomogeneity",):
        units["energy_currents.%s_s" % fn] = "s"
    for c in LADDER:
        units["limit_harness.rung_s.c%g" % c] = "s"
    units.update({"limit_harness.compare_s": "s",
                  "limit_harness.residuals_s": "s",
                  "eos.calls": "count", "eos.background_potential_s": "s"})
    for mod in MODULES:
        units[mod + ".self_s"] = "s"
    units.update({"process.cpu_s": "s", "process.traced_wall_s": "s",
                  "process.untraced_wall_s": "s",
                  "process.outside_spans_s": "s",
                  "process.tracing_overhead_s": "s"})
    return units


def layer_metrics(spans, wall):
    """Per-layer metrics of one traced pass of duration `wall` seconds.

    Returns every metric of `metric_units()` but the `process.*` ones taken
    from the untraced passes; layers the pass did not touch read 0.
    """
    out = {name: 0.0 for name in metric_units()
           if not name.startswith("process.")}
    child = [0.0] * len(spans)
    for s in spans:
        if s[_PARENT] >= 0:
            child[s[_PARENT]] += s[_END] - s[_START]

    def inclusive(name):
        return sum(s[_END] - s[_START] for s in spans
                   if s[_NAME] == name and s[_OUTER])

    top = 0.0
    for i, s in enumerate(spans):
        dur = s[_END] - s[_START]
        out[s[_NAME].split(".")[0] + ".self_s"] += dur - child[i]
        if s[_PARENT] < 0:
            top += dur
        if s[_NAME].startswith("eos."):
            out["eos.calls"] += 1
    out["process.outside_spans_s"] = wall - top

    for fn in FIELD_FNS:
        out["fields.%s_s" % fn] = inclusive("fields." + fn)
    out["fields.snapshot_io_s"] = (inclusive("fields.write_snapshot")
                                   + inclusive("fields.read_snapshot"))
    out["fields.snapshot_bytes"] = sum(
        s[_WORK] for s in spans
        if s[_NAME] in ("fields.write_snapshot", "fields.read_snapshot"))

    # transforms, attributed to the nearest enclosing integrator RHS
    per_rhs = {mod: 0 for mod in INTEGRATORS}
    for s in spans:
        if s[_NAME] not in ("fields.fft", "fields.ifft"):
            continue
        count, nbytes = s[_WORK]
        out["fields.transforms"] += count
        out["fields.transform_bytes_computed"] += nbytes
        p = s[_PARENT]
        while p >= 0:
            mod, _, fn = spans[p][_NAME].partition(".")
            if fn == "_deriv":
                per_rhs[mod] += count
                break
            p = spans[p][_PARENT]

    for mod, short in INTEGRATORS.items():
        steps = [s[_END] - s[_START] for s in spans
                 if s[_NAME] == mod + ".step" and s[_OUTER]]
        rhs = sum(1 for s in spans if s[_NAME] == mod + "._deriv")
        out[mod + ".steps"] = len(steps)
        out[mod + ".rhs_evals"] = rhs
        if steps:
            p50, p95 = np.percentile(steps, [50, 95])
            out[mod + ".step_p50_ms"] = 1e3 * float(p50)
            out[mod + ".step_p95_ms"] = 1e3 * float(p95)
        if rhs:
            out["fields.transforms_per_rhs." + short] = per_rhs[mod] / rhs
    out["euler_nordstrom.fluid_rhs_s"] = inclusive("euler_nordstrom.fluid_rhs")
    out["euler_nordstrom.potential_rhs_s"] = inclusive(
        "euler_nordstrom.potential_rhs")
    out["euler_poisson.newtonian_rhs_s"] = inclusive(
        "euler_poisson.newtonian_rhs")
    out["euler_poisson.solve_constraint_s"] = inclusive(
        "euler_poisson.solve_constraint")
    for fn in CURRENT_FNS:
        out["energy_currents.%s_s" % fn] = inclusive("energy_currents." + fn)
    out["energy_currents.eov_inhomogeneity_s"] = inclusive(
        "energy_currents.assemble_eov_inhomogeneity")
    out["eos.background_potential_s"] = inclusive("eos.background_potential")
    out["limit_harness.residuals_s"] = inclusive(
        "limit_harness.approximate_solution_residuals")

    # each rung of the sweep runs from its lift to the next lift, or to the
    # end of run_sweep; the Sobolev comparisons are run_sweep's own time
    # plus its direct sobolev_norm calls
    for i, s in enumerate(spans):
        if s[_NAME] != "limit_harness.run_sweep":
            continue
        lifts = [t for t in spans[i + 1:] if t[_PARENT] == i
                 and t[_NAME] == "initial_data.lift_to_relativistic"]
        ends = [t[_START] for t in lifts[1:]] + [s[_END]]
        for lift, end in zip(lifts, ends):
            key = "limit_harness.rung_s.c%g" % lift[_WORK]
            if key in out:
                out[key] += end - lift[_START]
        out["limit_harness.compare_s"] += (s[_END] - s[_START]) - child[i] + sum(
            t[_END] - t[_START] for t in spans[i + 1:]
            if t[_PARENT] == i and t[_NAME] == "fields.sobolev_norm")
    return out


def accounting_problems(spans, wall):
    """Why the spans of one traced pass of `wall` seconds do not account for
    it: a child span outside its parent, children that outlast their parent,
    or time outside every span below 0 or above OUTSIDE_SHARE of the pass.
    """
    problems = []
    child = [0.0] * len(spans)
    top = 0.0
    for i, s in enumerate(spans):
        p = s[_PARENT]
        if p < 0:
            top += s[_END] - s[_START]
            continue
        if not spans[p][_START] <= s[_START] <= s[_END] <= spans[p][_END]:
            problems.append("span %d (%s) lies outside its parent %d (%s)"
                            % (i, s[_NAME], p, spans[p][_NAME]))
        child[p] += s[_END] - s[_START]
    for i, s in enumerate(spans):
        if child[i] > s[_END] - s[_START]:
            problems.append("children of span %d (%s) take %.6g s of its %.6g s"
                            % (i, s[_NAME], child[i], s[_END] - s[_START]))
    outside = wall - top
    if not 0.0 <= outside <= OUTSIDE_SHARE * wall:
        problems.append("%.6g s of the %.6g s pass is outside every span"
                        % (outside, wall))
    return problems
