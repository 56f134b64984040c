"""Timing koopsyn's layers from outside the program.

The traced pass replaces public functions of the koopsyn modules (module
attributes, plus a few methods on their classes) with wrappers that record a
span per call. Spans are kept in memory and written when the pass ends. The
program's own code is not changed.

Self time of a span is its duration minus the durations of the wrapped calls
it made; the self time of a layer (module) is the sum over its functions, so
the layer self times of a pass add up to the time spent inside wrapped calls.
Busy time of a layer is the wall time during which at least one call into it
was open.

Hot functions (called 1e4 to 1e5 times a pass) are timed and counted like
the others but keep no span record, which bounds memory.
"""

from __future__ import annotations

import functools
import json
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("lifting", "plants", "edmd", "bounds", "uncertainty", "lmi", "sdp",
          "ipm", "controller", "verify", "cli")

VERIFY_REASONS = ("left_domain", "singular_feedback", "horizon",
                  "numerical_failure")

# every koopsyn module, plus scipy.integrate, which koopsyn.verify imports
# eagerly and which is the largest single share of setup_s
IMPORTS = (("koopsyn",) + tuple(f"koopsyn.{m}" for m in LAYERS + ("matops",))
           + ("scipy.integrate",))


# -- counters read from arguments and results ------------------------------


def _lift_many(tr, args, kwargs, result):
    tr.counts["lifting.lift_many.rows"] += len(args[1])


def _save_samples(tr, args, kwargs, result):
    outdir = Path(args[1])
    names = list(result["files"]) + ["samples_meta.json"]
    tr.counts["plants.save_samples.bytes"] += sum(
        (outdir / n).stat().st_size for n in names)


def _vector_field(tr, args, kwargs, result):
    if tr.open["verify.simulate_feedback"]:
        tr.counts["verify.rhs_calls"] += 1


def _compute_d0(tr, args, kwargs, result):
    quad = result.quadrature
    if quad["method"] == "grid":
        points = quad["points_per_axis"] ** args[0].n
    else:
        per = max(2, quad["samples"] // max(1, quad["replicates"]))
        points = quad["replicates"] * (1 << max(1, (per - 1).bit_length()))
    tr.counts["bounds.compute_d0.points"] += points


def _from_function(tr, args, kwargs, result):
    variables = args[1]
    tr.counts["lmi.probes"] += 1 + sum(v.ncomp for v in variables)


def _lower(tr, args, kwargs, result):
    for _, _, Fi, _ in result.blocks:
        tr.counts["sdp.lower.nonzeros"] += int((Fi != 0.0).sum())
        tr.counts["sdp.lower.entries"] += Fi.size


def _verify(tr, args, kwargs, result):
    tr.minimum("sdp.verify.margin_min", result.worst())


def _solve_sdp(tr, args, kwargs, result):
    c, blocks = args[0], args[1]
    tr.counts["ipm.iterations"] += result.iterations
    tr.counts["ipm.nonoptimal"] += result.status != "optimal"
    tr.maximum("ipm.vars", len(c))
    tr.maximum("ipm.max_block", max(F0.shape[0] for F0, _ in blocks))


def _boundary(tr, args, kwargs, result):
    tr.counts["controller.rays"] += result.angles.size
    tr.counts["controller.open_rays"] += int(result.open_rays.sum())


def _simulate_feedback(tr, args, kwargs, result):
    tr.counts["verify.ode_steps"] += result.t.size - 1
    if result.reason != "converged":
        tr.counts[f"verify.not_converged.{result.reason}"] += 1


# (module, attribute, span name, hot, counter hook)
TARGETS = (
    ("lifting", "Lifting.lift", "lifting.lift", True, None),
    ("lifting", "Lifting.lift_many", "lifting.lift_many", False, _lift_many),
    ("lifting", "Lifting.gradient_many", "lifting.gradient_many", False, None),
    ("plants", "collect_samples", "plants.collect_samples", False, None),
    ("plants", "save_samples", "plants.save_samples", False, _save_samples),
    ("plants", "load_samples", "plants.load_samples", False, None),
    ("plants", "Plant.vector_field", "plants.vector_field", True, _vector_field),
    ("edmd", "build_data_matrices", "edmd.build_data_matrices", False, None),
    ("edmd", "fit", "edmd.fit", False, None),
    ("bounds", "compute_d0", "bounds.compute_d0", False, _compute_d0),
    ("uncertainty", "procedure1_qz", "uncertainty.procedure1_qz", False, None),
    ("lmi", "build_theorem1", "lmi.build_theorem1", False, None),
    ("lmi", "build_theorem2", "lmi.build_theorem2", False, None),
    ("lmi", "add_roa_objective", "lmi.add_roa_objective", False, None),
    ("lmi", "add_trace_cap", "lmi.add_trace_cap", False, None),
    ("lmi", "drop_constraint", "lmi.drop_constraint", False, None),
    ("lmi", "AffineMatrixExpr.from_function", "lmi.from_function", False,
     _from_function),
    ("sdp", "lower", "sdp.lower", False, _lower),
    ("sdp", "solve", "sdp.solve", False, None),
    ("sdp", "verify", "sdp.verify", False, _verify),
    ("ipm", "solve_sdp", "ipm.solve_sdp", False, _solve_sdp),
    ("controller", "roa_boundary_2d", "controller.roa_boundary_2d", False,
     _boundary),
    ("controller", "roa_membership", "controller.roa_membership", True, None),
    ("controller", "feedback", "controller.feedback", True, None),
    ("verify", "simulate_feedback", "verify.simulate_feedback", False,
     _simulate_feedback),
    ("verify", "lqr_baseline", "verify.lqr_baseline", False, None),
    ("cli", "main", "cli.main", False, None),
)


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []          # (id, name, start, end, parent id or -1)
        self.stack = []          # open frames: [child seconds, span id]
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.extrema = {}
        self.open = Counter()    # open calls per span name
        self.layer_open = Counter()
        self.layer_busy = Counter()
        self._next_id = 0

    def minimum(self, key, value):
        self.extrema[key] = min(self.extrema.get(key, value), value)

    def maximum(self, key, value):
        self.extrema[key] = max(self.extrema.get(key, value), value)

    def wrap(self, fn, name, hot, hook):
        layer = name.split(".", 1)[0]
        clock = time.perf_counter
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tr.stack
            parent = stack[-1] if stack else None
            parent_id = parent[1] if parent else -1
            if hot:
                span_id = parent_id
            else:
                span_id = tr._next_id
                tr._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            tr.open[name] += 1
            tr.layer_open[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tr.open[name] -= 1
                tr.layer_open[layer] -= 1
                dur = end - start
                tr.self_s[name] += dur - frame[0]
                tr.calls[name] += 1
                if not tr.layer_open[layer]:
                    tr.layer_busy[layer] += dur
                if parent is not None:
                    parent[0] += dur
                if not hot:
                    tr.spans.append((span_id, name, start, end, parent_id))
            if hook is not None:
                hook(tr, args, kwargs, result)
            return result

        return traced

    def install(self, koopsyn_modules):
        """Patch every target; returns a function that restores them."""
        undo = []
        for mod_name, attr, name, hot, hook in TARGETS:
            owner = koopsyn_modules[mod_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[leaf]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = self.wrap(fn, name, hot, hook)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            setattr(owner, leaf, wrapped)
            undo.append((owner, leaf, raw))

        def restore():
            for owner, leaf, raw in reversed(undo):
                setattr(owner, leaf, raw)

        return restore

    def metrics(self):
        """Per-layer metrics of the pass: self times, counts and ratios."""
        s, c, k = self.self_s, self.calls, self.counts
        out = {}
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = sum(
                v for n, v in s.items() if n.split(".", 1)[0] == layer)
            out[f"layer.{layer}.busy_s"] = self.layer_busy[layer]
        out.update({
            "lifting.lift.calls": c["lifting.lift"],
            "lifting.lift.s": s["lifting.lift"],
            "lifting.lift_many.rows": k["lifting.lift_many.rows"],
            "lifting.lift_many.s": s["lifting.lift_many"],
            "lifting.gradient_many.s": s["lifting.gradient_many"],
            "plants.collect_samples.s": s["plants.collect_samples"],
            "plants.save_samples.s": s["plants.save_samples"],
            "plants.save_samples.bytes": k["plants.save_samples.bytes"],
            "plants.load_samples.s": s["plants.load_samples"],
            "plants.vector_field.calls": c["plants.vector_field"],
            "plants.vector_field.s": s["plants.vector_field"],
            "edmd.build_data_matrices.s": s["edmd.build_data_matrices"],
            "edmd.fit.s": s["edmd.fit"],
            "bounds.compute_d0.s": s["bounds.compute_d0"],
            "bounds.compute_d0.points": k["bounds.compute_d0.points"],
            "uncertainty.procedure1_qz.s": s["uncertainty.procedure1_qz"],
            "lmi.assemble.s": out["layer.lmi.self_s"],
            "lmi.probes": k["lmi.probes"],
            "sdp.lower.s": s["sdp.lower"],
            "sdp.lower.density": (k["sdp.lower.nonzeros"] / k["sdp.lower.entries"]
                                  if k["sdp.lower.entries"] else 0.0),
            "sdp.solve.calls": c["sdp.solve"],
            "sdp.solve.s": s["sdp.solve"],
            "sdp.verify.s": s["sdp.verify"],
            "sdp.verify.margin_min": self.extrema.get("sdp.verify.margin_min", 0.0),
            "ipm.solve_sdp.s": s["ipm.solve_sdp"],
            "ipm.solve_sdp.calls": c["ipm.solve_sdp"],
            "ipm.iterations": k["ipm.iterations"],
            "ipm.vars": self.extrema.get("ipm.vars", 0),
            "ipm.max_block": self.extrema.get("ipm.max_block", 0),
            "ipm.nonoptimal": k["ipm.nonoptimal"],
            "controller.roa_boundary_2d.s": s["controller.roa_boundary_2d"],
            "controller.roa_boundary_2d.calls": c["controller.roa_boundary_2d"],
            "controller.rays": k["controller.rays"],
            "controller.open_rays": k["controller.open_rays"],
            "controller.roa_membership.calls": c["controller.roa_membership"],
            "controller.roa_membership.s": s["controller.roa_membership"],
            "controller.membership_per_ray": (
                c["controller.roa_membership"] / k["controller.rays"]
                if k["controller.rays"] else 0.0),
            "controller.feedback.calls": c["controller.feedback"],
            "controller.feedback.s": s["controller.feedback"],
            "verify.simulate_feedback.calls": c["verify.simulate_feedback"],
            "verify.simulate_feedback.s": s["verify.simulate_feedback"],
            "verify.ode_steps": k["verify.ode_steps"],
            "verify.rhs_per_step": (k["verify.rhs_calls"] / k["verify.ode_steps"]
                                    if k["verify.ode_steps"] else 0.0),
            "verify.lqr_baseline.s": s["verify.lqr_baseline"],
            "cli.self.s": out["layer.cli.self_s"],
            "trace.spans": len(self.spans),
        })
        for reason in VERIFY_REASONS:
            key = f"verify.not_converged.{reason}"
            out[key] = k[key]
        return out

    def dump_spans(self, path, origin):
        """Write the recorded spans as JSON lines [id, name, start, end,
        parent id], times in seconds from ``origin``."""
        with open(path, "w") as fh:
            for span_id, name, start, end, parent in sorted(self.spans):
                fh.write(json.dumps([span_id, name, start - origin,
                                     end - origin, parent]) + "\n")


def import_times(env, cwd):
    """Cumulative import seconds per koopsyn module (and the eager scipy
    import) from ``python -X importtime`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import koopsyn.cli"],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"import koopsyn.cli failed: {proc.stderr[-500:]}")
    found = {}
    pattern = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s+(\S.*)$")
    for line in proc.stderr.splitlines():
        m = pattern.match(line)
        if m:
            found.setdefault(m.group(2).strip(), int(m.group(1)) * 1e-6)
    return {f"import.{mod}.s": found.get(mod, 0.0)
            for mod in IMPORTS}
