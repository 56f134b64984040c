"""Time-to-certificate benchmark for koopsyn.

Run from the root of a checkout:

    python3 perfbench/run.py --workload examples --seed 0 --seconds 50 --trace 0

Workloads: examples and design_ladder (see perfbench/README.md).
``--trace 0`` runs untraced passes and reports the end-to-end metrics;
``--trace 1`` runs untraced passes for half of ``--seconds`` (at least two),
then traced passes, and reports the per-layer metrics. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

WORKLOADS = ("examples", "design_ladder")
SETUP_SAMPLES = 7

# metric -> unit; which direction is better, and the bounds, live in
# BENCHMARK.json
END_TO_END_UNITS = {"setup_s": "s", "certify_s": "s", "pass_s": "s",
                    "peak_rss_mb": "MB", "ipm_iterations": "count",
                    "roa_area": "area"}
# which operations count as "to a checked certificate" on each workload
CERTIFY_STAGES = {"collect", "fit", "design", "verify"}

SETUP_CODE = ("import time; t = time.perf_counter(); import koopsyn.cli; "
              "print(repr(time.perf_counter() - t))")


def nproc():
    return len(os.sched_getaffinity(0))


def cap_threads():
    """Cap BLAS and OpenMP threads at the cores this process may use. Must
    run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc())


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def setup_samples():
    """Seconds to ``import koopsyn.cli`` in fresh interpreters, one child
    interpreter at a time."""
    times = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE],
                              env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import koopsyn.cli failed: {proc.stderr[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def environment(seed):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "seed": seed,
    }


def per_layer_unit(name):
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith((".density", ".share", "overhead_frac", "margin_min")):
        return "1"
    if name == "verify.rhs_per_step":
        return "1/step"
    if name == "controller.membership_per_ray":
        return "1/ray"
    return "count"


def run_pass(workloads, mod, args, index, tracer=None):
    """One pass in a fresh output directory; returns (PassResult, SolveLog)."""
    out = OUT / f"pass{index}"
    out.mkdir(parents=True)
    solves = workloads.SolveLog()
    restore_log = solves.install()
    restore_trace = tracer.install(mod) if tracer is not None else None
    try:
        with open(OUT / "program.log", "a") as log:
            ctx = workloads.Ctx(out=out, seed=args.seed, log=log, solves=solves)
            t0 = time.perf_counter()
            result = workloads.PASSES[args.workload](ctx)
    finally:
        if restore_trace is not None:
            restore_trace()
        restore_log()
    if tracer is not None:
        tracer.dump_spans(OUT / f"spans_pass{index}.jsonl", t0)
    if index > 0:
        shutil.rmtree(out)
    return result, solves


def op_medians(results):
    """Lower median seconds of each operation, and of each of its parts, over
    the passes: {key: (stage, seconds, {part: seconds})}. With two passes it
    is the lesser time, so that a pass the host slowed does not move it."""
    seen = {}
    for result in results:
        for op in result.ops:
            stage, secs, parts = seen.setdefault(op.key, (op.stage, [], {}))
            secs.append(op.seconds)
            for part, sec in op.parts.items():
                parts.setdefault(part, []).append(sec)
    return {key: (stage, statistics.median_low(secs),
                  {p: statistics.median_low(v) for p, v in parts.items()})
            for key, (stage, secs, parts) in seen.items()}


def time_metrics(results):
    """pass_s, certify_s and the per-stage table, each a sum of per-operation
    lower medians, so that a slow moment in one pass moves only its
    operation."""
    medians = op_medians(results)
    stages = {}
    for stage, sec, parts in medians.values():
        stages[f"{stage}_s"] = stages.get(f"{stage}_s", 0.0) + sec
        for part, psec in parts.items():
            stages[part] = stages.get(part, 0.0) + psec
    pass_s = sum(sec for _, sec, _ in medians.values())
    certify_s = sum(sec for stage, sec, _ in medians.values()
                    if stage in CERTIFY_STAGES)
    return pass_s, certify_s, stages


def check_passes(passes):
    """Count attempted and failed operations; an operation whose
    deterministic outputs differ from the first pass's counts as failed."""
    reference = {op.key: op.digest for op in passes[0][0].ops}
    attempted = failed = 0
    errors = []
    for i, (result, _) in enumerate(passes):
        for op in result.ops:
            attempted += 1
            error = op.error
            if error is None and op.digest != reference.get(op.key):
                error = "outputs differ from the first pass"
            if error is not None:
                failed += 1
                errors.append(f"pass {i} {op.key}: {error.strip().splitlines()[-1]}")
    return attempted, failed, errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "koopsyn" / "__init__.py").is_file():
        print(f"error: no koopsyn sources under {SRC}", file=sys.stderr)
        return 2

    cap_threads()
    sys.path.insert(0, str(SRC))
    import workloads
    from tracer import LAYERS, Tracer, import_times

    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    setup = setup_samples()
    mod = {name: importlib.import_module(f"koopsyn.{name}") for name in LAYERS}

    # at least two untraced passes, so that each operation has a warm
    # sample; a traced run gives half its time to them
    budget = args.seconds / 2 if args.trace else args.seconds
    start = time.perf_counter()
    passes = []          # untraced: (PassResult, SolveLog)
    traced = []          # (PassResult, SolveLog, Tracer)
    while True:
        passes.append(run_pass(workloads, mod, args, len(passes)))
        elapsed = time.perf_counter() - start
        if len(passes) >= 2 and \
                elapsed * (len(passes) + 1) / len(passes) > budget:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced_start = time.perf_counter()
    while args.trace:
        tracer = Tracer()
        result, solves = run_pass(workloads, mod, args,
                                  len(passes) + len(traced), tracer)
        traced.append((result, solves, tracer))
        now = time.perf_counter()
        if now - start + (now - traced_start) / len(traced) > args.seconds:
            break

    attempted, failed, errors = check_passes(passes + [t[:2] for t in traced])
    pass_s, certify_s, stages = time_metrics(r for r, _ in passes)
    margins = [s.margin_min for _, s in passes if s.margin_min is not None]
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": env, "passes": len(passes), "traced_passes": len(traced),
        "setup_samples_s": setup,
        "stages": stages,
        "quality": passes[0][0].quality,
        "info": passes[0][0].info,
        "cert_margin_min": min(margins) if margins else None,
        "ops": [{"pass": i, "key": op.key, "stage": op.stage,
                 "seconds": op.seconds, "error": op.error}
                for i, (r, _) in enumerate(passes) for op in r.ops],
        "errors": errors,
    }
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setup),
            "certify_s": certify_s,
            "pass_s": pass_s,
            "peak_rss_mb": peak_rss_mb,
            "ipm_iterations": statistics.median(s.iterations for _, s in passes),
            "roa_area": statistics.median(r.quality["roa_area"] for r, _ in passes),
        }
        units = END_TO_END_UNITS
    else:
        layer = [tracer.metrics() for _, _, tracer in traced]
        metrics = {k: statistics.median(d[k] for d in layer) for k in layer[0]}
        traced_s = time_metrics(r for r, _, _ in traced)[0]
        warm_s = time_metrics(r for r, _ in passes[1:])[0]
        metrics["ipm.solve_sdp.share"] = metrics["ipm.solve_sdp.s"] / traced_s
        metrics["trace.pass_s"] = traced_s
        metrics["trace.untraced_pass_s"] = warm_s
        metrics["trace.overhead_frac"] = traced_s / warm_s - 1.0
        metrics.update(import_times(child_env(), ROOT))
        units = {k: per_layer_unit(k) for k in metrics}
    report["metrics"] = metrics
    (OUT / "result.json").write_text(json.dumps(report, indent=1, sort_keys=True))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}+{len(traced)} traced")
    for key, value in sorted(report["stages"].items()):
        print(f"  stage   {key:<32} {value:12.4f} s")
    for key, value in sorted(report["quality"].items()):
        print(f"  quality {key:<32} {value:12.6g}")
    if report["cert_margin_min"] is not None:
        print(f"  quality {'cert_margin_min':<32} {report['cert_margin_min']:12.4g}")
    for key, value in sorted(report["info"].items()):
        print(f"  info    {key:<32} {json.dumps(value)}")
    for key, value in sorted(metrics.items()):
        print(f"  metric  {key:<32} {value:12.6g} {units[key]}")
    print(f"  operations attempted {attempted}, failed {failed}")
    for line in errors:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
