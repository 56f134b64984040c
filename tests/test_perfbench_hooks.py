"""The benchmark's tracer patches koopsyn functions by name; every name it
lists must still exist, or ``perfbench/run.py --trace 1`` crashes."""

import importlib
import importlib.util
import json
from pathlib import Path

from koopsyn import lmi

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(mod_name, attr):
    owner = importlib.import_module(f"koopsyn.{mod_name}")
    for part in attr.split("."):
        if part not in vars(owner):
            return False
        owner = vars(owner)[part]
    return True


def test_tracer_targets_resolve():
    targets = _load_tracer().TARGETS
    assert targets
    missing = [f"koopsyn.{mod}.{attr}" for mod, attr, *_ in targets
               if not _resolves(mod, attr)]
    assert missing == []


def test_traced_collect_counts_saved_bytes(tmp_path):
    # the traced run wraps save_samples and reads its outdir argument and
    # the file list it returns
    tracer_module = _load_tracer()
    modules = {name: importlib.import_module(f"koopsyn.{name}")
               for name in tracer_module.LAYERS}
    originals = {}
    for mod, attr, *_ in tracer_module.TARGETS:
        owner = modules[mod]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        originals[mod, attr] = (owner, leaf, owner.__dict__[leaf])
    tracer = tracer_module.Tracer()
    restore = tracer.install(modules)
    try:
        rc = modules["cli"].main(["collect", "--example", "cooked_up", "--out",
                                  str(tmp_path), "--d", "50"])
    finally:
        restore()
    assert rc == 0
    on_disk = sum((tmp_path / name).stat().st_size for name in
                  ("samples_u0.npy", "samples_u1.npy", "samples_meta.json"))
    assert tracer.counts["plants.save_samples.bytes"] == on_disk
    assert tracer.metrics()["plants.save_samples.bytes"] == on_disk
    assert tracer.calls["plants.save_samples"] == 1
    moved = [f"{mod}.{attr}" for (mod, attr), (owner, leaf, raw) in originals.items()
             if owner.__dict__[leaf] is not raw]
    assert moved == []


def test_traced_design_counts_probes_and_iterations(tmp_path, monkeypatch):
    # lmi.probes counts 1 + sum(ncomp) per built expression, whatever the
    # number of calls of the block formula; ipm.iterations adds up every
    # solve of the stage
    tracer_module = _load_tracer()
    modules = {name: importlib.import_module(f"koopsyn.{name}")
               for name in tracer_module.LAYERS}
    out = str(tmp_path)
    for cmd in ("collect", "fit"):
        assert modules["cli"].main([cmd, "--example", "cooked_up", "--out", out,
                                    "--d", "400"]) == 0
    built = []
    from_function = lmi.AffineMatrixExpr.from_function

    def recording(fn, variables):
        expr = from_function(fn, variables)
        built.append(expr)
        return expr

    monkeypatch.setattr(lmi.AffineMatrixExpr, "from_function",
                        staticmethod(recording))
    tracer = tracer_module.Tracer()
    restore = tracer.install(modules)
    try:
        rc = modules["cli"].main(["design", "--example", "cooked_up", "--out", out,
                                  "--d", "400"])
    finally:
        restore()
    assert rc == 0
    probes = sum(1 + sum(M.shape[0] for M in expr.coeffs.values())
                 for expr in built)
    assert built and tracer.metrics()["lmi.probes"] == probes
    solves = json.loads((tmp_path / "design_log.json").read_text())["solves"]
    assert tracer.metrics()["ipm.iterations"] == sum(e["iterations"] for e in solves)
