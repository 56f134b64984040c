"""The benchmark's tracer patches koopsyn functions by name; every name it
lists must still exist, or ``perfbench/run.py --trace 1`` crashes."""

import importlib
import importlib.util
from pathlib import Path

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
