"""The benchmark tracer wraps functions by name; a rename in src/ would turn
its per-layer trace into zeros without failing, so check the names here."""

import importlib
import importlib.util
from pathlib import Path

import crowdflow

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_hooks():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.HOOKS


def resolve(module, path):
    owner = importlib.import_module(module)
    for attr in path.split("."):
        owner = getattr(owner, attr, None)
    return owner


def test_every_trace_hook_resolves():
    hooks = load_hooks()
    assert hooks
    missing = [f"{module}.{path}" for _, module, path, _ in hooks
               if not callable(resolve(module, path))]
    assert missing == []


def test_every_public_name_resolves():
    missing = [name for name in crowdflow.__all__ if not hasattr(crowdflow, name)]
    assert missing == []
