"""The benchmark tracer wraps functions by name; a rename in src/ would turn
its per-layer trace into zeros without failing, so check the names here."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crowdflow
from helpers import BENCH, load_bench

TRACER = BENCH / "tracer.py"


def resolve(module, path):
    owner = importlib.import_module(module)
    for attr in path.split("."):
        owner = getattr(owner, attr, None)
    return owner


def test_every_trace_hook_resolves():
    hooks = load_bench("tracer.py").HOOKS
    assert hooks
    missing = [f"{module}.{path}" for _, module, path, _ in hooks
               if not callable(resolve(module, path))]
    assert missing == []


def test_every_public_name_resolves():
    missing = [name for name in crowdflow.__all__ if not hasattr(crowdflow, name)]
    assert missing == []


TINY_1D = {
    "model": {"dim": 1, "n_agents": 3, "desired": {"type": "zero"},
              "kernel": {"type": "case_study", "a": 0.01, "eps": 0.025},
              "neighborhood": {"type": "ball", "R": 0.1, "b": 0.02}},
    "initial": {"type": "atoms", "positions": [[0.1], [0.5], [0.9]]},
    "T": 0.01,
    "schedule": {"delta": 0.5, "ks": [4, 8]},
}
TINY_2D = dict(TINY_1D, model=dict(TINY_1D["model"], dim=2, n_agents=12), T=0.02,
               initial={"type": "uniform_random", "count": 12, "interval": [0.0, 1.0],
                        "seed": 5},
               schedule={"delta": 0.5, "ks": [8, 16]})


def traced_run(tmp_path, config, command):
    """The tracer's result of one traced run of ``command`` on ``config``."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    result = tmp_path / "result.json"
    paths = [str(Path(crowdflow.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run([sys.executable, str(TRACER), str(result), str(tmp_path / "spans.jsonl"),
                           "0", "--", command, "--config", str(cfg),
                           "--out", str(tmp_path / "out")],
                          env=env, timeout=120, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(result.read_text())
    assert traced["rc"] == 0 and traced["absent"] == []
    return traced


@pytest.mark.parametrize("config", [TINY_1D, TINY_2D], ids=["1d", "2d"])
def test_traced_converge_runs_every_observer(tmp_path, config):
    """The observers unpack their hooks' arguments, which the name check above
    does not reach: a traced run must finish with every hook present and time
    both CSV writers."""
    traced = traced_run(tmp_path, config, "converge")
    assert traced["metrics"]["grids.write_csv_s"] > 0
    assert traced["metrics"]["particles.write_csv_s"] > 0


def test_traced_particles_runs(tmp_path):
    """The oracle alone under the tracer: its steps are counted and its CSV
    writer, called with the oracle's step, is timed."""
    traced = traced_run(tmp_path, TINY_1D, "particles")
    assert traced["metrics"]["particles.steps"] > 0
    assert traced["metrics"]["particles.write_csv_s"] > 0
