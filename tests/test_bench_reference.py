"""Every benchmark workload's pinned instance against ``bench/reference.json``.

The benchmark holds each run to the stored reference: final positions within
1e-9, W1 rows within 1e-7, a monotone W1 verdict and per-step mass within
1e-10 (``bench/checks.py``). Here the same check runs in-process on the same
configs (``bench/workloads.py``), so a change that moves an output past those
tolerances fails tier-1 too.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from crowdflow.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name, filename):
    spec = importlib.util.spec_from_file_location(name, BENCH / filename)
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up in sys.modules while it is built
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


workloads = load("bench_workloads", "workloads.py")
checks = load("bench_checks", "checks.py")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pinned_instance_matches_stored_reference(tmp_path, name):
    w = workloads.WORKLOADS[name]
    cfg = w.write_config(w.pinned_seed, tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main([w.command, "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 0
    reference = json.loads((BENCH / "reference.json").read_text())
    assert checks.check_run(out, w.command, cfg, reference[name][str(w.pinned_seed)]) == []
