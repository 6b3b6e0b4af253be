"""Every benchmark workload's pinned instance against ``bench/reference.json``.

The benchmark holds each run to the stored reference: final positions within
1e-9, W1 rows within 1e-7, a monotone W1 verdict and per-step mass within
1e-10 (``bench/checks.py``). Here the same check runs in-process on the same
configs (``bench/workloads.py``), so a change that moves an output past those
tolerances fails tier-1 too.
"""

import json

import pytest

from crowdflow.cli import main
from helpers import BENCH, load_bench

workloads = load_bench("workloads.py")
checks = load_bench("checks.py")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pinned_instance_matches_stored_reference(tmp_path, name):
    w = workloads.WORKLOADS[name]
    cfg = w.write_config(w.pinned_seed, tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main([w.command, "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 0
    reference = json.loads((BENCH / "reference.json").read_text())
    assert checks.check_run(out, w.command, cfg, reference[name][str(w.pinned_seed)]) == []
