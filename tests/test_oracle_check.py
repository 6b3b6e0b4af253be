"""The particle oracle against the benchmark's independent Euler oracle.

``bench/checks.py`` integrates the model with plain numpy, without importing
crowdflow; loading it by path holds ``crowdflow particles`` to that reference
on an input large enough for the pair sum's windowed form.
"""

import importlib.util
import json
from pathlib import Path

from crowdflow.cli import main

CHECKS = Path(__file__).resolve().parents[1] / "bench" / "checks.py"


def load_checks():
    spec = importlib.util.spec_from_file_location("bench_checks", CHECKS)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


def test_particles_match_independent_oracle(tmp_path):
    # 300 agents at R = 0.1, 44 Euler steps of dt_100 / 10
    cfg = {
        "model": {"dim": 1, "n_agents": 300, "desired": {"type": "zero"},
                  "kernel": {"type": "case_study", "a": 0.01, "eps": 0.025},
                  "neighborhood": {"type": "ball", "R": 0.1, "b": 0.02}},
        "initial": {"type": "uniform_random", "count": 300, "interval": [0.0, 1.0],
                    "seed": 5},
        "T": 0.02,
        "schedule": {"delta": 0.9, "ks": [100], "v_ref": 4.0},
        "w1_sample_times": [0.02],
        "outputs": "out",
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["particles", "--config", str(path), "--out", str(out)]) == 0
    assert len((out / "particles.csv").read_text().splitlines()) == 1 + 300 * 45
    assert load_checks().check_run(out, "particles", cfg, None) == []
