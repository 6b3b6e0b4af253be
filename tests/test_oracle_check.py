"""The particle oracle against the benchmark's independent Euler oracle.

``bench/checks.py`` integrates the model with plain numpy, without importing
crowdflow; loading it by path holds ``crowdflow particles`` to that reference
on inputs large enough for the pair sum's at-atoms form (more than
``velocity._DENSE_MAX_ATOMS`` agents), one of them crowded enough that the
Euler steps stack agents onto shared positions.
"""

import json

import numpy as np

from crowdflow.cli import main
from helpers import load_bench


def run_particles_cli(tmp_path, n, interval, T):
    """``crowdflow particles`` on n repelling agents drawn uniformly on the
    interval, with the oracle step dt_100 / 10; returns (config, out dir)."""
    cfg = {
        "model": {"dim": 1, "n_agents": n, "desired": {"type": "zero"},
                  "kernel": {"type": "case_study", "a": 0.01, "eps": 0.025},
                  "neighborhood": {"type": "ball", "R": 0.1, "b": 0.02}},
        "initial": {"type": "uniform_random", "count": n, "interval": interval,
                    "seed": 5},
        "T": T,
        "schedule": {"delta": 0.9, "ks": [100], "v_ref": 4.0},
        "w1_sample_times": [T],
        "outputs": "out",
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["particles", "--config", str(path), "--out", str(out)]) == 0
    return cfg, out


def test_particles_match_independent_oracle(tmp_path):
    # 300 agents at R = 0.1, 44 Euler steps of dt_100 / 10
    cfg, out = run_particles_cli(tmp_path, 300, [0.0, 1.0], 0.02)
    assert len((out / "particles.csv").read_text().splitlines()) == 1 + 300 * 45
    assert load_bench("checks.py").check_run(out, "particles", cfg, None) == []


def test_stacking_run_matches_independent_oracle(tmp_path):
    # 200 agents on [0, 0.2], 220 steps: the step is too coarse for the
    # repulsion's stiffness, so agents land on exactly shared positions and
    # the program evaluates the velocity once per distinct position, while the
    # reference evaluates it for every agent
    cfg, out = run_particles_cli(tmp_path, 200, [0.0, 0.2], 0.1)
    rows = np.loadtxt(out / "particles.csv", delimiter=",", skiprows=1)
    times = np.unique(rows[:, 0])
    assert len(times) == 221
    distinct = [len(np.unique(rows[rows[:, 0] == t, 2])) for t in times]
    assert min(distinct) < 200
    assert load_bench("checks.py").check_run(out, "particles", cfg, None) == []
