"""The benchmark's workloads: each one writes the config file the program runs.

Every workload is a function of an instance seed, which only sets the initial
agent positions (``initial.seed``); the model, schedule and horizon are fixed.
``pinned_seed`` is the instance whose run time is measured: on the case study
the seed alone moves the run time by a factor of about 1.5 (seeds 1-4 take
2.2 s to 3.7 s), so timing a different instance on every run would measure
the seed, not the program.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# The bundled case study (src/crowdflow/configs/case_study.json), restated so
# the benchmark owns its inputs: 10 agents, mollified inverse-distance
# repulsion, ball cutoff, T = 0.1, levels k = 100 and 1000.
_CASE_STUDY_MODEL = {
    "dim": 1,
    "n_agents": 10,
    "desired": {"type": "zero"},
    "kernel": {"type": "case_study", "a": 0.01, "eps": 0.025},
    "neighborhood": {"type": "ball", "R": 0.1, "b": 0.02},
}


def case_study_1d(seed: int) -> dict:
    return {
        "model": _CASE_STUDY_MODEL,
        "initial": {"type": "uniform_random", "count": 10,
                    "interval": [0.0, 1.0], "seed": seed},
        "T": 0.1,
        "schedule": {"delta": 0.9, "ks": [100, 1000], "v_ref": 4.0},
        "w1_sample_times": [0.05, 0.1],
        "outputs": "out",
    }


def sector_2d(seed: int) -> dict:
    # T = 0.02 keeps the k = 100 support (1924 cells at seed 7) under the
    # 4096-atom W1 cap; at T = 0.05 it reaches 9055 cells and w1_exact raises.
    return {
        "model": {
            "dim": 2,
            "n_agents": 100,
            "desired": {"type": "constant", "c": [1.0, 0.0]},
            "kernel": {"type": "case_study", "a": 0.01, "eps": 0.025},
            "neighborhood": {"type": "sector", "R": 0.1,
                             "alpha": math.pi, "b": 0.02},
            "heading": {"type": "from_desired"},
        },
        "initial": {"type": "uniform_random", "count": 100,
                    "interval": [0.0, 1.0], "seed": seed},
        "T": 0.02,
        "schedule": {"delta": 0.9, "ks": [50, 100], "v_ref": 4.0},
        "w1_sample_times": [0.01, 0.02],
        "outputs": "out",
    }


def oracle_1d(seed: int) -> dict:
    # ks [100] sets the oracle step to dt_100 / 10, which gives 220 Euler steps
    return {
        "model": dict(_CASE_STUDY_MODEL, n_agents=1000),
        "initial": {"type": "uniform_random", "count": 1000,
                    "interval": [0.0, 1.0], "seed": seed},
        "T": 0.1,
        "schedule": {"delta": 0.9, "ks": [100], "v_ref": 4.0},
        "w1_sample_times": [0.1],
        "outputs": "out",
    }


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # crowdflow subcommand
    make_config: Callable[[int], dict]
    pinned_seed: int

    def write_config(self, seed: int, path: Path) -> dict:
        cfg = self.make_config(seed)
        path.write_text(json.dumps(cfg, indent=2) + "\n")
        return cfg


WORKLOADS = {
    w.name: w for w in (
        Workload("case_study_1d", "converge", case_study_1d, 12345),
        Workload("sector_2d", "converge", sector_2d, 7),
        Workload("oracle_1d", "particles", oracle_1d, 12345),
    )
}
