"""Experiment configuration: JSON loading, validation, and model construction."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .grids import AtomicMeasure
from .scheme import mesh_schedule
from .velocity import (Ball, CaseStudyRepulsion, ConstantDesired, FixedAxis,
                       FromDesired, PrototypeAttraction, Sector, VelocityModel,
                       ZeroDesired, velocity_bound)


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def _require(block: dict, key: str, where: str):
    if key not in block:
        raise ConfigError(f"missing field '{key}' in {where}")
    return block[key]


@dataclass
class ExperimentConfig:
    model: VelocityModel
    initial: dict
    T: float
    levels: tuple  # ((k, h, dt), ...)
    delta: float | None
    v_ref: float
    outputs: str
    w1_sample_times: tuple
    raw: dict = field(repr=False, default_factory=dict)

    def initial_measure(self, seed_override: int | None = None) -> AtomicMeasure:
        init = self.initial
        if init["type"] == "atoms":
            return AtomicMeasure(init["positions"], init.get("weights"))
        seed = seed_override if seed_override is not None else init["seed"]
        rng = np.random.default_rng(seed)
        lo, hi = init["interval"]
        pos = rng.uniform(lo, hi, size=(init["count"], self.model.dim))
        return AtomicMeasure(pos)


def _build_desired(block: dict) -> object:
    kind = _require(block, "type", "model.desired")
    if kind == "zero":
        return ZeroDesired()
    if kind == "constant":
        return ConstantDesired(_require(block, "c", "model.desired"))
    raise ConfigError(f"unknown desired velocity type '{kind}'")


def _build_kernel(block: dict) -> object:
    kind = _require(block, "type", "model.kernel")
    if kind == "case_study":
        return CaseStudyRepulsion(float(_require(block, "a", "model.kernel")),
                                  float(_require(block, "eps", "model.kernel")))
    if kind == "attraction":
        return PrototypeAttraction(float(_require(block, "R", "model.kernel")))
    raise ConfigError(f"unknown kernel type '{kind}'")


def _build_neighborhood(block: dict) -> object:
    kind = _require(block, "type", "model.neighborhood")
    R = float(_require(block, "R", "model.neighborhood"))
    b = float(_require(block, "b", "model.neighborhood"))
    if kind == "ball":
        return Ball(R, b)
    if kind == "sector":
        return Sector(R, float(_require(block, "alpha", "model.neighborhood")), b)
    raise ConfigError(f"unknown neighborhood type '{kind}'")


def _build_heading(block: dict | None) -> object:
    if block is None:
        return FromDesired()
    kind = _require(block, "type", "model.heading")
    if kind == "from_desired":
        return FromDesired()
    if kind == "fixed_axis":
        return FixedAxis(_require(block, "axis", "model.heading"))
    raise ConfigError(f"unknown heading type '{kind}'")


def build_model(block: dict) -> VelocityModel:
    try:
        return VelocityModel(
            dim=int(_require(block, "dim", "model")),
            n_agents=int(_require(block, "n_agents", "model")),
            desired=_build_desired(_require(block, "desired", "model")),
            kernel=_build_kernel(_require(block, "kernel", "model")),
            neighborhood=_build_neighborhood(_require(block, "neighborhood", "model")),
            heading=_build_heading(block.get("heading")),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        hint = ""
        if "vanishing desired" in str(exc):
            hint = " (remedy: set model.heading to a fixed_axis unit vector)"
        raise ConfigError(f"invalid model: {exc}{hint}") from exc


def _validate_initial(block: dict, model: VelocityModel) -> dict:
    kind = _require(block, "type", "initial")
    if kind == "atoms":
        positions = _require(block, "positions", "initial")
        if not positions:
            raise ConfigError("initial.positions must be nonempty")
        for p in positions:
            if len(p) != model.dim:
                raise ConfigError(
                    f"initial atom {p} has dimension {len(p)}, expected {model.dim}")
        return {"type": "atoms", "positions": [list(map(float, p)) for p in positions],
                "weights": block.get("weights")}
    if kind == "uniform_random":
        count = int(_require(block, "count", "initial"))
        if count < 1:
            raise ConfigError("initial.count must be >= 1")
        if "seed" not in block:
            raise ConfigError("initial.seed is mandatory for uniform_random data")
        lo, hi = _require(block, "interval", "initial")
        if not (float(hi) > float(lo)):
            raise ConfigError("initial.interval must be increasing")
        return {"type": "uniform_random", "count": count,
                "interval": [float(lo), float(hi)], "seed": int(block["seed"])}
    raise ConfigError(f"unknown initial data type '{kind}'")


def parse_config(data: dict, source: str = "<config>") -> ExperimentConfig:
    model = build_model(_require(data, "model", source))
    initial = _validate_initial(_require(data, "initial", source), model)

    T = float(_require(data, "T", source))
    if not (T > 0):
        raise ConfigError(f"T must be positive, got {T!r}")

    sched = _require(data, "schedule", source)
    v_ref = float(sched.get("v_ref", velocity_bound(model)))
    if "ks" in sched:
        delta_out = float(_require(sched, "delta", "schedule"))
        try:
            levels = mesh_schedule(v_ref, delta_out, [int(k) for k in sched["ks"]])
        except ValueError as exc:
            raise ConfigError(f"invalid schedule: {exc}") from exc
    elif "h" in sched and "dt" in sched:
        h, dt = float(sched["h"]), float(sched["dt"])
        if not (h > 0 and dt > 0):
            raise ConfigError("explicit schedule needs h > 0 and dt > 0")
        levels, delta_out = ((0, h, dt),), None
    else:
        raise ConfigError("schedule needs either {delta, ks} or {h, dt}")

    if initial["type"] == "uniform_random" and initial["count"] != model.n_agents:
        raise ConfigError(
            f"initial.count={initial['count']} must equal model.n_agents={model.n_agents}")
    if initial["type"] == "atoms" and initial.get("weights") is None \
            and len(initial["positions"]) != model.n_agents:
        raise ConfigError("number of initial atoms must equal model.n_agents "
                          "for uniformly weighted data")

    times = tuple(float(t) for t in data.get("w1_sample_times", (T / 2.0, T)))
    for t in times:
        if not (0.0 <= t <= T):
            raise ConfigError(f"w1 sample time {t!r} outside [0, T]")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ConfigError(f"w1_sample_times must be strictly increasing, got {list(times)}")

    return ExperimentConfig(model=model, initial=initial, T=T, levels=levels,
                            delta=delta_out, v_ref=v_ref,
                            outputs=str(data.get("outputs", "out")),
                            w1_sample_times=times, raw=data)


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return parse_config(data, source=str(path))


def write_config(cfg: ExperimentConfig, path) -> None:
    Path(path).write_text(json.dumps(cfg.raw, indent=2, sort_keys=True) + "\n")


def case_study_path() -> Path:
    """Path to the bundled 1D repulsion case-study configuration."""
    return Path(resources.files("crowdflow") / "configs" / "case_study.json")
