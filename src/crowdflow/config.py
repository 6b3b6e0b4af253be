"""Experiment configuration: JSON loading, validation, and model construction.

:func:`parse_config` reads a config once: it converts each field and builds
what the commands build, so the constructors' own checks validate it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .grids import AtomicMeasure, GridSpec, cell_indices
from .scheme import mesh_schedule, step_count
from .velocity import (Ball, CaseStudyRepulsion, ConstantDesired, FixedAxis,
                       FromDesired, PrototypeAttraction, Sector, VelocityModel,
                       ZeroDesired, velocity_bound)


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def _require(block, key: str, where: str):
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object, got {block!r}")
    if key not in block:
        raise ConfigError(f"missing field '{key}' in {where}")
    return block[key]


def _number(value) -> float:
    """float(value) for a JSON number: a string or a boolean is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _integer(value) -> int:
    """int(value) for a JSON number, refusing the non-integral floats that
    int() would truncate."""
    if not _number(value).is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _typed(value, kind: type = list):
    """value, refused unless of type kind: a string must not pass for a list."""
    if not isinstance(value, kind):
        raise TypeError(f"expected a {kind.__name__}, got {value!r}")
    return value


def _numbers(value) -> list:
    """A JSON list of numbers, or of such lists, as floats."""
    return [_numbers(v) if isinstance(v, list) else _number(v) for v in _typed(value)]


def time_label(t: float) -> str:
    """Sample time t as outputs name it: density_t<label>.csv, summary.json keys."""
    return f"{t:g}"


# Each model part's type names: the class built and its constructor's fields,
# in order, each with the conversion its JSON value gets.
_TYPES = {
    "desired": {"zero": (ZeroDesired, {}),
                "constant": (ConstantDesired, {"c": _numbers})},
    "kernel": {"case_study": (CaseStudyRepulsion, {"a": _number, "eps": _number}),
               "attraction": (PrototypeAttraction, {"R": _number})},
    "neighborhood": {"ball": (Ball, {"R": _number, "b": _number}),
                     "sector": (Sector, {"R": _number, "alpha": _number, "b": _number})},
    "heading": {"from_desired": (FromDesired, {}),
                "fixed_axis": (FixedAxis, {"axis": _numbers})},
}


def _build(part: str, block) -> object:
    where = f"model.{part}"
    kind = _require(block, "type", where)
    if kind not in _TYPES[part]:
        raise ConfigError(f"unknown {part} type '{kind}'")
    cls, fields = _TYPES[part][kind]
    return cls(*(convert(_require(block, name, where)) for name, convert in fields.items()))


@dataclass
class ExperimentConfig:
    model: VelocityModel
    initial: dict
    T: float
    levels: tuple  # ((k, h, dt), ...)
    outputs: str
    w1_sample_times: tuple

    @property
    def oracle_dt(self) -> float:
        """The particle oracle's step: the finest level's, refined 10x so the
        oracle's error stays negligible, and never longer than the horizon."""
        return min(min(dt for _, _, dt in self.levels) / 10.0, self.T)

    def initial_measure(self, seed_override: int | None = None) -> AtomicMeasure:
        init = self.initial
        if init["type"] == "atoms":
            return AtomicMeasure(init["positions"], init["weights"])
        seed = seed_override if seed_override is not None else init["seed"]
        rng = np.random.default_rng(seed)
        lo, hi = init["interval"]
        pos = rng.uniform(lo, hi, size=(init["count"], self.model.dim))
        return AtomicMeasure(pos)


def build_model(block: dict) -> VelocityModel:
    """The model a config's ``model`` object describes; a value its
    constructors refuse raises their TypeError or ValueError."""
    return VelocityModel(
        dim=_integer(_require(block, "dim", "model")),
        n_agents=_integer(_require(block, "n_agents", "model")),
        desired=_build("desired", _require(block, "desired", "model")),
        kernel=_build("kernel", _require(block, "kernel", "model")),
        neighborhood=_build("neighborhood", _require(block, "neighborhood", "model")),
        # read last: the fields above have checked that block is an object
        heading=(FromDesired() if block.get("heading") is None
                 else _build("heading", block["heading"])),
    )


def _read_initial(block, n_agents: int) -> dict:
    kind = _require(block, "type", "initial")
    if kind == "atoms":
        weights = block.get("weights")
        init = {"type": kind, "positions": _numbers(_require(block, "positions", "initial")),
                "weights": None if weights is None else _numbers(weights)}
        agents = len(init["positions"])
    elif kind == "uniform_random":
        lo, hi = _numbers(_require(block, "interval", "initial"))
        if not (hi > lo):
            raise ConfigError("initial.interval must be increasing")
        init = {"type": kind, "count": _integer(_require(block, "count", "initial")),
                "interval": [lo, hi], "seed": _integer(_require(block, "seed", "initial"))}
        agents = init["count"]
    else:
        raise ConfigError(f"unknown initial data type '{kind}'")
    # checked before the measure is drawn, so a mistyped count allocates nothing
    if init.get("weights") is None and agents != n_agents:
        raise ConfigError(f"initial data has {agents} equally weighted agents, "
                          f"but model.n_agents = {n_agents}")
    return init


def parse_config(data, source: str = "<config>") -> ExperimentConfig:
    part = "model"  # the part being read, named in the error
    try:
        model = build_model(_require(data, "model", "config"))
        part = "initial"
        initial = _read_initial(_require(data, "initial", "config"), model.n_agents)
        part = "T"
        T = _number(_require(data, "T", "config"))
        part = "schedule"
        sched = _require(data, "schedule", "config")
        if "ks" in sched:
            v_ref = _number(sched["v_ref"]) if "v_ref" in sched else velocity_bound(model)
            levels = mesh_schedule(v_ref, _number(_require(sched, "delta", "schedule")),
                                   [_integer(k) for k in _typed(sched["ks"])])
        elif "h" in sched and "dt" in sched:
            levels = ((0, _number(sched["h"]), _number(sched["dt"])),)
        else:
            raise ConfigError("schedule needs either {delta, ks} or {h, dt}")
        for _, h, dt in levels:  # what every command builds per level
            GridSpec(model.dim, h)
            step_count(T, dt)
        part = "w1_sample_times"
        times = tuple(_numbers(data.get("w1_sample_times", [T / 2.0, T])))
        if not times:
            raise ConfigError("w1_sample_times must be nonempty")
        for t in times:
            if not (0.0 <= t <= T):
                raise ConfigError(f"w1 sample time {t!r} outside [0, T]")
        # the labels of increasing times never decrease, so equal ones are adjacent
        for a, b in zip(times, times[1:]):
            if not (b > a and time_label(b) != time_label(a)):
                raise ConfigError(f"w1_sample_times must be strictly increasing and differ in "
                                  f"6 significant digits, got {a!r} then {b!r}")
        part = "outputs"
        cfg = ExperimentConfig(model=model, initial=initial, T=T, levels=levels,
                               outputs=_typed(data.get("outputs", "out"), str),
                               w1_sample_times=times)
        part = "schedule"
        step_count(T, cfg.oracle_dt)  # the oracle's steps, as each level's above
        part = "initial"
        mu0 = cfg.initial_measure()
        if mu0.dim != model.dim:
            raise ConfigError(f"initial atoms have dimension {mu0.dim}, "
                              f"expected model.dim = {model.dim}")
        # every level's cells must index the atoms, or the interval's corners,
        # whatever seed draws them
        extremes = (mu0.positions if initial["type"] == "atoms"
                    else np.outer(initial["interval"], np.ones(model.dim)))
        for _, h, _ in levels:
            cell_indices(GridSpec(model.dim, h), extremes)
        # and every point the run looks at: no agent moves farther than V times
        # the run's duration, and the lattice looks R beyond that
        V, R = velocity_bound(model), model.neighborhood.radius
        for _, h, dt in levels:
            reach = V * max(T, step_count(T, dt) * dt) + R
            part = f"model, T or schedule: the agents' reach V*T + R = {reach:.3g}"
            cell_indices(GridSpec(model.dim, h),
                         np.concatenate([extremes - reach, extremes + reach]))
    except (TypeError, ValueError, OverflowError) as exc:
        hint = ""
        if "vanishing desired" in str(exc):
            hint = " (remedy: set model.heading to a fixed_axis unit vector)"
        raise ConfigError(f"{source}: invalid {part}: {exc}{hint}") from exc
    return cfg


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return parse_config(data, source=str(path))


def case_study_path() -> Path:
    """Path to the bundled 1D repulsion case-study configuration."""
    return Path(resources.files("crowdflow") / "configs" / "case_study.json")
