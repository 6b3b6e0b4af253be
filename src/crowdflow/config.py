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
from numpy.random import default_rng

from .grids import AtomicMeasure, GridSpec, cell_indices
from .scheme import mesh_schedule, step_count
from .velocity import (Ball, CaseStudyRepulsion, ConstantDesired, FixedAxis,
                       FromDesired, PrototypeAttraction, Sector, VelocityModel,
                       ZeroDesired, velocity_bound)


# The particle oracle keeps every state, step_count(T, oracle_dt) + 1 >= 2 of
# them. A state holds its atoms' float64 coordinates, at most one atom per
# agent, and, once agents have met, a map of its agents onto its atoms in the
# smallest unsigned integers that number them, at most 4 bytes an agent under
# this budget; the agents' float64 weights are kept once. So the states take
# at most (dim + 1) x 8 bytes per agent per state (states with no new
# stacking share their map, so this overcounts). A config whose oracle would
# need more is refused at load, before its initial atoms are drawn.
MAX_ORACLE_BYTES = 1 << 30


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def _require(block, key: str, where: str):
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object, got {block!r}")
    if key not in block:
        raise ConfigError(f"missing field '{key}' in {where}")
    return block[key]


def _known(block, keys, where: str) -> None:
    """Refuse a block that holds a key the parser does not read: a misspelled
    key must not fall back to its default."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object, got {block!r}")
    unknown = [key for key in block if key not in keys]
    if unknown:
        raise ConfigError(f"unknown field '{unknown[0]}' in {where} (expected {', '.join(keys)})")


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
    """A flat JSON list of numbers, as floats."""
    return [_number(v) for v in _typed(value)]


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
    _known(block, ("type", *fields), where)
    return cls(*(convert(_require(block, name, where)) for name, convert in fields.items()))


@dataclass
class ExperimentConfig:
    model: VelocityModel
    initial: AtomicMeasure
    T: float
    levels: tuple  # ((k, h, dt), ...)
    outputs: str
    w1_sample_times: tuple
    oracle_dt: float


def build_model(block: dict) -> VelocityModel:
    """The model a config's ``model`` object describes; a value its
    constructors refuse raises their TypeError or ValueError."""
    _known(block, ("dim", "n_agents", "desired", "kernel", "neighborhood", "heading"),
           "model")
    model = VelocityModel(
        dim=_integer(_require(block, "dim", "model")),
        n_agents=_integer(_require(block, "n_agents", "model")),
        desired=_build("desired", _require(block, "desired", "model")),
        kernel=_build("kernel", _require(block, "kernel", "model")),
        neighborhood=_build("neighborhood", _require(block, "neighborhood", "model")),
        heading=(FromDesired() if block.get("heading") is None
                 else _build("heading", block["heading"])),
    )
    if block.get("heading") is not None and not isinstance(model.neighborhood, Sector):
        raise ConfigError("model.heading: only a sector neighborhood reads a heading")
    return model


def _equal_agents(count: int, model: VelocityModel) -> int:
    """count, refused unless equally weighted agents number model.n_agents."""
    if count != model.n_agents:
        raise ConfigError(f"initial data has {count} equally weighted agents, "
                          f"but model.n_agents = {model.n_agents}")
    return count


def _oracle_fits(count: int, model: VelocityModel, states: int, field: str) -> None:
    """Refuse ``count`` agents whose oracle states would exceed MAX_ORACLE_BYTES."""
    size = states * count * (model.dim + 1) * 8
    if size > MAX_ORACLE_BYTES:
        raise ConfigError(f"{field} = {count}: the oracle would keep {states} states of "
                          f"{count} agents in {model.dim}D, {size:.3g} bytes, over its "
                          f"{MAX_ORACLE_BYTES}-byte budget")


def _read_initial(block, model: VelocityModel, states: int) -> AtomicMeasure:
    """The initial measure: the config's atoms, or its seed's uniform draw,
    refused if the oracle's ``states`` of it would not fit in memory."""
    kind = _require(block, "type", "initial")
    if kind == "atoms":
        _known(block, ("type", "positions", "weights"), "initial")
        # one number or one list of numbers per atom
        positions = [_numbers(p) if isinstance(p, list) else _number(p)
                     for p in _typed(_require(block, "positions", "initial"))]
        _oracle_fits(len(positions), model, states, "initial.positions")
        weights = block.get("weights")
        if weights is None:
            _equal_agents(len(positions), model)
        mu0 = AtomicMeasure(positions, None if weights is None else _numbers(weights))
    elif kind == "uniform_random":
        _known(block, ("type", "count", "interval", "seed"), "initial")
        lo, hi = _numbers(_require(block, "interval", "initial"))
        if not (hi > lo):
            raise ConfigError("initial.interval must be increasing")
        # checked before the draw, so a mistyped count allocates nothing
        count = _equal_agents(_integer(_require(block, "count", "initial")), model)
        _oracle_fits(count, model, states, "initial.count")
        rng = default_rng(_integer(_require(block, "seed", "initial")))
        mu0 = AtomicMeasure(rng.uniform(lo, hi, size=(count, model.dim)))
    else:
        raise ConfigError(f"unknown initial data type '{kind}'")
    if mu0.dim != model.dim:
        raise ConfigError(f"initial atoms have dimension {mu0.dim}, "
                          f"expected model.dim = {model.dim}")
    return mu0


def parse_config(data, source: str = "<config>") -> ExperimentConfig:
    part = "config"  # the part being read, named in the error
    try:
        _known(data, ("model", "initial", "T", "schedule", "w1_sample_times", "outputs"),
               "config")
        part = "model"
        model = build_model(_require(data, "model", "config"))
        part = "T"
        T = _number(_require(data, "T", "config"))
        part = "schedule"
        sched = _require(data, "schedule", "config")
        if "ks" in sched:
            _known(sched, ("delta", "ks", "v_ref"), "schedule")
            v_ref = _number(sched["v_ref"]) if "v_ref" in sched else velocity_bound(model)
            levels = mesh_schedule(v_ref, _number(_require(sched, "delta", "schedule")),
                                   [_integer(k) for k in _typed(sched["ks"])])
        elif "h" in sched and "dt" in sched:
            _known(sched, ("h", "dt"), "schedule")
            levels = ((0, _number(sched["h"]), _number(sched["dt"])),)
        else:
            raise ConfigError("schedule needs either {delta, ks} or {h, dt}")
        for _, h, dt in levels:  # what every command builds per level
            GridSpec(model.dim, h)
            step_count(T, dt)
        # the particle oracle's step: the finest level's, refined 10x so the
        # oracle's error stays negligible, and never longer than the horizon
        oracle_dt = min(min(dt for _, _, dt in levels) / 10.0, T)
        oracle_steps = step_count(T, oracle_dt)  # as each level's above
        part = "initial"
        mu0 = _read_initial(_require(data, "initial", "config"), model, oracle_steps + 1)
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
        cfg = ExperimentConfig(model=model, initial=mu0, T=T, levels=levels,
                               outputs=_typed(data.get("outputs", "out"), str),
                               w1_sample_times=times, oracle_dt=oracle_dt)
        part = "initial"
        # every level's cells must index the initial atoms
        for _, h, _ in levels:
            cell_indices(GridSpec(model.dim, h), mu0.positions)
        # and every point the run looks at: no agent moves farther than V times
        # the run's duration, and the lattice looks R beyond that
        V, R = velocity_bound(model), model.neighborhood.radius
        for _, h, dt in levels:
            reach = V * max(T, step_count(T, dt) * dt) + R
            part = f"model, T or schedule: the agents' reach V*T + R = {reach:.3g}"
            cell_indices(GridSpec(model.dim, h),
                         np.concatenate([mu0.positions - reach, mu0.positions + reach]))
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
