import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from crowdflow import (CaseStudyRepulsion, GridMeasure, Sector, VelocityModel, __version__,
                       config, scheme, wasserstein)
from crowdflow.cli import main
from crowdflow.config import ConfigError, case_study_path, load_config, parse_config
from helpers import CustomDesired, lattice_calls, load_bench

FAST_MODEL = {
    "dim": 1,
    "n_agents": 3,
    "desired": {"type": "zero"},
    "kernel": {"type": "case_study", "a": 0.01, "eps": 0.025},
    "neighborhood": {"type": "ball", "R": 0.1, "b": 0.02},
}


def fast_config(**overrides):
    data = {
        "model": dict(FAST_MODEL),
        "initial": {"type": "atoms", "positions": [[0.1], [0.5], [0.9]]},
        "T": 0.01,
        "schedule": {"delta": 0.5, "ks": [4, 8]},
        "outputs": "out",
    }
    data.update(overrides)
    return data


def assert_same_tree(a: Path, b: Path):
    """The output trees a and b hold the same files, byte for byte: each
    level's density_t*.csv and steps.jsonl too."""
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    names = {p.name for p in files}
    assert {"metrics.csv", "summary.json", "particles.csv", "steps.jsonl"} <= names
    assert any(name.startswith("density_t") for name in names)
    for rel in files:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def write_json(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


UNIFORM = {"type": "uniform_random", "count": 3, "interval": [0.0, 1.0], "seed": 5}
SECTOR_2D = {"model": dict(FAST_MODEL, dim=2, desired={"type": "constant", "c": [1.0, 0.0]},
                           neighborhood={"type": "sector", "R": 0.1, "alpha": 1.0, "b": 0.02},
                           heading={"type": "fixed_axis", "axis": [1.0, 0.0]}),
             "initial": {"type": "atoms", "positions": [[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]]}}


def with_raw_value(path, text, **overrides):
    """The JSON text of fast_config(**overrides) with the value at ``path``
    replaced by the raw JSON ``text`` (all of it when ``path`` is empty)."""
    if not path:
        return text
    data = json.loads(json.dumps(fast_config(**overrides)))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "@@"
    return json.dumps(data).replace('"@@"', text)


# (path, raw JSON value, fast_config overrides): values of the wrong type,
# not finite, out of range or inconsistent with the rest of the config
MALFORMED = [
    (("T",), '"abc"', {}),
    (("T",), "1e999", {}),
    (("schedule", "delta"), '"x"', {}),
    (("schedule", "h"), '"a"', {"schedule": {"h": 0.25, "dt": 0.005}}),
    (("schedule", "h"), "1e999", {"schedule": {"h": 0.25, "dt": 0.005}}),
    (("schedule", "v_ref"), "1e999", {}),
    (("initial", "count"), '"x"', {"initial": UNIFORM}),
    (("initial", "interval"), "[0, 1, 2]", {"initial": UNIFORM}),
    (("initial", "interval"), "[0, 1e309]", {"initial": UNIFORM}),
    (("initial", "seed"), "-5", {"initial": UNIFORM}),
    (("initial", "weights"), "[0.2, 0.2, 0.2]", {}),
    (("initial", "weights"), "[0.5, 0.5]", {}),
    (("initial", "positions"), "[[0.1], [NaN], [0.9]]", {}),
    (("initial", "positions"), '[[0.1], ["x"], [0.9]]', {}),
    (("model", "kernel"), "null", {}),
    ((), "3", {}),
    (("w1_sample_times",), "0.05", {}),
    (("w1_sample_times",), "[]", {}),
    # strings where a list belongs, which would be read character by character
    (("schedule", "ks"), '"48"', {}),
    (("model", "desired", "c"), '"10"', SECTOR_2D),
    (("model", "heading", "axis"), '"10"', SECTOR_2D),
    (("initial", "interval"), '"01"', {"initial": UNIFORM}),
    (("w1_sample_times",), '"0"', {}),
    (("outputs",), "null", {}),
    (("outputs",), "5", {}),
    # booleans where numbers belong (test_config_property refuses every
    # number written as a string)
    (("schedule", "delta"), "true", {}),
    (("model", "dim"), "true", {}),
    (("model", "heading", "axis"), "[1, false]", SECTOR_2D),
    (("initial", "seed"), "true", {"initial": UNIFORM}),
]


class TestLoadConfig:
    def test_bundled_case_study(self):
        cfg = load_config(case_study_path())
        assert cfg.model.dim == 1
        assert cfg.model.n_agents == 10
        assert cfg.T == pytest.approx(0.1)
        assert [k for k, _, _ in cfg.levels] == [100, 1000]
        assert cfg.w1_sample_times == (0.05, 0.1)
        assert cfg.model.kernel.a == pytest.approx(0.01)
        assert cfg.model.neighborhood.radius == pytest.approx(0.1)

    def test_bundled_sector_2d(self):
        # the deep 2D study: the benchmark's sector_2d model and pinned seed,
        # run to T = 0.05 over three levels
        path = case_study_path().with_name("sector_2d.json")
        data = json.loads(path.read_text())
        bench = load_bench("workloads.py").sector_2d(7)
        assert data["model"] == bench["model"] and data["initial"] == bench["initial"]
        cfg = load_config(path)
        assert cfg.model.dim == 2
        assert cfg.initial.n_atoms == 100
        assert cfg.T == 0.05
        assert [k for k, _, _ in cfg.levels] == [50, 100, 200]
        assert cfg.w1_sample_times == (0.025, 0.05)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/cfg.json")

    def test_malformed_json_reports_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"model": }')
        with pytest.raises(ConfigError, match=r"bad\.json:1:\d+"):
            load_config(path)

    def test_non_utf8_file_names_it(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"T": "\xe9"}')
        with pytest.raises(ConfigError, match=r"latin1\.json: not UTF-8"):
            load_config(path)
        assert main(["converge", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "latin1.json" in capsys.readouterr().err

    def test_seeded_initial_measure_reproducible(self, tmp_path):
        a = load_config(case_study_path()).initial
        b = load_config(case_study_path()).initial
        assert (a.positions == b.positions).all()
        assert a.n_atoms == 10
        assert a.positions.min() >= 0.0 and a.positions.max() < 1.0
        data = json.loads(case_study_path().read_text())
        data["initial"]["seed"] = 999
        c = load_config(write_json(tmp_path, data)).initial
        assert (c.positions != a.positions).any()


class TestValidation:
    def test_delta_one_rejected(self):
        data = fast_config(schedule={"delta": 1.0, "ks": [4, 8]})
        with pytest.raises(ConfigError, match="delta"):
            parse_config(data)

    def test_sector_with_zero_desired_gives_remedy(self):
        data = fast_config()
        data["model"]["dim"] = 2
        data["model"]["neighborhood"] = {"type": "sector", "R": 0.1, "alpha": 1.0,
                                         "b": 0.02}
        data["initial"] = {"type": "atoms",
                           "positions": [[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]]}
        with pytest.raises(ConfigError, match="fixed_axis"):
            parse_config(data)

    def test_uniform_random_requires_seed(self):
        data = fast_config(initial={"type": "uniform_random", "count": 3,
                                    "interval": [0.0, 1.0]})
        with pytest.raises(ConfigError, match="seed"):
            parse_config(data)

    def test_agent_count_mismatch(self):
        data = fast_config(initial={"type": "atoms", "positions": [[0.1], [0.5]]})
        with pytest.raises(ConfigError, match="n_agents"):
            parse_config(data)

    def test_nonpositive_horizon(self):
        with pytest.raises(ConfigError, match="T"):
            parse_config(fast_config(T=0.0))

    def test_unknown_kernel(self):
        data = fast_config()
        data["model"]["kernel"] = {"type": "gravity"}
        with pytest.raises(ConfigError, match="kernel"):
            parse_config(data)

    def test_missing_field(self):
        data = fast_config()
        del data["model"]["n_agents"]
        with pytest.raises(ConfigError, match="n_agents"):
            parse_config(data)

    def test_sample_time_outside_horizon(self):
        with pytest.raises(ConfigError, match="sample time"):
            parse_config(fast_config(w1_sample_times=[0.5]))

    @pytest.mark.parametrize("times", [[0.01, 0.005], [0.01, 0.01]])
    def test_sample_times_not_increasing(self, tmp_path, times):
        # decreasing times would misname the final row, repeated ones write it twice
        with pytest.raises(ConfigError, match="w1_sample_times must be strictly increasing"):
            parse_config(fast_config(w1_sample_times=times))
        cfg = write_json(tmp_path, fast_config(w1_sample_times=times))
        assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_sample_times_with_one_label_rejected(self, tmp_path):
        # both would be written to density_t0.005.csv and keyed "0.005" in summary.json
        times = [0.0050000001, 0.0050000002, 0.01]
        with pytest.raises(ConfigError, match=r"got 0\.0050000001 then 0\.0050000002"):
            parse_config(fast_config(w1_sample_times=times))
        cfg = write_json(tmp_path, fast_config(w1_sample_times=times))
        assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_outputs_default(self):
        data = fast_config()
        del data["outputs"]
        assert parse_config(data).outputs == "out"

    def test_empty_sample_times_rejected(self):
        # the verdict is the last sample time's, so there must be one
        with pytest.raises(ConfigError, match="w1_sample_times must be nonempty"):
            parse_config(fast_config(w1_sample_times=[]))

    @pytest.mark.parametrize("path, value, overrides", [
        (("model", "dim"), 1.5, {}),
        (("model", "n_agents"), 3.5, {}),
        (("schedule", "ks"), [4, 8.5], {}),
        (("initial", "count"), 3.5, {"initial": UNIFORM}),
        (("initial", "seed"), 5.5, {"initial": UNIFORM}),
    ], ids=["dim", "n_agents", "ks", "count", "seed"])
    def test_non_integral_integer_rejected(self, path, value, overrides):
        data = json.loads(with_raw_value(path, json.dumps(value), **overrides))
        with pytest.raises(ConfigError, match="expected an integer"):
            parse_config(data)

    def test_integral_float_accepted(self):
        data = fast_config(schedule={"delta": 0.5, "ks": [4.0, 8]})
        assert [k for k, _, _ in parse_config(data).levels] == [4, 8]

    @pytest.mark.parametrize("path, text, overrides", MALFORMED,
                             ids=[".".join(p or ["config"]) + "=" + t for p, t, _ in MALFORMED])
    def test_malformed_value_exits_2_before_any_work(self, tmp_path, capsys, path, text,
                                                     overrides):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(with_raw_value(path, text, **overrides))
        assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {cfg}: invalid ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, path, text, overrides, part", [
        ("converge", ("model", "heading", "axis"), "[0.9999999999, 0.0]", SECTOR_2D, "model"),
        ("particles", ("model", "heading", "axis"), "[0.9999999999, 0.0]", SECTOR_2D, "model"),
        ("converge", ("T",), '"0.01"', {}, "T"),
        ("converge", ("schedule", "ks"), '["100", "200"]', {}, "schedule"),
        ("project", ("initial", "positions"), "[[1e300], [-1e300], [0.5]]", {}, "initial"),
        ("project", ("initial", "interval"), "[-1e300, 1e300]", {"initial": UNIFORM}, "initial"),
        ("converge", ("model", "neighborhood", "R"), "1e300", {}, "model, T or schedule"),
        ("converge", ("schedule", "h"), "1e300",
         dict(SECTOR_2D, schedule={"h": 0.25, "dt": 0.005}), "schedule"),
        ("converge", ("model", "heading"), '{"type": "fixed_axis", "axis": [1.0]}', {},
         "model: model.heading"),
        ("converge", ("model", "heading", "axis"), "[1.0, 0.0, 0.0]", SECTOR_2D, "model"),
        ("project", ("initial", "positions"), "[[0.1], [0.5], [0.9]]", SECTOR_2D, "initial"),
        ("project", ("initial", "interval"), "[[0.0, 0.5], [1.0, 3.0]]",
         dict(SECTOR_2D, initial=UNIFORM), "initial"),
        ("project", ("initial", "weights"), "[[0.25, 0.25], [0.25, 0.25]]",
         {"initial": {"type": "atoms", "positions": [[0.1], [0.3], [0.5], [0.9]]}}, "initial"),
    ], ids=["axis-converge", "axis-particles", "T", "ks", "positions", "interval",
            "reach", "cell-volume", "heading-under-ball", "axis-3d", "atoms-1d-in-2d",
            "nested-interval", "nested-weights"])
    def test_refused_value_names_its_part(self, tmp_path, capsys, command, path, text,
                                          overrides, part):
        # a heading axis 1e-10 short of unit length, numbers written as strings,
        # atoms or an interval 2^53 or more cells from the origin, a radius that
        # takes the run as far, a cell volume past the largest float, a
        # heading under a ball, which nothing would read, a 3D heading axis on
        # a sector, 1D atoms under a 2D model, and an interval or weights
        # nested a level deeper than their flat list of numbers
        cfg = tmp_path / "cfg.json"
        cfg.write_text(with_raw_value(path, text, **overrides))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {cfg}: invalid {part}: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("path, overrides, part", [
        (("initial", "weight"), {}, "initial"),
        (("initial", "weights"), {"initial": UNIFORM}, "initial"),
        (("schedule", "vref"), {}, "schedule"),
        (("schedule", "v_ref"), {"schedule": {"h": 0.25, "dt": 0.005}}, "schedule"),
        (("w1_sample_time",), {}, "config"),
        (("model", "headings"), {}, "model"),
        (("model", "kernel", "R"), {}, "model"),
        (("model", "heading", "c"), SECTOR_2D, "model"),
    ], ids=["atoms", "uniform_random", "ks", "h", "config", "model", "kernel", "heading"])
    def test_unknown_field_exits_2_naming_it(self, tmp_path, capsys, path, overrides, part):
        # a misspelled key must not fall back to its default: "weight" would
        # run on equal weights, "vref" on a derived v_ref, "w1_sample_time" at [T/2, T]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(with_raw_value(path, "1", **overrides))
        assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {cfg}: invalid {part}: unknown field '{path[-1]}' in ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["particles", "converge"])
    @pytest.mark.parametrize("c", [[0.0, 0.0], [1e-13, 0.0]])
    def test_sector_facing_a_vanishing_constant_gives_remedy(self, tmp_path, capsys, command,
                                                             c):
        # one rule for a vanishing heading: |v_d| below 1e-12, at load as in the run
        model = dict(SECTOR_2D["model"], desired={"type": "constant", "c": c},
                     heading={"type": "from_desired"})
        cfg = write_json(tmp_path, fast_config(model=model, initial=SECTOR_2D["initial"]))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {cfg}: invalid model: ")
        assert "fixed_axis" in err[0]

    def test_attraction_cap_below_the_radius_exits_2(self, tmp_path, capsys):
        # a cap of 0.01 under a ball of R 0.1: |F| reaches almost 0.1 on the
        # ball, so a step could move 0.00386, against V dt = 0.001
        model = dict(FAST_MODEL, n_agents=2, kernel={"type": "attraction", "R": 0.01})
        cfg = write_json(tmp_path, fast_config(
            model=model, initial={"type": "atoms", "positions": [[0.0], [0.08]]},
            T=0.05, schedule={"h": 0.01, "dt": 0.05}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--level", "0"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {cfg}: invalid model: ")
        assert "attraction R = 0.01 is below the neighborhood's R = 0.1" in err[0]
        assert not (tmp_path / "o").exists()

    def test_oracle_step_count_checked_at_load(self, monkeypatch):
        # the level takes 5 steps of 0.02, the oracle 50 of 0.002
        data = fast_config(T=0.1, schedule={"h": 0.25, "dt": 0.02})
        monkeypatch.setattr(scheme, "DEFAULT_MAX_STEPS", 50)
        assert parse_config(data).oracle_dt == 0.002
        monkeypatch.setattr(scheme, "DEFAULT_MAX_STEPS", 20)
        with pytest.raises(ConfigError, match="invalid schedule: T/dt = 50 steps exceed the cap"):
            parse_config(data)

    @pytest.mark.parametrize("count", [10 ** 15, 10 ** 9])
    def test_oracle_too_large_exits_2_before_the_draw(self, tmp_path, capsys, count):
        # the case study's oracle keeps 1746 states: 14 GB of them at 10^9
        # agents; the draw alone would take 8 GB, and an allocation error at 10^15
        data = json.loads(case_study_path().read_text())
        data["model"]["n_agents"] = count
        data["initial"] = dict(UNIFORM, count=count)
        cfg = write_json(tmp_path, data)
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            rc = main(["particles", "--config", str(cfg), "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2 and time.perf_counter() - t0 < 5.0 and peak < 2 ** 20
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {cfg}: invalid initial: "
                                                   f"initial.count = {count}: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("initial, field", [(UNIFORM, "initial.count"),
                                                (None, "initial.positions")])
    def test_oracle_budget_is_its_states_times_agents(self, monkeypatch, initial, field):
        # T = 0.01 and ks [4, 8]: step_count(T, oracle_dt) + 1 states of 3 agents
        # in 1D, (dim + 1) x 8 bytes an agent a state: its atom's float64
        # coordinates, its index in the state's map onto the atoms and its weight
        data = fast_config(**({"initial": initial} if initial else {}))
        cfg = parse_config(data)
        size = (scheme.step_count(cfg.T, cfg.oracle_dt) + 1) * 3 * (1 + 1) * 8
        monkeypatch.setattr(config, "MAX_ORACLE_BYTES", size)
        parse_config(data)
        monkeypatch.setattr(config, "MAX_ORACLE_BYTES", size - 1)
        with pytest.raises(ConfigError, match=f"invalid initial: {field} = 3: "):
            parse_config(data)

    def test_weights_follow_the_one_mass_rule(self, tmp_path, capsys):
        # |sum w - 1| <= 1e-10, the grid's tolerance: 5e-11 over loads, 2e-10 exits 2
        atoms = {"type": "atoms", "positions": [[0.1], [0.5], [0.9]]}
        cfg = parse_config(fast_config(initial=dict(atoms, weights=[0.25, 0.25, 0.5 + 5e-11])))
        assert cfg.initial.weights.tolist() == [0.25, 0.25, 0.5 + 5e-11]
        path = write_json(tmp_path, fast_config(initial=dict(atoms,
                                                             weights=[0.25, 0.25, 0.5 + 2e-10])))
        assert main(["converge", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {path}: invalid initial: the mass ")
        assert not (tmp_path / "o").exists()

    def test_explicit_level_schedule(self):
        cfg = parse_config(fast_config(schedule={"h": 0.25, "dt": 0.005}))
        assert cfg.levels == ((0, 0.25, 0.005),)


class TestCli:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"{__version__}\n"

    def test_module_entry_point(self):
        # python -m crowdflow.cli in a fresh interpreter, on this package
        src = str(Path(config.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "crowdflow.cli", "--version"],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0
        assert proc.stdout == f"{__version__}\n" == "0.1.0\n"

    def test_project_writes_per_level_densities(self, tmp_path):
        cfg = write_json(tmp_path, fast_config())
        assert main(["project", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "initial_atoms.json").is_file()
        assert (tmp_path / "o" / "level_4" / "density_t0.csv").is_file()
        assert (tmp_path / "o" / "level_8" / "density_t0.csv").is_file()

    def test_particles_outputs(self, tmp_path):
        cfg = write_json(tmp_path, fast_config())
        assert main(["particles", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "particles.csv").is_file()
        final = json.loads((tmp_path / "o" / "particles_final.json").read_text())
        assert len(final) == 3
        assert all(set(atom) == {"x", "w"} for atom in final)

    def test_oracle_keeps_the_initial_weights(self, tmp_path):
        # two agents weighted 0.9 and 0.1, farther apart than R: at t = 0 the
        # grid and the oracle are the same measure up to atomization
        data = fast_config(model=dict(FAST_MODEL, n_agents=2), T=0.01,
                           initial={"type": "atoms", "positions": [[0.2], [0.8]],
                                    "weights": [0.9, 0.1]},
                           schedule={"delta": 0.9, "ks": [10, 100], "v_ref": 4.0},
                           w1_sample_times=[0, 0.01])
        cfg = write_json(tmp_path, data)
        out = tmp_path / "o"
        assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "metrics.csv", newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if float(r["t"]) == 0.0]
        assert [r["k"] for r in rows] == ["10", "100"]
        for r in rows:
            assert float(r["w1"]) <= float(r["atomization_bound"])
        assert main(["particles", "--config", str(cfg), "--out", str(out)]) == 0
        final = json.loads((out / "particles_final.json").read_text())
        assert [a["w"] for a in final] == [0.9, 0.1]

    def test_simulate_level(self, tmp_path):
        cfg = write_json(tmp_path, fast_config())
        assert main(["simulate", "--config", str(cfg), "--level", "4",
                     "--out", str(tmp_path / "o")]) == 0
        ldir = tmp_path / "o" / "level_4"
        assert (ldir / "steps.jsonl").is_file()
        snaps = sorted(p.name for p in ldir.glob("density_t*.csv"))
        assert snaps == ["density_t0.005.csv", "density_t0.01.csv"]
        records = [json.loads(line) for line in (ldir / "steps.jsonl").read_text().splitlines()]
        assert set(records[0]) == {"n", "mass_error", "max_displacement", "alpha", "occupied"}
        # the agents sit farther apart than R and v_d = 0, so none moves
        assert all(rec["max_displacement"] == 0.0 for rec in records)

    def test_simulate_unknown_level_is_config_error(self, tmp_path):
        cfg = write_json(tmp_path, fast_config())
        assert main(["simulate", "--config", str(cfg), "--level", "7",
                     "--out", str(tmp_path / "o")]) == 2

    def test_invalid_config_exit_code(self, tmp_path):
        cfg = write_json(tmp_path, fast_config(T=-1.0))
        assert main(["project", "--config", str(cfg)]) == 2

    def test_seed_flag_exits_2(self, tmp_path, capsys):
        # the config's initial.seed is the only seed: another draw is another config
        cfg = write_json(tmp_path, fast_config(initial=UNIFORM))
        with pytest.raises(SystemExit) as exc:
            main(["particles", "--config", str(cfg), "--seed", "5",
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        err = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(err) == 1 and "unrecognized arguments: --seed 5" in err[0]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("out, blocker, named", [("taken", "taken", "taken"),
                                                     ("taken/below", "taken", "taken/below"),
                                                     ("o", "o/level_4", "o/level_4")])
    def test_output_path_taken_by_a_file_exits_2(self, tmp_path, capsys, out, blocker,
                                                 named):
        cfg = write_json(tmp_path, fast_config())
        (tmp_path / blocker).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / blocker).write_text("not a directory")
        assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {tmp_path / named}:")

    @pytest.mark.parametrize("command, blocker", [
        (["project"], "initial_atoms.json"), (["particles"], "particles.csv"),
        (["simulate", "--level", "4"], "level_4/steps.jsonl"),
        (["converge"], "metrics.csv"), (["project"], "level_8/density_t0.csv"),
        (["particles"], "particles_final.json"),
        (["simulate", "--level", "8"], "level_8/density_t0.01.csv"),
        (["converge"], "summary.json"), (["converge"], "level_8/density_t0.01.csv")])
    def test_output_file_taken_by_a_directory_exits_2(self, tmp_path, capsys, command,
                                                      blocker):
        # refused before any compute: no output file is written, so no step
        # runs and no steps.jsonl line records one
        cfg = write_json(tmp_path, fast_config())
        (tmp_path / "o" / blocker).mkdir(parents=True)
        assert main([*command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {tmp_path / 'o' / blocker}: Is a directory"]
        assert [p for p in (tmp_path / "o").rglob("*") if p.is_file()] == []

    def test_sample_one_ulp_below_a_step_boundary(self, tmp_path):
        # 23946.03 / 16.983 rounds up to 1410.0, but 1410 * 16.983 lies
        # 3.6e-12 above 23946.03: the level reads that sample between frames
        # 1410 and 1411, at the weight of frame 1411 clamped from -2e-13 to 0
        data = json.loads(case_study_path().read_text())
        data.update(T=24000.0, schedule={"h": 1.0, "dt": 16.983}, w1_sample_times=[23946.03])
        cfg = write_json(tmp_path, data)
        assert main(["simulate", "--config", str(cfg), "--level", "0",
                     "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "level_0" / "density_t23946.csv").is_file()

    def test_converge_outputs_and_summary(self, tmp_path, capsys):
        cfg = write_json(tmp_path, fast_config())
        assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        metrics = (tmp_path / "o" / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "k,h,dt,t,w1,atomization_bound"
        assert len(metrics) == 1 + 2 * 2  # levels x sample times
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["ks"] == [4, 8]
        assert "monotone_decrease" in summary
        # both levels run past T, so every row compares the grid at its own t
        assert summary["grid_sample_times"] == {k: {"0.005": 0.005, "0.01": 0.01}
                                                for k in ("4", "8")}
        assert "w1_lp_solves" not in summary  # 1D rows solve no LP
        assert "warning" not in capsys.readouterr().err

    def test_negative_zero_sample_time_is_zero(self, tmp_path):
        # -0.0 is read as 0.0, so every output names it "0", as project does
        cfg = write_json(tmp_path, fast_config(w1_sample_times=[-0.0, 0.005]))
        out = tmp_path / "o"
        assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 0
        names = sorted(str(p.relative_to(out)) for p in out.rglob("*"))
        assert [n for n in names if "-0" in n] == []
        for k in ("4", "8"):
            assert f"level_{k}/density_t0.csv" in names
        summary = json.loads((out / "summary.json").read_text())
        assert all(list(row) == ["0", "0.005"] for row in summary["w1_gap"].values())
        assert all(math.copysign(1, row["0"]) == 1
                   for row in summary["grid_sample_times"].values())
        rows = (out / "metrics.csv").read_text().splitlines()[1:]
        assert [r.split(",")[3] for r in rows] == ["0.0", "0.005"] * 2

    def test_converge_records_grid_sample_times(self, tmp_path, capsys):
        # v_ref = 1.2 gives dt = 0.456 at k = 4, where round(0.6 / dt) = 1 step
        # ends the run at t = 0.456 < T, and dt = 0.323 at k = 8 (2 steps, past T)
        cfg = write_json(tmp_path, fast_config(T=0.6))
        assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        dt4 = (1.0 / (4 * 1.2)) ** 0.5
        assert summary["grid_sample_times"] == {"4": {"0.3": 0.3, "0.6": dt4},
                                                "8": {"0.3": 0.3, "0.6": 0.6}}
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        assert len(warnings) == 1
        assert f"k=4 t=0.6 at t={dt4!r}" in warnings[0]
        assert "k=8" not in warnings[0]
        metrics = (tmp_path / "o" / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "k,h,dt,t,w1,atomization_bound"

    def test_simulate_reports_an_early_snapshot(self, tmp_path, capsys):
        # the levels above: k = 4 ends at t = 0.456 < 0.6, k = 8 runs past T
        cfg = write_json(tmp_path, fast_config(T=0.6))
        dt4 = (1.0 / (4 * 1.2)) ** 0.5
        for k, expected in ((4, [f"k=4 t=0.6 at t={dt4!r}"]), (8, [])):
            assert main(["simulate", "--config", str(cfg), "--level", str(k),
                         "--out", str(tmp_path / "o")]) == 0
            warnings = [line for line in capsys.readouterr().err.splitlines()
                        if line.startswith("warning:")]
            assert [line[line.index("k="):] for line in warnings] == expected

    def test_converge_determinism(self, tmp_path):
        cfg = write_json(tmp_path, fast_config())
        for name in ("o1", "o2"):
            assert main(["converge", "--config", str(cfg),
                         "--out", str(tmp_path / name)]) == 0
        assert_same_tree(tmp_path / "o1", tmp_path / "o2")

    def test_converge_determinism_2d(self, tmp_path):
        # 2D rows run the transport LP; its candidate pairs and rounds must
        # not depend on anything but the inputs
        data = fast_config(model=dict(FAST_MODEL, dim=2, n_agents=12), T=0.02,
                           initial={"type": "uniform_random", "count": 12,
                                    "interval": [0.0, 1.0], "seed": 5})
        data["schedule"]["ks"] = [8, 16]
        cfg = write_json(tmp_path, data)
        for name in ("o1", "o2"):
            assert main(["converge", "--config", str(cfg),
                         "--out", str(tmp_path / name)]) == 0
        assert_same_tree(tmp_path / "o1", tmp_path / "o2")
        gaps = json.loads((tmp_path / "o1" / "summary.json").read_text())["w1_gap"]
        assert set(gaps) == {"8", "16"}
        # the bounds are sums in floating point, so they may cross by rounding
        assert all(-1e-12 <= gap <= 1e-8 for row in gaps.values() for gap in row.values())
        solves = json.loads((tmp_path / "o1" / "summary.json").read_text())["w1_lp_solves"]
        assert {k: set(row) for k, row in solves.items()} == {k: set(row) for k, row in gaps.items()}
        assert all(n >= 1 for row in solves.values() for n in row.values())

    def test_converge_3d_takes_the_lattice(self, tmp_path, monkeypatch):
        # the 3D config of the CI smoke run with 100 agents: each level's one
        # grid step (73 and 94 cells) takes the lattice correlation, and the
        # certified W1 LP runs in 3D
        data = {"model": dict(FAST_MODEL, dim=3, n_agents=100,
                              desired={"type": "constant", "c": [1, 0, 0]},
                              neighborhood={"type": "ball", "R": 0.2, "b": 0.02}),
                "initial": {"type": "uniform_random", "count": 100,
                            "interval": [0.0, 1.0], "seed": 3},
                "T": 0.02, "schedule": {"delta": 0.9, "ks": [5, 10], "v_ref": 4.0},
                "w1_sample_times": [0.01, 0.02], "outputs": "out"}
        ran = lattice_calls(monkeypatch)
        assert main(["converge", "--config", str(write_json(tmp_path, data)),
                     "--out", str(tmp_path / "o")]) == 0
        assert ran == [True, True]
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["monotone_decrease"] is True
        assert all(gap <= 1e-8 for row in summary["w1_gap"].values() for gap in row.values())

    def test_w1_cap_hit_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(wasserstein, "DEFAULT_MAX_PAIRS", 8)
        data = fast_config(model=dict(FAST_MODEL, dim=2))
        data["initial"] = {"type": "atoms",
                           "positions": [[0.1, 0.1], [0.5, 0.5], [0.9, 0.1]]}
        cfg = write_json(tmp_path, data)
        assert main(["converge", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "k=4, t=0.005" in err
        assert "3 grid atoms and 3 oracle atoms" in err

    def test_w1_cap_hit_stops_level_at_sample_step(self, tmp_path, monkeypatch):
        monkeypatch.setattr(wasserstein, "DEFAULT_MAX_PAIRS", 8)
        # 8 steps of 0.0012 to T = 0.01: t = T/2 lies between frames 4 and 5
        data = fast_config(model=dict(FAST_MODEL, dim=2), schedule={"h": 0.05, "dt": 0.0012},
                           w1_sample_times=[0.005, 0.01])
        data["initial"] = {"type": "atoms",
                           "positions": [[0.1, 0.1], [0.5, 0.5], [0.9, 0.1]]}
        cfg = write_json(tmp_path, data)
        out = tmp_path / "o"
        assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 2
        lines = (out / "level_0" / "steps.jsonl").read_text().splitlines()
        assert [json.loads(line)["n"] for line in lines] == [1, 2, 3, 4, 5]
        assert (out / "level_0" / "density_t0.005.csv").is_file()
        assert not (out / "level_0" / "density_t0.01.csv").exists()
        assert not (out / "metrics.csv").exists()

    def test_failed_transport_lp_exits_3(self, tmp_path, monkeypatch, capsys):
        # a 2D W1 row whose LP solve fails ends the run with one named line,
        # not a traceback
        class Failing(wasserstein._Highs):
            def getModelStatus(self):
                return wasserstein.HighsModelStatus.kSolveError

            def modelStatusToString(self, status):
                return "forced failure"

        monkeypatch.setattr(wasserstein, "_Highs", Failing)
        data = fast_config(model=dict(FAST_MODEL, dim=2))
        data["initial"] = {"type": "atoms",
                           "positions": [[0.1, 0.1], [0.5, 0.5], [0.9, 0.1]]}
        cfg = write_json(tmp_path, data)
        assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "numerical invariant violated: transport LP failed: forced failure"]

    def test_invariant_break_keeps_telemetry(self, tmp_path, monkeypatch, capsys):
        # three close agents repel, and the support grows by 2 cells a step:
        # 5, 7, 9, 11, 13, ... so a cap of 12 breaks at step 5
        data = fast_config(initial={"type": "atoms", "positions": [[0.45], [0.5], [0.55]]},
                           schedule={"h": 0.01, "dt": 0.001})
        cfg = write_json(tmp_path, data)
        full = tmp_path / "full"
        assert main(["simulate", "--config", str(cfg), "--level", "0", "--out", str(full)]) == 0
        full_lines = (full / "level_0" / "steps.jsonl").read_text().splitlines()
        assert [json.loads(line)["occupied"] for line in full_lines[:5]] == [5, 7, 9, 11, 13]

        monkeypatch.setattr(scheme, "DEFAULT_MAX_OCCUPIED", 12)
        out = tmp_path / "o"
        assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 3
        assert "13 occupied cells at step 5" in capsys.readouterr().err
        lines = (out / "level_0" / "steps.jsonl").read_text().splitlines()
        assert lines == full_lines[:4]

    @pytest.mark.parametrize("fault", ["velocity", "fractions"])
    def test_step_invariant_break_exits_3_naming_the_step(self, tmp_path, monkeypatch, capsys,
                                                          fault):
        # from step 3 on, the grid field is 2V, or one overlap fraction is
        # scaled by 1 + 1e-9: either breaks the run before that step's line
        calls = []
        if fault == "velocity":
            def field(model, lam, X):
                calls.append(None)
                v = scheme.velocity_bound(model) * (2.0 if len(calls) >= 3 else 0.0)
                return np.full(np.shape(X), v)
            monkeypatch.setattr(scheme, "eval_grid_many", field)
        else:
            exact = scheme.overlap_fractions

            def fractions(spec, J, W):
                calls.append(None)
                targets, frac = exact(spec, J, W)
                if len(calls) >= 3:
                    frac[np.argmax(frac)] *= 1 + 1e-9
                return targets, frac
            monkeypatch.setattr(scheme, "overlap_fractions", fractions)
        data = fast_config(schedule={"h": 0.01, "dt": 0.001})
        cfg = write_json(tmp_path, data)
        out = tmp_path / "o"
        assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical invariant violated: ")
        assert "at step 3," in err[0]
        assert ("farther than V*dt" if fault == "velocity" else "overlap fractions") in err[0]
        assert len((out / "level_0" / "steps.jsonl").read_text().splitlines()) == 2

    @pytest.mark.parametrize("where", ["step", "snapshot", "w1"])
    def test_mass_violation_exits_3(self, tmp_path, monkeypatch, capsys, where):
        # wherever a run finds a mass 2e-10 off 1 (a step's total, a snapshot
        # write, or W1's atomization of the snapshot) it ends with exit 3 and
        # one named line, never a traceback
        if where == "w1":
            def w1_of_heavier_grid(lam, mu):
                heavier = GridMeasure(lam.spec, lam.indices, lam.rho * (1 + 2e-10))
                return wasserstein.w1_grid_atomic(heavier, mu)
            monkeypatch.setattr("crowdflow.cli.w1_grid_atomic", w1_of_heavier_grid)
        else:
            module = {"step": "crowdflow.scheme", "snapshot": "crowdflow.grids"}[where]
            monkeypatch.setattr(f"{module}.total_mass", lambda lam: 1 + 2e-10)
        cfg = write_json(tmp_path, fast_config())
        assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("numerical invariant violated: the mass 1.0000000002 of ")

    @pytest.mark.parametrize("command", ["particles", "converge"])
    def test_vanishing_heading_exit_code(self, tmp_path, monkeypatch, command):
        # configs cannot name a custom desired velocity, so swap one in: the
        # sector faces v_d(x) = -x, which vanishes at the agent on the origin
        data = fast_config(model=dict(FAST_MODEL, dim=2))
        data["initial"] = {"type": "atoms",
                           "positions": [[0.0, 0.0], [0.05, 0.0], [0.5, 0.5]]}
        model = VelocityModel(dim=2, n_agents=3, desired=CustomDesired(lambda x: -x, 1.0, 1.0),
                              kernel=CaseStudyRepulsion(0.01, 0.025),
                              neighborhood=Sector(0.1, math.pi, 0.02))
        cfg = dataclasses.replace(parse_config(data), model=model)
        monkeypatch.setattr("crowdflow.cli.load_config", lambda path: cfg)
        assert main([command, "--config", "unused.json", "--out", str(tmp_path / "o")]) == 3

    def test_converge_non_monotone_exit_code(self, tmp_path):
        # a single stationary agent: exact on the k=2 grid (atom on a cell
        # center) but half a cell off on the k=3 grid, so refinement makes the
        # reported W1 + bound worse and the run must fail with code 3
        data = fast_config()
        data["model"]["n_agents"] = 1
        data["initial"] = {"type": "atoms", "positions": [[0.5]]}
        data["schedule"] = {"delta": 0.5, "ks": [2, 3]}
        data["T"] = 0.1
        cfg = write_json(tmp_path, data)
        assert main(["converge", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 3
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["monotone_decrease"] is False
