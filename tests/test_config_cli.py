import json

import pytest

from crowdflow.cli import main
from crowdflow.config import (ConfigError, case_study_path, load_config,
                              parse_config, write_config)

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


def write_json(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


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

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/cfg.json")

    def test_malformed_json_reports_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"model": }')
        with pytest.raises(ConfigError, match=r"bad\.json:1:\d+"):
            load_config(path)

    def test_roundtrip(self, tmp_path):
        cfg = load_config(case_study_path())
        out = tmp_path / "copy.json"
        write_config(cfg, out)
        back = load_config(out)
        assert back.levels == cfg.levels
        assert back.T == cfg.T
        assert back.w1_sample_times == cfg.w1_sample_times
        assert back.initial == cfg.initial
        assert back.model == cfg.model

    def test_seeded_initial_measure_reproducible(self):
        cfg = load_config(case_study_path())
        a = cfg.initial_measure()
        b = cfg.initial_measure()
        assert (a.positions == b.positions).all()
        assert a.n_atoms == 10
        assert a.positions.min() >= 0.0 and a.positions.max() < 1.0
        c = cfg.initial_measure(seed_override=999)
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

    def test_explicit_level_schedule(self):
        cfg = parse_config(fast_config(schedule={"h": 0.25, "dt": 0.005}))
        assert cfg.levels == ((0, 0.25, 0.005),)
        assert cfg.delta is None


class TestCli:
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

    def test_bad_threads_exit_code(self, tmp_path):
        cfg = write_json(tmp_path, fast_config())
        assert main(["project", "--config", str(cfg), "--threads", "0",
                     "--out", str(tmp_path / "o")]) == 2

    def test_converge_outputs_and_summary(self, tmp_path):
        cfg = write_json(tmp_path, fast_config())
        assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        metrics = (tmp_path / "o" / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "k,h,dt,t,w1,atomization_bound"
        assert len(metrics) == 1 + 2 * 2  # levels x sample times
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["ks"] == [4, 8]
        assert "monotone_decrease" in summary

    def test_converge_determinism(self, tmp_path):
        cfg = write_json(tmp_path, fast_config())
        for name in ("o1", "o2"):
            assert main(["converge", "--config", str(cfg),
                         "--out", str(tmp_path / name)]) == 0
        for rel in ("metrics.csv", "summary.json", "particles.csv"):
            assert (tmp_path / "o1" / rel).read_bytes() == \
                   (tmp_path / "o2" / rel).read_bytes()

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
