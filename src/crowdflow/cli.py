"""Command line entry point.

Subcommands: ``project`` (initial data onto each grid level), ``particles``
(characteristics oracle), ``simulate`` (grid scheme at one level), and
``converge`` (oracle vs. every level with W1 metrics). Exit codes: 0 success,
2 configuration error, 3 numerical-invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import __version__
from .config import ConfigError, ExperimentConfig, load_config
from .grids import GridSpec, project_atomic, write_density_csv
from .particles import run_particles, to_measure, write_trajectory_csv
from .scheme import NumericalInvariantError, run, sample_at
from .wasserstein import w1_grid_atomic

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _out_dir(cfg: ExperimentConfig, args) -> Path:
    out = Path(args.out) if args.out else Path(cfg.outputs)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _level_dir(out: Path, k: int) -> Path:
    d = out / f"level_{k}"
    d.mkdir(parents=True, exist_ok=True)
    return d


def _oracle_dt(cfg: ExperimentConfig) -> float:
    # finest level's step, refined 10x so oracle error stays negligible;
    # never longer than the horizon itself
    return min(min(dt for _, _, dt in cfg.levels) / 10.0, cfg.T)


def _write_steps_jsonl(traj, path: Path) -> None:
    with open(path, "w") as fh:
        for n, rep in enumerate(traj.reports):
            fh.write(json.dumps({"n": n + 1, "mass_error": rep.mass_error,
                                 "max_displacement": rep.max_displacement,
                                 "alpha": rep.cfl_alpha,
                                 "occupied": rep.occupied_cells}) + "\n")


def cmd_project(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(cfg, args)
    mu0 = cfg.initial_measure(args.seed)
    (out / "initial_atoms.json").write_text(mu0.to_json() + "\n")
    for k, h, _ in cfg.levels:
        lam0 = project_atomic(mu0, GridSpec(cfg.model.dim, h))
        write_density_csv(lam0, _level_dir(out, k) / "density_t0.csv")
    return EXIT_OK


def cmd_particles(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(cfg, args)
    mu0 = cfg.initial_measure(args.seed)
    traj = run_particles(mu0.positions, cfg.model, cfg.T, _oracle_dt(cfg))
    write_trajectory_csv(traj, out / "particles.csv")
    (out / "particles_final.json").write_text(to_measure(traj.final).to_json() + "\n")
    return EXIT_OK


def _run_level(cfg: ExperimentConfig, level, mu0, out: Path):
    k, h, dt = level
    lam0 = project_atomic(mu0, GridSpec(cfg.model.dim, h))
    traj = run(lam0, cfg.model, cfg.T, dt)
    ldir = _level_dir(out, k)
    _write_steps_jsonl(traj, ldir / "steps.jsonl")
    for t in cfg.w1_sample_times:
        write_density_csv(sample_at(traj, min(t, traj.duration)),
                          ldir / f"density_t{t:g}.csv")
    return traj


def cmd_simulate(cfg: ExperimentConfig, args) -> int:
    levels = {k: (k, h, dt) for k, h, dt in cfg.levels}
    if args.level not in levels:
        raise ConfigError(f"level {args.level} not in schedule "
                          f"(available: {sorted(levels)})")
    out = _out_dir(cfg, args)
    _run_level(cfg, levels[args.level], cfg.initial_measure(args.seed), out)
    return EXIT_OK


def cmd_converge(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(cfg, args)
    mu0 = cfg.initial_measure(args.seed)

    oracle = run_particles(mu0.positions, cfg.model, cfg.T, _oracle_dt(cfg))
    write_trajectory_csv(oracle, out / "particles.csv")
    times = cfg.w1_sample_times
    oracle_at = {}
    for t in times:
        n = min(round(t / oracle.dt), len(oracle.states) - 1)
        oracle_at[t] = to_measure(oracle.states[n])

    rows = []
    final_by_k = {}
    for level in cfg.levels:
        k, h, dt = level
        traj = _run_level(cfg, level, mu0, out)
        for t in times:
            res = w1_grid_atomic(sample_at(traj, min(t, traj.duration)), oracle_at[t])
            rows.append((k, h, dt, t, res.distance, res.atomization_bound))
            if t == times[-1]:
                final_by_k[k] = res.distance + res.atomization_bound

    with open(out / "metrics.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "h", "dt", "t", "w1", "atomization_bound"])
        for k, h, dt, t, dist, bound in rows:
            w.writerow([k, repr(h), repr(dt), repr(t), repr(dist), repr(bound)])

    ks = sorted(final_by_k)
    vals = [final_by_k[k] for k in ks]
    monotone = all(b < a for a, b in zip(vals, vals[1:])) if len(vals) > 1 else None
    summary = {"ks": ks, "t_final": times[-1],
               "w1_plus_bound": {str(k): final_by_k[k] for k in ks},
               "monotone_decrease": monotone}
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    if monotone is None:
        print("converge: single level, no monotonicity verdict")
    else:
        print(f"converge: monotone W1 decrease {'PASS' if monotone else 'FAIL'}")
    if monotone is False:
        raise NumericalInvariantError("W1 error did not decrease under refinement")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="crowdflow",
                                     description="Measure-transport crowd/swarm simulations")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="experiment config (JSON)")
    common.add_argument("--out", default=None, help="output directory override")
    common.add_argument("--threads", type=int, default=1,
                        help="worker threads (levels run sequentially; reductions "
                        "are order-fixed regardless)")
    common.add_argument("--seed", type=int, default=None, help="RNG seed override")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("project", parents=[common],
                   help="project the initial data onto every grid level")
    sub.add_parser("particles", parents=[common],
                   help="run the particle characteristics oracle")
    sim = sub.add_parser("simulate", parents=[common],
                         help="run the grid scheme at one refinement level")
    sim.add_argument("--level", type=int, required=True, help="refinement index k")
    sub.add_parser("converge", parents=[common],
                   help="run the full convergence study")
    return parser


_COMMANDS = {"project": cmd_project, "particles": cmd_particles,
             "simulate": cmd_simulate, "converge": cmd_converge}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads is not None and args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        cfg = load_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalInvariantError as exc:
        print(f"numerical invariant violated: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
