"""Command line entry point.

Subcommands: ``project`` (initial data onto each grid level), ``particles``
(characteristics oracle), ``simulate`` (grid scheme at one level), and
``converge`` (oracle vs. every level with W1 metrics). Exit codes: 0 success,
2 configuration error, 3 numerical-invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import namedtuple
from pathlib import Path

from . import __version__
from .config import ConfigError, ExperimentConfig, load_config, time_label
from .grids import GridSpec, csv_text, project_atomic, write_density_csv
from .particles import run_particles, to_measure, write_trajectory_csv
from .scheme import NumericalInvariantError, run, sample_at, step_count
from .wasserstein import AtomCapError, w1_grid_atomic

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _mkdir(path: Path) -> Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"cannot make output directory {path}: {exc.strerror}") from exc
    return path


def _out_dir(cfg: ExperimentConfig, args) -> Path:
    return _mkdir(Path(args.out) if args.out else Path(cfg.outputs))


def _level_dir(out: Path, k: int) -> Path:
    return _mkdir(out / f"level_{k}")


def cmd_project(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(cfg, args)
    (out / "initial_atoms.json").write_text(cfg.initial.to_json() + "\n")
    for k, h, _ in cfg.levels:
        lam0 = project_atomic(cfg.initial, GridSpec(cfg.model.dim, h))
        write_density_csv(lam0, _level_dir(out, k) / "density_t0.csv")
    return EXIT_OK


def cmd_particles(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(cfg, args)
    agents = run_particles(cfg.initial, cfg.model, cfg.T, cfg.oracle_dt)
    write_trajectory_csv(agents, cfg.oracle_dt, out / "particles.csv")
    (out / "particles_final.json").write_text(to_measure(agents[-1]).to_json() + "\n")
    return EXIT_OK


def _run_level(cfg: ExperimentConfig, level, out: Path):
    """Step one level, keeping only the previous frame.

    Each step's line of ``steps.jsonl`` is written and flushed when the step
    finishes. Sample time t is read at the grid time t' = min(t, n_steps*dt),
    since a level of round(T/dt) steps may end before t: between frames n and
    n + 1, n = min(int(t'/dt), n_steps - 1). Its snapshot is built once, when
    step n + 1 finishes, written to ``density_t<t>.csv`` and yielded as
    ``(t, t', snapshot)``, in the order of the (increasing) sample times.
    """
    k, h, dt = level
    lam = project_atomic(cfg.initial, GridSpec(cfg.model.dim, h))
    n_steps = step_count(cfg.T, dt)
    pending = [(t, min(t, n_steps * dt)) for t in cfg.w1_sample_times]
    ldir = _level_dir(out, k)
    with open(ldir / "steps.jsonl", "w") as fh:
        for n, (new, rep) in enumerate(run(lam, cfg.model, cfg.T, dt)):
            fh.write(json.dumps({"n": n + 1, "mass_error": rep.mass_error,
                                 "max_displacement": rep.max_displacement,
                                 "alpha": rep.cfl_alpha,
                                 "occupied": rep.occupied_cells}) + "\n")
            fh.flush()
            while pending and min(int(pending[0][1] / dt), n_steps - 1) == n:
                t, t_grid = pending.pop(0)
                lam_t = sample_at(lam, new, n, dt, t_grid)
                write_density_csv(lam_t, ldir / f"density_t{time_label(t)}.csv")
                yield t, t_grid, lam_t
            lam = new


def cmd_simulate(cfg: ExperimentConfig, args) -> int:
    levels = {k: (k, h, dt) for k, h, dt in cfg.levels}
    if args.level not in levels:
        raise ConfigError(f"level {args.level} not in schedule "
                          f"(available: {sorted(levels)})")
    out = _out_dir(cfg, args)
    for _ in _run_level(cfg, levels[args.level], out):
        pass
    return EXIT_OK


# a W1 row: level k's grid at time t_grid against the oracle at sample time t
W1Row = namedtuple("W1Row", "k h dt t t_grid w1")


def cmd_converge(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(cfg, args)
    oracle = run_particles(cfg.initial, cfg.model, cfg.T, cfg.oracle_dt)
    write_trajectory_csv(oracle, cfg.oracle_dt, out / "particles.csv")
    times = cfg.w1_sample_times
    oracle_at = {t: to_measure(oracle[min(round(t / cfg.oracle_dt), len(oracle) - 1)])
                 for t in times}

    rows = []
    for level in cfg.levels:
        k, h, dt = level
        # each W1 row is computed at the step that produces its snapshot, so
        # a cap hit stops the level there
        for t, t_grid, lam_t in _run_level(cfg, level, out):
            try:
                res = w1_grid_atomic(lam_t, oracle_at[t])
            except AtomCapError as exc:
                raise ConfigError(
                    f"level k={k}, t={t:g}: W1 between {lam_t.occupied} grid atoms and "
                    f"{oracle_at[t].n_atoms} oracle atoms is over the LP cap ({exc})") from exc
            rows.append(W1Row(k, h, dt, t, t_grid, res))

    (out / "metrics.csv").write_text(csv_text(
        [["k", "h", "dt", "t", "w1", "atomization_bound"]]
        + [[str(r.k), *map(repr, (r.h, r.dt, r.t, r.w1.distance, r.w1.atomization_bound))]
           for r in rows]), newline="")

    finals = [r for r in rows if r.t == times[-1]]  # one per level, in level order
    ks = [r.k for r in finals]
    vals = [r.w1.upper + r.w1.atomization_bound for r in finals]
    monotone = all(b < a for a, b in zip(vals, vals[1:])) if len(vals) > 1 else None

    def per_level(value):
        return {str(k): {time_label(r.t): value(r) for r in rows if r.k == k} for k in ks}

    summary = {"ks": ks, "t_final": times[-1],
               "w1_plus_bound": dict(zip(map(str, ks), vals)),
               "monotone_decrease": monotone,
               "grid_sample_times": per_level(lambda r: r.t_grid),
               "w1_gap": per_level(lambda r: r.w1.upper - r.w1.lower)}
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    early = [f"k={r.k} t={r.t:g} at t={r.t_grid!r}" for r in rows if r.t_grid < r.t]
    if early:
        print(f"warning: the grid run ends before the sample time, so W1 compares the "
              f"grid at an earlier time than the oracle: {', '.join(early)}", file=sys.stderr)
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
