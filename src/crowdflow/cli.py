"""Command line entry point.

Subcommands: ``project`` (initial data onto each grid level), ``particles``
(characteristics oracle), ``simulate`` (grid scheme at one level), and
``converge`` (oracle vs. every level with W1 metrics). Exit codes: 0 success,
2 configuration error or a path that cannot be read or written, 3
numerical-invariant violation.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
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


def _out_dir(cfg: ExperimentConfig, args, files) -> Path:
    """The output directory, with the directories of ``files`` under it made
    and a file path taken by a directory refused, before any compute."""
    out = Path(args.out) if args.out else Path(cfg.outputs)
    for path in (out / name for name in files):
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    return out


def _density(k: int, t: float) -> str:
    return f"level_{k}/density_t{time_label(t)}.csv"


def _level_files(cfg: ExperimentConfig, k: int) -> list:
    return [f"level_{k}/steps.jsonl", *(_density(k, t) for t in cfg.w1_sample_times)]


def cmd_project(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(cfg, args, ["initial_atoms.json", *(_density(k, 0) for k, _, _ in cfg.levels)])
    (out / "initial_atoms.json").write_text(cfg.initial.to_json() + "\n")
    for k, h, _ in cfg.levels:
        lam0 = project_atomic(cfg.initial, GridSpec(cfg.model.dim, h))
        write_density_csv(lam0, out / _density(k, 0))
    return EXIT_OK


def cmd_particles(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(cfg, args, ["particles.csv", "particles_final.json"])
    states = run_particles(cfg.initial, cfg.model, cfg.T, cfg.oracle_dt)
    write_trajectory_csv(states, cfg.oracle_dt, out / "particles.csv")
    (out / "particles_final.json").write_text(to_measure(states[-1]).to_json() + "\n")
    return EXIT_OK


def _run_level(cfg: ExperimentConfig, level, out: Path):
    """Step one level, keeping only the previous frame.

    Each step's line of ``steps.jsonl`` is written and flushed when the step
    finishes. Sample time t is read at the grid time t' = min(t, n_steps*dt)
    (a level of round(T/dt) steps may end before t). Before the first step,
    t gets frame n = min(int(t'/dt), n_steps - 1) and the weight (t' - n*dt)/dt
    of frame n + 1, clamped to [0, 1] as t'/dt may round up past t'. Its
    snapshot is built when step n + 1 finishes, written to
    ``density_t<t>.csv`` and yielded as ``(t, t', snapshot)``, in time order;
    a snapshot of t' < t is reported on stderr as it is written.
    """
    k, h, dt = level
    lam = project_atomic(cfg.initial, GridSpec(cfg.model.dim, h))
    n_steps = step_count(cfg.T, dt)
    pending = []
    for t in cfg.w1_sample_times:
        t_grid = min(t, n_steps * dt)
        n = min(int(t_grid / dt), n_steps - 1)
        pending.append((n, t, t_grid, min(max((t_grid - n * dt) / dt, 0.0), 1.0)))
    with open(out / f"level_{k}/steps.jsonl", "w") as fh:
        for n, (new, rep) in enumerate(run(lam, cfg.model, cfg.T, dt)):
            fh.write(json.dumps({"n": n + 1, "mass_error": rep.mass_error,
                                 "max_displacement": rep.max_displacement,
                                 "alpha": rep.cfl_alpha,
                                 "occupied": rep.occupied_cells}) + "\n")
            fh.flush()
            while pending and pending[0][0] == n:
                _, t, t_grid, theta = pending.pop(0)
                lam_t = sample_at(lam, new, theta)
                write_density_csv(lam_t, out / _density(k, t))
                if t_grid < t:
                    print(f"warning: the grid run ends before the sample time, so its "
                          f"snapshot is of an earlier time: k={k} t={t:g} at t={t_grid!r}",
                          file=sys.stderr)
                yield t, t_grid, lam_t
            lam = new


def cmd_simulate(cfg: ExperimentConfig, args) -> int:
    levels = {k: (k, h, dt) for k, h, dt in cfg.levels}
    if args.level not in levels:
        raise ConfigError(f"level {args.level} not in schedule "
                          f"(available: {sorted(levels)})")
    out = _out_dir(cfg, args, _level_files(cfg, args.level))
    for _ in _run_level(cfg, levels[args.level], out):
        pass
    return EXIT_OK


# a W1 row: level k's grid at time t_grid against the oracle at sample time t
W1Row = namedtuple("W1Row", "k h dt t t_grid w1")


def cmd_converge(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(cfg, args, ["particles.csv", "metrics.csv", "summary.json",
                               *(f for k, _, _ in cfg.levels for f in _level_files(cfg, k))])
    oracle = run_particles(cfg.initial, cfg.model, cfg.T, cfg.oracle_dt)
    write_trajectory_csv(oracle, cfg.oracle_dt, out / "particles.csv")
    times = cfg.w1_sample_times
    oracle_at = {t: to_measure(oracle[round(t / cfg.oracle_dt)]) for t in times}

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
    if cfg.model.dim > 1:  # 1D rows are the CDF sweep, which solves no LP
        summary["w1_lp_solves"] = per_level(lambda r: r.w1.lp_solves)
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
    except OSError as exc:  # a path the run cannot read, make or write
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
