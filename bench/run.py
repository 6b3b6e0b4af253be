"""crowdflow benchmark: one workload per invocation, outputs checked on every run.

    python3 bench/run.py --workload case_study_1d --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is the checkout's own ``src/``; each
program run is a fresh, single-threaded process (BLAS and OpenMP pinned to one
thread), one at a time, all on one CPU.

A run of the benchmark:

1. writes the workload's config files: the pinned instance, which is timed
   and checked against the stored reference (``reference.json``), and the
   ``--seed`` instance, which runs once and is checked against the
   independent reference in ``checks.py``;
2. without ``--trace``, times set-up: importing ``crowdflow.cli`` and
   ``load_config`` in a fresh interpreter, several times;
3. runs the pinned instance until ``--seconds`` have passed (at least four
   times) and checks each run's outputs. A run's time (``wall_s``) is the
   time ``crowdflow.cli.main`` takes, timed by ``plain.py`` after the import.
   Set-up and run times are scaled by the host's speed, measured around each
   of them with a fixed calibration loop (``calibrate.py``). With
   ``--trace 1`` it instead runs pairs of a plain and a traced run
   (``tracer.py``, at least two pairs) and reports per-layer metrics;
4. prints a report, then, as its last line, one JSON object with ``correct``,
   ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
   BENCHMARK.json without tracing, its per-layer metrics with it. Timings are
   medians over the runs. A program run fails on a nonzero exit code or an
   output that fails its check; ``failed / attempted`` is the error rate.

``--workload all`` runs the three workloads one after another, each in its own
benchmark process. Everything the benchmark writes goes under ``.bench_work/``
in the repository root; ``bench/make_reference.py`` regenerates the stored
reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# The parent's own numpy (the independent reference) runs single-threaded too.
os.environ.update(PINNED_ENV)

sys.path.insert(0, str(BENCH))
from calibrate import REF_S, Calibration  # noqa: E402
from checks import check_run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 5  # after one discarded warm-up, which also writes bytecode caches
# successful plain runs per untraced benchmark run: oracle_1d (5-7 s a run)
# fits only three into 20 s, and a median of three spread too much
MIN_RUNS = 4
MIN_PAIRS = 2  # successful (plain, traced) pairs per traced benchmark run
CPU = None  # the CPU every run is pinned to
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import crowdflow.cli
from crowdflow.config import load_config
load_config(sys.argv[1])
print(time.perf_counter() - t0)
"""


class Clock:
    """Scales each timing by the host's speed, measured around it."""

    def __init__(self):
        self.calibration = Calibration()
        self.calibrations = [self.calibration()]

    def scale(self, seconds: float) -> float:
        before = self.calibrations[-1]
        self.calibrations.append(self.calibration())
        return seconds * REF_S / ((before + self.calibrations[-1]) / 2)


def pin_cpu():
    """Pins this process, and so every program run it starts, to one CPU;
    the calibrations only track the speed of the CPU they run on."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def program_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_process(argv, env, log: Path):
    """Run argv to completion; returns (exit code, peak RSS MB)."""
    with open(log, "wb") as fh:
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def measure_setup(cfg_path: Path, env, work: Path, clock: Clock) -> tuple:
    """Set-up times, scaled and as measured."""
    scaled, raw = [], []
    for i in range(SETUP_RUNS + 1):
        log = work / "setup.log"
        rc, _ = run_process([sys.executable, "-c", SETUP_CODE, str(cfg_path)], env, log)
        if rc != 0:
            raise RuntimeError(f"set-up failed (exit {rc}): {log.read_text()[-2000:]}")
        t = float(log.read_text().split()[-1])
        s = clock.scale(t)
        if i:
            scaled.append(s)
            raw.append(t)
    return scaled, raw


def output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file() and p.suffix in (".py", ".json", ".toml"):
            h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy
    sha = None
    try:
        # only when ROOT is itself a git work tree, not inside some other one
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10).stdout.split()
        if Path(top).resolve() == ROOT:
            sha = head
    except (OSError, ValueError):
        pass
    return {"nproc": os.cpu_count(), "cpu": CPU,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_sha": sha, "src_sha256": source_digest(),
            "threads": PINNED_ENV["OPENBLAS_NUM_THREADS"]}


class Runner:
    """Runs and checks one workload's program invocations."""

    def __init__(self, workload, work: Path, env: dict):
        self.w = workload
        self.work = work
        self.env = env
        self.attempted = 0
        self.problems = []  # (run label, problem)

    def cli_argv(self, cfg_path: Path, out: Path) -> list:
        return [self.w.command, "--config", str(cfg_path), "--out", str(out)]

    def run(self, label: str, cfg_path: Path, cfg: dict, expected, traced=False):
        """One program run plus its output check.

        Returns (seconds in crowdflow.cli.main, RSS MB, the run's result
        file), with None for the seconds and the result when the run failed."""
        out = self.work / f"out_{label}"
        shutil.rmtree(out, ignore_errors=True)
        result = self.work / f"result_{label}.json"
        result.unlink(missing_ok=True)
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(result),
                    str(self.work / f"spans_{label}.jsonl"), f"{self.w.name}.{label}"]
        else:
            argv = [sys.executable, str(BENCH / "plain.py"), str(result)]
        argv += ["--", *self.cli_argv(cfg_path, out)]
        self.attempted += 1
        rc, rss = run_process(argv, self.env, self.work / f"log_{label}.txt")
        if rc != 0:
            self.problems.append((label, f"exit code {rc}"))
            return None, rss, None
        info = json.loads(result.read_text())
        if traced:
            info["metrics"]["cli.output_bytes"] = output_bytes(out)
        problems = check_run(out, self.w.command, cfg, expected)
        self.problems += [(label, p) for p in problems]
        if problems:
            return None, rss, None
        shutil.rmtree(out)  # keep only failed outputs
        return info["main_s"], rss, info

    @property
    def failed(self) -> int:
        return len({label for label, _ in self.problems})


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def bench(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    work = ROOT / ".bench_work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = program_env()
    declared = declared_metrics()

    pinned_path, seed_path = work / "pinned.json", work / f"seed_{seed}.json"
    pinned_cfg = w.write_config(w.pinned_seed, pinned_path)
    seed_cfg = w.write_config(seed, seed_path)
    refs = json.loads((BENCH / "reference.json").read_text())
    expected = refs[name][str(w.pinned_seed)]

    runner = Runner(w, work, env)
    med = statistics.median
    if trace:
        # The traced process times import and load_config itself. One
        # discarded plain run warms the caches; then pairs of a plain and a
        # traced run, in alternating order, so that neither the first run's
        # cold start nor a drift in host speed falls on one side only.
        runner.run("warmup", pinned_path, pinned_cfg, expected)
        pairs, traces = [], []
        deadline = time.perf_counter() + seconds
        while len(pairs) < MIN_PAIRS or time.perf_counter() < deadline:
            i = len(pairs)
            order = (False, True) if i % 2 == 0 else (True, False)
            got = {t: runner.run(f"{'t' if t else 'r'}{i}", pinned_path, pinned_cfg, expected,
                                 traced=t) for t in order}
            (plain_s, _, _), (traced_s, _, tr) = got[False], got[True]
            if plain_s is not None and traced_s is not None:
                pairs.append((plain_s, traced_s))
                traces.append(tr)
            elif runner.attempted > 4 * MIN_PAIRS + 1:
                raise RuntimeError(f"runs keep failing: {runner.problems}")
        runs = {"plain_main_s": [p for p, _ in pairs], "traced_main_s": [t for _, t in pairs]}
        # median_low keeps counts whole
        metrics = {k: statistics.median_low(t["metrics"][k] for t in traces)
                   for k in traces[0]["metrics"]}
        metrics["trace.overhead_s"] = med(t - p for p, t in pairs)
        metrics["trace.hooks_absent"] = len(traces[0]["absent"])
        absent = traces[0]["absent"]
    else:
        clock = Clock()
        setup, setup_raw = measure_setup(pinned_path, env, work, clock)
        walls, walls_raw, rsss = [], [], []
        deadline = time.perf_counter() + seconds
        while len(walls) < MIN_RUNS or time.perf_counter() < deadline:
            main_s, rss, _ = runner.run(f"r{runner.attempted}", pinned_path, pinned_cfg,
                                        expected)
            scaled = clock.scale(main_s or 0.0)
            if main_s is not None:
                walls.append(scaled)
                walls_raw.append(main_s)
                rsss.append(rss)
            elif runner.attempted > 2 * MIN_RUNS:
                raise RuntimeError(f"runs keep failing: {runner.problems}")
        runs = {"wall_s": walls, "wall_s_measured": walls_raw, "peak_rss_mb": rsss,
                "setup_s": setup, "setup_s_measured": setup_raw,
                "calibration_s": clock.calibrations}
        metrics = {"wall_s": med(walls), "setup_s": med(setup), "peak_rss_mb": med(rsss)}
        absent = []
    # Last, because its independent reference grows this process: on Linux a
    # child's ru_maxrss starts from its parent's peak RSS, so every measured
    # run must start while this process is still smaller than the program.
    runner.run(f"seed{seed}", seed_path, seed_cfg, None)

    units = declared["per_layer" if trace else "end_to_end"]
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are computed "
                           f"but not declared in BENCHMARK.json, or the reverse")

    report = {
        "workload": name, "seed": seed, "pinned_seed": w.pinned_seed,
        "seconds": seconds, "trace": int(trace), "environment": environment(),
        "calib_ref_s": REF_S, "runs": runs,
        "hooks_absent": absent,
        "problems": [f"{label}: {p}" for label, p in runner.problems],
        "correct": not runner.problems, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }
    results = ROOT / ".bench_work" / "results"
    results.mkdir(exist_ok=True)
    (results / f"{name}_seed{seed}_trace{int(trace)}.json").write_text(
        json.dumps(report, indent=2) + "\n")
    return report


def print_report(r: dict) -> None:
    env = r["environment"]
    print(f"# {r['workload']}: pinned instance seed {r['pinned_seed']}, checked instance "
          f"seed {r['seed']}, {r['seconds']} s, trace {r['trace']}")
    print(f"# nproc {env['nproc']} (pinned to cpu {env['cpu']}), python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, threads {env['threads']}, "
          f"git {env['git_sha']}, src sha256 {env['src_sha256'][:16]}")
    print(f"# error_rate {r['failed']}/{r['attempted']} = "
          f"{r['failed'] / r['attempted']:.3f}")
    for p in r["problems"]:
        print(f"# FAILED {p}")
    if r["hooks_absent"]:
        print(f"# hooks absent: {', '.join(r['hooks_absent'])}")
    for k, m in r["metrics"].items():
        print(f"# {k:40s} {m['value']:.6g} {m['unit']}")
    if r["trace"]:
        value = {k: m["value"] for k, m in r["metrics"].items()}
        # kernel and cutoff time is part of the grid and atomic velocity time
        times = {k: v for k, v in value.items() if k.endswith("_s") and k.split(".")[1]
                 not in ("kernel_s", "cutoff_s", "import_s", "load_s", "overhead_s")}
        top = max(times, key=times.get)
        print(f"# largest layer time: {top} {times[top]:.4g} s")
        if value["wasserstein.w1_calls"]:
            print(f"# W1 atoms per side: max {value['wasserstein.max_side_atoms']:g} "
                  f"against the cap {value['wasserstein.max_atoms_cap']:g}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True,
                    help="seed of the checked instance's initial positions")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "crowdflow" / "cli.py").is_file():
        print(f"error: no crowdflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # one benchmark process per workload: see bench() on peak RSS
        return max(subprocess.call([sys.executable, __file__, "--workload", name,
                                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                                    "--trace", str(args.trace)]) for name in WORKLOADS)
    global CPU
    CPU = pin_cpu()
    r = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(r)
    print(json.dumps({k: r[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
