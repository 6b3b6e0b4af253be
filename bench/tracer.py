"""One traced run of the crowdflow CLI, in this process.

    python3 bench/tracer.py RESULT_JSON SPANS_JSONL RUN_ID -- <crowdflow arguments>

Wraps the public functions each layer calls in another layer (looked up where
the caller looks them up), records a span per call (name, start, end, parent,
run id) in memory, counts work from the argument shapes, and writes the spans
and a per-layer summary when the command has returned. A hook whose target
no longer exists is listed as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (span name, module, attribute path, observer or None). Several targets may
# share a span name when the same function is reached through two modules.
HOOKS = [
    ("config.load", "crowdflow.cli", "load_config", None),
    ("particles.run", "crowdflow.cli", "run_particles", None),
    ("particles.step", "crowdflow.particles", "euler_step", "particle_step"),
    ("particles.to_measure", "crowdflow.particles", "to_measure", None),
    ("particles.to_measure", "crowdflow.cli", "to_measure", None),
    ("particles.write_csv", "crowdflow.cli", "write_trajectory_csv", None),
    ("velocity.atomic", "crowdflow.particles", "eval_atomic_many", "atomic"),
    ("scheme.run", "crowdflow.cli", "run", None),
    ("scheme.step", "crowdflow.scheme", "step", "grid_step"),
    ("scheme.sample", "crowdflow.cli", "sample_at", None),
    ("velocity.grid", "crowdflow.scheme", "eval_grid_many", "grid"),
    ("velocity.kernel", "crowdflow.velocity", "kernel_F", None),
    ("velocity.cutoff", "crowdflow.velocity", "Ball.cutoff", None),
    ("velocity.cutoff", "crowdflow.velocity", "Sector.cutoff", None),
    ("wasserstein.w1", "crowdflow.cli", "w1_grid_atomic", "w1"),
    ("wasserstein.lp", "crowdflow.wasserstein", "w1_exact", "lp"),
    ("grids.write_csv", "crowdflow.cli", "write_density_csv", None),
]

# per-layer time metric -> (span name, whether child spans are subtracted)
TIMES = {
    "velocity.grid_s": ("velocity.grid", False),
    "velocity.kernel_s": ("velocity.kernel", False),
    "velocity.cutoff_s": ("velocity.cutoff", False),
    "velocity.atomic_s": ("velocity.atomic", False),
    "scheme.step_self_s": ("scheme.step", True),
    "scheme.sample_s": ("scheme.sample", False),
    "particles.step_self_s": ("particles.step", True),
    "particles.to_measure_s": ("particles.to_measure", False),
    "wasserstein.w1_s": ("wasserstein.w1", False),
    "grids.write_csv_s": ("grids.write_csv", False),
    "particles.write_csv_s": ("particles.write_csv", False),
    "config.load_s": ("config.load", False),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.absent = []
        self.counts = dict.fromkeys(
            ["velocity.grid_pairs", "velocity.atomic_pairs", "scheme.steps",
             "scheme.cell_steps", "scheme.peak_occupied", "particles.steps",
             "wasserstein.w1_calls", "wasserstein.lp_vars",
             "wasserstein.max_side_atoms"], 0)
        self.scatter_in = 0  # 2^d * input cells, summed over steps
        self.scatter_out = 0
        self.grid_calls = []  # (measure, query points, radius) per grid evaluation

    def wrap(self, name, fn, observe):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result
        return traced

    def install(self) -> None:
        for name, module, path, observer in HOOKS:
            try:
                owner = importlib.import_module(module)
            except ModuleNotFoundError:
                owner = None
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p, None)
            fn = getattr(owner, attr, None)
            if owner is None or not callable(fn):
                self.absent.append(f"{module}.{path}")
                continue
            setattr(owner, attr, self.wrap(name, fn,
                                           observer and getattr(self, "_" + observer)))

    # observers: count work from argument and result shapes; keep them cheap,
    # since they run inside the caller's span

    def _grid(self, args, result):
        model, lam, X = args[:3]
        self.counts["velocity.grid_pairs"] += len(X) * lam.occupied
        self.grid_calls.append((lam, X, model.neighborhood.radius))

    def _atomic(self, args, result):
        _, mu, X = args[:3]
        self.counts["velocity.atomic_pairs"] += len(X) * mu.n_atoms

    def _grid_step(self, args, result):
        lam, new = args[0], result[0]
        c = self.counts
        c["scheme.steps"] += 1
        c["scheme.cell_steps"] += lam.occupied
        c["scheme.peak_occupied"] = max(c["scheme.peak_occupied"], lam.occupied, new.occupied)
        self.scatter_in += 2 ** lam.spec.dim * lam.occupied
        self.scatter_out += new.occupied

    def _particle_step(self, args, result):
        self.counts["particles.steps"] += 1

    def _w1(self, args, result):
        lam, mu = args[:2]
        c = self.counts
        c["wasserstein.w1_calls"] += 1
        c["wasserstein.max_side_atoms"] = max(c["wasserstein.max_side_atoms"],
                                              lam.occupied, mu.n_atoms)

    def _lp(self, args, result):
        mu, nu = args[:2]
        self.counts["wasserstein.lp_vars"] += mu.n_atoms * nu.n_atoms

    def summary(self) -> dict:
        """Per-layer metrics. Self time is a span's duration minus its direct
        children's; calls are nested on one thread, so children never overlap."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            tot, slf = totals.get(name, (0.0, 0.0))
            totals[name] = (tot + end - start, slf + end - start - child[i])
        out = {metric: totals.get(span, (0.0, 0.0))[1 if own else 0]
               for metric, (span, own) in TIMES.items()}
        out.update(self.counts)
        out["scheme.coalesce_ratio"] = (self.scatter_out / self.scatter_in
                                        if self.scatter_in else 0.0)
        out["velocity.grid_pairs_in_range_ratio"] = self._in_range_ratio()
        wasserstein = sys.modules.get("crowdflow.wasserstein")
        out["wasserstein.max_atoms_cap"] = getattr(wasserstein, "DEFAULT_MAX_ATOMS", 0)
        return out

    def _in_range_ratio(self) -> float:
        """Share of evaluated (cell, query) pairs closer than the radius R."""
        if not self.grid_calls:
            return 0.0
        import numpy as np
        from scipy.spatial import cKDTree

        inside = total = 0
        for lam, X, radius in self.grid_calls:
            Y = lam.centers()
            inside += cKDTree(X).count_neighbors(cKDTree(Y), np.nextafter(radius, 0.0))
            total += len(X) * len(Y)
        return inside / total


def main(argv) -> int:
    result_path, spans_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit(__doc__)
    t0 = time.perf_counter()
    import crowdflow.cli
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    started = time.perf_counter()
    rc = tracer.wrap("cli.main", crowdflow.cli.main, None)(cli_args)
    returned = time.perf_counter()

    metrics = tracer.summary()
    metrics["cli.import_s"] = import_s
    with open(spans_path, "w") as fh:
        for name, start, end, parent in tracer.spans:
            fh.write(json.dumps({"run": run_id, "name": name, "start": start,
                                 "end": end, "parent": parent}) + "\n")
    # main_s is timed as in plain.py, so traced and plain runs compare
    result = {"run": run_id, "rc": rc, "absent": tracer.absent, "metrics": metrics,
              "main_s": returned - started}
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
