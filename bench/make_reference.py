"""Regenerate reference.json: the pinned instance's outputs from the program.

    python3 bench/make_reference.py

Run from the repository root, only when a change is meant to alter the
program's results beyond the tolerances in checks.py. Each stored output is
first checked against the independent reference, so a wrong result is not
stored.
"""

from __future__ import annotations

import json
import shutil
import sys

from checks import check_run, read_outputs
from run import BENCH, ROOT, program_env, run_process
from workloads import WORKLOADS


def main() -> int:
    work = ROOT / ".bench_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    refs = {}
    for name, w in WORKLOADS.items():
        cfg_path, out = work / f"{name}.json", work / f"out_{name}"
        cfg = w.write_config(w.pinned_seed, cfg_path)
        rc, _ = run_process([sys.executable, "-m", "crowdflow.cli", w.command,
                             "--config", str(cfg_path), "--out", str(out)],
                            program_env(), work / f"{name}.log")
        problems = [f"exit code {rc}"] if rc else check_run(out, w.command, cfg, None)
        if problems:
            print(f"{name}: {problems}", file=sys.stderr)
            return 1
        refs[name] = {str(w.pinned_seed): read_outputs(out, w.command)}
    (BENCH / "reference.json").write_text(json.dumps(refs) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
