"""crowdflow starts on numpy and HiGHS's compiled core alone.

Of scipy it needs two things. The FFT length rule it computes itself
(``velocity.next_fast_len``), held here to ``scipy.fft.next_fast_len``. The
HiGHS binding ``scipy.optimize._highspy._core`` it loads on its own
(``wasserstein._highs_core``), without running ``scipy/optimize/__init__.py``
and the 300-odd modules that imports. The fresh-interpreter tests check what
a start-up and a run import, and that scipy.optimize imported before or after
crowdflow shares the one core.
"""

import importlib.machinery
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.fft import next_fast_len

from crowdflow import AtomicMeasure, velocity, wasserstein
from helpers import load_bench

SRC = Path(velocity.__file__).resolve().parents[1]
CORE = "scipy.optimize._highspy._core"


def fresh(code: str, *args, cwd=None) -> str:
    """The last stdout line of ``code`` run in a new interpreter on this
    package, which must exit 0."""
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          timeout=120, cwd=cwd, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_length_rule_matches_scipy():
    # the padded lattice box's shape, and so every output bit, follows from it
    for ns in (range(1, 3 * 10 ** 5), range(4_190_000, 4_200_000)):
        got = [velocity.next_fast_len(n) for n in ns]
        assert got == [next_fast_len(n, real=True) for n in ns]


def test_import_loads_no_scipy_package():
    # none of scipy.optimize, scipy.fft, scipy.sparse or scipy.linalg: only
    # the core and the submodules it registers itself
    loaded = fresh("import sys, crowdflow.cli\n"
                   "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))").split()
    assert CORE in loaded
    assert [m for m in loaded if not m.startswith(CORE)] == []


# run in a new interpreter: the modules cli.main adds to sys.modules
MAIN_IMPORTS = """
import json, sys
from crowdflow import cli
before = set(sys.modules)
rc = cli.main(sys.argv[1:])
print(json.dumps([rc, sorted(set(sys.modules) - before)]))
"""


@pytest.mark.parametrize("workload, command, allowed", [
    ("case_study_1d", "converge", set()),
    ("case_study_1d", "particles", set()),
    ("sector_2d", "converge", set()),
])
def test_run_imports_nothing_new(tmp_path, workload, command, allowed):
    """A run imports what it uses when crowdflow is imported, not inside
    ``cli.main``, whose time the benchmark reads as the run's. One standard
    exception: argparse's first parser loads ``locale`` through gettext
    (1.4 ms)."""
    cfg = load_bench("workloads.py").WORKLOADS[workload].make_config(3)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    rc, added = json.loads(fresh(MAIN_IMPORTS, command, "--config", "cfg.json", cwd=tmp_path))
    assert rc == 0
    assert set(added) - {"locale", "_locale"} - allowed == set()


# run in a new interpreter, scipy.optimize imported before or after crowdflow:
# the bits of one 2D W1
LOAD_ORDER = """
import importlib, json, sys
import numpy as np
names = ["scipy.optimize", "crowdflow.wasserstein"]
if sys.argv[1] == "crowdflow_first":
    names.reverse()
importlib.import_module(names[0])
core = sys.modules["{core}"]
importlib.import_module(names[1])
import scipy.optimize
from scipy.optimize._highspy._core import _Highs
from crowdflow import AtomicMeasure, wasserstein
assert sys.modules["{core}"] is core is wasserstein._core
assert wasserstein._Highs is _Highs
res = scipy.optimize.linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0], method="highs")
assert res.status == 0 and res.x.tolist() == [1.0, 0.0], res
rng = np.random.default_rng(4)
r = wasserstein.w1_exact(AtomicMeasure(rng.random((30, 2))), AtomicMeasure(rng.random((20, 2))))
print(json.dumps([r.distance.hex(), r.lower.hex(), r.upper.hex(), r.lp_solves]))
""".replace("{core}", CORE)


def test_scipy_optimize_shares_the_core_in_either_order():
    got = {order: fresh(LOAD_ORDER, order) for order in ("scipy_first", "crowdflow_first")}
    rng = np.random.default_rng(4)
    r = wasserstein.w1_exact(AtomicMeasure(rng.random((30, 2))), AtomicMeasure(rng.random((20, 2))))
    here = json.dumps([r.distance.hex(), r.lower.hex(), r.upper.hex(), r.lp_solves])
    assert got == {"scipy_first": here, "crowdflow_first": here}


def test_missing_core_fails_fast(monkeypatch, tmp_path):
    # a scipy whose optimize/_highspy holds no compiled core, as before 1.15
    monkeypatch.delitem(sys.modules, CORE)
    old = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    old.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(wasserstein, "find_spec", lambda name: old)
    with pytest.raises(ImportError) as exc:
        wasserstein._highs_core()
    where = tmp_path / "optimize" / "_highspy"
    assert str(exc.value) == (f"crowdflow needs scipy >= 1.15 for HiGHS: "
                              f"no compiled core {CORE} in {where}")
    monkeypatch.setattr(wasserstein, "find_spec", lambda name: None)
    with pytest.raises(ImportError) as exc:
        wasserstein._highs_core()
    assert str(exc.value) == "crowdflow needs scipy >= 1.15 for HiGHS; scipy is not installed"
    assert CORE not in sys.modules
