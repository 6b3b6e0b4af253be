"""Property test: a config with one leaf changed or deleted finishes or exits
with a named error (2 or 3), whatever the value; it never raises."""

import copy
import functools
import json
import math
import operator
import signal
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdflow.cli import main

SMALL_1D = {
    "model": {"dim": 1, "n_agents": 3, "desired": {"type": "zero"},
              "kernel": {"type": "case_study", "a": 0.01, "eps": 0.025},
              "neighborhood": {"type": "ball", "R": 0.1, "b": 0.02}},
    "initial": {"type": "uniform_random", "count": 3, "interval": [0.0, 1.0], "seed": 5},
    "T": 0.01,
    "schedule": {"delta": 0.5, "ks": [4, 8], "v_ref": 4.0},
    "w1_sample_times": [0.005, 0.01],
    "outputs": "out",
}

SMALL_SECTOR_2D = {
    "model": {"dim": 2, "n_agents": 3, "desired": {"type": "constant", "c": [1.0, 0.0]},
              "kernel": {"type": "case_study", "a": 0.01, "eps": 0.025},
              "neighborhood": {"type": "sector", "R": 0.1, "alpha": 3.0, "b": 0.02},
              "heading": {"type": "fixed_axis", "axis": [1.0, 0.0]}},
    "initial": {"type": "atoms", "positions": [[0.1, 0.1], [0.15, 0.1], [0.5, 0.5]],
                "weights": [0.25, 0.25, 0.5]},
    "T": 0.01,
    "schedule": {"h": 0.1, "dt": 0.005},
    "w1_sample_times": [0.01],
}

# with numbers written as strings, and an axis 1e-10 short of unit length
VALUES = [None, "x", "0.01", "4", -1, 0, 0.5, math.nan, math.inf, [], {}, True,
          [0.9999999999, 0.0]]
DELETE = object()


def leaves(node, path=()):
    """Paths to every leaf of a JSON tree, and to every list and object."""
    if path:
        yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from leaves(child, path + (key,))


def mutated(base, path, value):
    data = copy.deepcopy(base)
    node = data
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return data


def mutations(base):
    return st.tuples(st.sampled_from(list(leaves(base))),
                     st.sampled_from(VALUES + [DELETE]))


def exit_code(base, command, mutation=None):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        # JSON text as the program reads it: NaN and inf as NaN and Infinity
        cfg.write_text(json.dumps(base if mutation is None else mutated(base, *mutation)))
        return main([command, "--config", str(cfg), "--out", str(Path(tmp) / "o")])


# A fixed sequence of examples, so every run tests the same mutations: 400 of
# the 868 and 1232 (leaf, value, command) cases, about 2 s per config.
PROPERTY = settings(max_examples=400, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(mutations(SMALL_1D), st.sampled_from(["particles", "converge"]))
def test_one_bad_leaf_1d_exits_cleanly(mutation, command):
    assert exit_code(SMALL_1D, command, mutation) in (0, 2, 3)


@PROPERTY
@given(mutations(SMALL_SECTOR_2D), st.sampled_from(["particles", "converge"]))
def test_one_bad_leaf_sector_2d_exits_cleanly(mutation, command):
    assert exit_code(SMALL_SECTOR_2D, command, mutation) in (0, 2, 3)


def numeric_leaves(base):
    """(path, value) of every number in a config."""
    at = {path: functools.reduce(operator.getitem, path, base) for path in leaves(base)}
    return [(path, value) for path, value in at.items() if type(value) in (int, float)]


def test_every_number_written_as_a_string_is_refused():
    for base in (SMALL_1D, SMALL_SECTOR_2D):
        numbers = numeric_leaves(base)
        assert len(numbers) > 10
        for path, value in numbers:
            assert exit_code(base, "particles", (path, str(value))) == 2, path


@pytest.fixture
def wall_clock_guard():
    """Fail a test that runs past 20 s, where a stalled run would hang the suite."""
    def stalled(signum, frame):
        raise TimeoutError("still running after 20 s")
    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(20)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("command", ["particles", "converge"])
@pytest.mark.parametrize("base, path", [
    pytest.param(base, path, id=f"{base['model']['dim']}d-" + ".".join(map(str, path)))
    for base in (SMALL_1D, SMALL_SECTOR_2D) for path, _ in numeric_leaves(base)])
def test_every_number_at_1e300_exits_cleanly(wall_clock_guard, base, path, command):
    # about 1e302 steps, or a reach that overflows in the run, is refused at load
    assert exit_code(base, command, (path, 1e300)) in (0, 2, 3)


def test_base_configs_run():
    for base in (SMALL_1D, SMALL_SECTOR_2D):
        for command in ("particles", "converge"):
            assert exit_code(base, command) == 0
