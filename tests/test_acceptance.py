"""End-to-end acceptance suite.

Each test exercises one release criterion at its stated tolerance and runtime
budget and prints a single PASS line on success. Criteria cover mass
conservation, the scatter partition of unity, projection and one-step
transport bounds, the velocity field contract, the rotation inequality,
oracle equivalence, the fixed-seed convergence study, and exact-shift
recovery.
"""

import json
import math
import time

import numpy as np
import pytest

from crowdflow import (AtomicMeasure, Ball, CaseStudyRepulsion, ConstantDesired,
                       CustomKernel, GridMeasure, GridSpec, VelocityModel,
                       ZeroDesired, atomize,
                       box_overlap_fractions, euler_step, lipschitz_constants,
                       project_atomic, push_forward_atoms, run, to_measure,
                       velocity_bound, w1_1d, w1_exact)
from crowdflow.cli import main
from crowdflow.config import case_study_path, load_config
from crowdflow.velocity import CustomDesired, eval_atomic_many, rotation_at


@pytest.fixture(scope="module")
def case_study():
    cfg = load_config(case_study_path())
    return cfg, cfg.initial


def _passline(n, msg, t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {n} exceeded budget: {elapsed:.1f}s >= {budget}s"
    print(f"ACCEPTANCE {n} PASS: {msg} [{elapsed:.1f}s]")


def test_criterion_1_mass_conservation(case_study):
    t0 = time.perf_counter()
    cfg, mu0 = case_study
    k, h, dt = cfg.levels[-1]
    assert k == 1000
    lam0 = project_atomic(mu0, GridSpec(cfg.model.dim, h))
    errs = [rep.mass_error for _, rep in run(lam0, cfg.model, cfg.T, dt)]

    # supplementary long run: a fixed 1000 consecutive steps on the k=100 grid
    lam0c = project_atomic(mu0, GridSpec(cfg.model.dim, 0.01))
    long = [rep.mass_error for _, rep in run(lam0c, cfg.model, T=0.1, dt=1e-4)]
    errs += long
    assert len(long) == 1000

    worst = max(errs)
    assert worst <= 1e-10
    _passline(1, f"per-step |mass - 1| <= 1e-10 over {len(errs)} steps "
              f"(worst {worst:.2e})", t0, 60)


def test_criterion_2_scatter_partition_of_unity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    n_total = 0
    worst = 0.0
    for dim in (1, 2, 3):
        spec_h = rng.uniform(0.01, 2.0, size=33334)
        for h in spec_h:
            spec = GridSpec(dim, float(h))
            j = tuple(int(v) for v in rng.integers(-50, 51, size=dim))
            w = rng.uniform(-3 * h, 3 * h, size=dim)
            out = box_overlap_fractions(spec, j, w)
            fr = [f for _, f in out]
            assert min(fr) >= 0.0
            worst = max(worst, abs(sum(fr) - 1.0))
            n_total += 1
    assert n_total >= 100_000
    assert worst <= 1e-14
    _passline(2, f"{n_total} randomized fraction sets sum to 1 within 1e-14 "
              f"(worst {worst:.2e}), none negative", t0, 10)


def test_criterion_3_projection_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst_ratio = 0.0
    for trial in range(100):
        dim = 1 + trial % 2
        n = int(rng.integers(1, 51))
        h = float(rng.uniform(0.05, 0.5))
        w = rng.random(n) + 0.05
        mu = AtomicMeasure(rng.uniform(-1, 1, size=(n, dim)), w / w.sum())
        lam = project_atomic(mu, GridSpec(dim, h))
        dist = w1_exact(atomize(lam), mu)
        bound = math.sqrt(dim) * h
        assert dist <= bound + 1e-12
        worst_ratio = max(worst_ratio, dist / bound)
    _passline(3, "100 random projections satisfy W1 <= sqrt(d) h "
              f"(worst ratio {worst_ratio:.3f})", t0, 30)


def test_criterion_4_one_step_transport_bound(case_study):
    t0 = time.perf_counter()
    cfg, mu0 = case_study
    k, h, dt = cfg.levels[0]
    assert k == 100
    lam0 = project_atomic(mu0, GridSpec(cfg.model.dim, h))
    frames = [lam0] + [lam for lam, _ in run(lam0, cfg.model, cfg.T, dt)]
    V = velocity_bound(cfg.model)
    bound = V * dt + 2 * math.sqrt(cfg.model.dim) * h
    worst = 0.0
    for a, b in zip(frames, frames[1:]):
        worst = max(worst, w1_1d(atomize(a), atomize(b)))
    assert worst <= bound + 1e-12
    _passline(4, f"{len(frames) - 1} consecutive steps with "
              f"W1 <= V dt + 2 sqrt(d) h = {bound:.4f} (worst {worst:.4f})", t0, 60)


def test_criterion_5_velocity_field_contract(case_study):
    t0 = time.perf_counter()
    cfg, _ = case_study
    model = cfg.model
    rng = np.random.default_rng(2)

    # convex linearity, exact to 1e-12
    worst_lin = 0.0
    for _ in range(1000):
        n1, n2 = rng.integers(1, 7, size=2)
        w1w = rng.random(n1) + 0.1
        w2w = rng.random(n2) + 0.1
        mu = AtomicMeasure(rng.uniform(size=(n1, 1)), w1w / w1w.sum())
        nu = AtomicMeasure(rng.uniform(size=(n2, 1)), w2w / w2w.sum())
        alpha = float(rng.random())
        mix = AtomicMeasure(np.vstack([mu.positions, nu.positions]),
                            np.concatenate([alpha * mu.weights,
                                            (1 - alpha) * nu.weights]))
        x = rng.uniform(size=(1, 1))
        lhs = eval_atomic_many(model, mix, x)
        rhs = (alpha * eval_atomic_many(model, mu, x)
               + (1 - alpha) * eval_atomic_many(model, nu, x))
        worst_lin = max(worst_lin, float(np.max(np.abs(lhs - rhs))))
    assert worst_lin <= 1e-12

    # uniform bound on 10^4 samples
    V = velocity_bound(model)
    mu = AtomicMeasure(rng.uniform(size=(10, 1)))
    X = rng.uniform(-0.5, 1.5, size=(10_000, 1))
    vmax_seen = float(np.max(np.abs(eval_atomic_many(model, mu, X))))
    assert vmax_seen <= V

    # empirical Lipschitz quotients against the analytic constants
    consts = lipschitz_constants(model)
    slack = 1 + 1e-6
    worst_space = 0.0
    for _ in range(200):
        mu = AtomicMeasure(rng.uniform(size=(10, 1)))
        X = rng.uniform(-0.2, 1.2, size=(50, 1))
        Y = X + rng.uniform(-0.05, 0.05, size=X.shape)
        num = np.abs(eval_atomic_many(model, mu, X) - eval_atomic_many(model, mu, Y))
        den = np.abs(X - Y)
        ok = den[:, 0] > 1e-12
        worst_space = max(worst_space, float(np.max(num[ok] / den[ok])))
    assert worst_space <= consts["space"] * slack

    worst_meas = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 11))
        wa = rng.random(n) + 0.1
        mu = AtomicMeasure(rng.uniform(size=(n, 1)), wa / wa.sum())
        nu = AtomicMeasure(mu.positions + rng.uniform(-0.02, 0.02, size=(n, 1)),
                           mu.weights)
        dist = w1_1d(mu, nu)
        if dist <= 1e-12:
            continue
        x = rng.uniform(size=(1, 1))
        gap = float(np.max(np.abs(eval_atomic_many(model, mu, x)
                                  - eval_atomic_many(model, nu, x))))
        worst_meas = max(worst_meas, gap / dist)
    assert worst_meas <= consts["measure"] * slack

    _passline(5, "linearity exact to 1e-12, |v| <= V on 1e4 samples, "
              f"Lipschitz quotients {worst_space:.1f}/{consts['space']:.1f} (x) and "
              f"{worst_meas:.1f}/{consts['measure']:.1f} (mu)", t0, 60)


def test_criterion_6_rotation_inequality():
    t0 = time.perf_counter()
    freq = np.array([1.0, 0.5])
    lip_vd = float(np.linalg.norm(freq))  # unit field, angle Lipschitz in x

    def unit_field(x):
        th = x @ freq
        return np.stack([np.cos(th), np.sin(th)], axis=-1)

    model = VelocityModel(dim=2, n_agents=1,
                          desired=CustomDesired(unit_field, 1.0, lip_vd),
                          kernel=CaseStudyRepulsion(0.01, 0.025),
                          neighborhood=Ball(0.1, 0.02))
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10_000):
        x1, x2 = rng.uniform(-2, 2, size=(2, 2))
        z = rng.uniform(-2, 2, size=2)
        r1 = rotation_at(model, x1)
        r2 = rotation_at(model, x2)
        bound = math.sqrt(2) * lip_vd * np.linalg.norm(x2 - x1) * np.linalg.norm(z)
        fwd = float(np.linalg.norm(r2.apply(z) - r1.apply(z)))
        inv = float(np.linalg.norm(r2.inverse_apply(z) - r1.inverse_apply(z)))
        assert fwd <= bound + 1e-12 and inv <= bound + 1e-12
        if bound > 1e-12:
            worst = max(worst, fwd / bound, inv / bound)
    _passline(6, "1e4 random rotation gaps within sqrt(2) Lip(v_d) |x2-x1| |z|, "
              f"forward and inverse (worst ratio {worst:.3f})", t0, 10)


def test_criterion_7_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)

    # particle step == push-forward of the Dirac sum, bit for bit
    for _ in range(1000):
        dim = 1 + int(rng.integers(0, 2))
        n = int(rng.integers(1, 9))
        model = VelocityModel(dim=dim, n_agents=n, desired=ZeroDesired(),
                              kernel=CaseStudyRepulsion(0.01, 0.025),
                              neighborhood=Ball(0.1, 0.02))
        pos = rng.uniform(size=(n, dim))
        dt = float(rng.uniform(0.001, 0.02))
        stepped = euler_step(AtomicMeasure(pos), model, dt)
        pushed = push_forward_atoms(to_measure(AtomicMeasure(pos)), model, dt)
        assert np.array_equal(stepped.positions, pushed.positions)

    # the two independent exact W1 routes agree in 1D
    worst = 0.0
    for _ in range(200):
        def draw():
            n = int(rng.integers(1, 21))
            w = rng.random(n) + 0.05
            return AtomicMeasure(rng.uniform(-3, 3, size=(n, 1)), w / w.sum())
        mu, nu = draw(), draw()
        worst = max(worst, abs(w1_1d(mu, nu) - w1_exact(mu, nu)))
    assert worst <= 1e-10
    _passline(7, "1000 particle steps match push-forward bit-exactly; CDF and "
              f"transport-LP W1 agree within 1e-10 (worst {worst:.1e})", t0, 30)


def test_criterion_8_convergence_reproduction(tmp_path):
    t0 = time.perf_counter()
    # mandatory refinement tiers k = 100, 1000; k = 10000 is the documented
    # long-running tier and is exercised out of band
    code = main(["converge", "--config", str(case_study_path()),
                 "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["ks"] == [100, 1000]
    assert summary["monotone_decrease"] is True
    vals = [summary["w1_plus_bound"][str(k)] for k in (100, 1000)]
    assert vals[1] < vals[0]
    _passline(8, "fixed-seed case study: W1 + bound at T drops "
              f"{vals[0]:.5f} -> {vals[1]:.5f} under refinement", t0, 300)


def test_criterion_9_exact_shift():
    t0 = time.perf_counter()
    h = 0.0625  # power of two so the unit drift lands exactly on cell faces
    model = VelocityModel(dim=1, n_agents=1, desired=ConstantDesired((1.0,)),
                          kernel=CustomKernel(lambda z: np.zeros_like(z), 0.0, 0.0),
                          neighborhood=Ball(0.1, 0.02))
    lam0 = GridMeasure(GridSpec(1, h), [[0], [1], [2], [5]], [4.0, 8.0, 2.0, 2.0])
    steps = list(run(lam0, model, T=100 * h, dt=h))
    assert len(steps) == 100
    final = steps[-1][0]
    np.testing.assert_array_equal(final.indices, lam0.indices + 100)
    np.testing.assert_array_equal(final.rho, lam0.rho)
    _passline(9, "100 integer-cell drift steps reproduce the translated "
              "density bit-exactly", t0, 5)
