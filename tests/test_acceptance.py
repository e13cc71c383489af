"""Acceptance gate: nine pass/fail criteria, one test and one printed verdict
line each.

Covers sampling efficiency on the sparse-regression posterior, throughput
scaling across chain counts, Gaussian moment recovery, gradient and
integrator oracles, the single-precision failure demonstration, lockstep
trajectory-length enforcement, diagnostics oracles, and bitwise determinism.
Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
inline; without -s they appear in captured output on failure."""

import json
import math
from time import perf_counter

import numpy as np
import pytest

import manychain.diagnostics as diag
from manychain.cli import main
from manychain.gradients import finite_difference_check
from manychain.model import GaussianTarget, ModelTarget, generate_synthetic
from manychain.prng import key_from_seed, normal, split
from manychain.sampler import (
    ChainBatch,
    HmcConfig,
    LockstepViolationError,
    hmc_step,
    leapfrog_step,
    run_chains,
)
from testkit import read_bench_csv, read_trace_csv


def verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_sparse_regression_efficiency(tmp_path):
    """64 chains x 1000 retained draws on the 1000x24 synthetic dataset,
    adapted jittered HMC. Unpinned knobs (warmup length, initial step size,
    base trajectory length) are tuned for this model scale: the step size
    starts low so phase-1 search approaches its equilibrium from the growth
    side, and 32 base leapfrog steps let a trajectory traverse the slow scale
    direction instead of diffusing along it."""
    out = tmp_path / "run"
    t0 = perf_counter()
    rc = main([
        "sample", "synthetic:1000,24,0.25",
        "--chains", "64", "--draws", "1000", "--warmup", "2000",
        "--step-size", "0.02", "--leapfrog-steps", "32",
        "--seed", "0", "--threads", "1", "--output", str(out),
    ])
    wall = perf_counter() - t0
    assert rc == 0
    report = json.loads((out / "diagnostics.json").read_text())
    ess_tau = report["ess_tau"]
    max_rhat = max(report["rhat"])
    harmonic = report["mean_accept_harmonic"]
    ok = (
        ess_tau >= 3000
        and max_rhat < 1.05
        and 0.5 <= harmonic <= 0.95
        and wall < 600.0
    )
    verdict(
        1, ok,
        f"ESS(tau)={ess_tau:.0f} (>=3000), max split R-hat={max_rhat:.4f} "
        f"(<1.05), harmonic accept={harmonic:.3f} (in [0.5, 0.95]), "
        f"wall={wall:.0f}s (<600s)",
    )


def test_criterion_2_throughput_scaling(tmp_path):
    """Doubling chains from 1 to 256 on the same regression model: rising
    throughput (within 10% noise) until saturation, then no collapse.
    Saturation is the first chain count reaching 90% of the sweep's peak;
    past it every point must hold 80% of peak."""
    out = tmp_path / "bench.csv"
    rc = main([
        "bench-chains", "synthetic:1000,24,0.25",
        "--chain-list", "1,2,4,8,16,32,64,128,256",
        "--draws-per-chain", "256", "--output", str(out),
    ])
    assert rc == 0
    rows = read_bench_csv(out)
    tp = [r["draws_per_second"] for r in rows]
    assert all(math.isfinite(v) for v in tp)
    peak = max(tp)
    sat = next(i for i, v in enumerate(tp) if v >= 0.9 * peak)
    rising_ok = all(tp[i + 1] >= 0.9 * tp[i] for i in range(sat))
    plateau_ok = all(tp[i] >= 0.8 * peak for i in range(sat, len(tp)))
    curve = " ".join(f"{v:.0f}" for v in tp)
    verdict(
        2, rising_ok and plateau_ok,
        f"draws/s by chains {curve}; saturation at index {sat} "
        f"(chains={rows[sat]['chains']}), peak={peak:.0f}",
    )


def test_criterion_3_gaussian_moment_recovery(tmp_path):
    out = tmp_path / "g10"
    t0 = perf_counter()
    rc = main([
        "sample", "gaussian:10", "--chains", "16", "--draws", "2000",
        "--warmup", "300", "--seed", "2", "--output", str(out),
    ])
    wall = perf_counter() - t0
    assert rc == 0
    report = json.loads((out / "diagnostics.json").read_text())
    _, z, _, _ = read_trace_csv(out / "trace.csv")
    pooled = z.reshape(-1, z.shape[-1])
    means = pooled.mean(axis=0)
    variances = pooled.var(axis=0, ddof=1)
    mcse = np.sqrt(variances / np.asarray(report["ess"]))
    worst_mean = float(np.max(np.abs(means) / (4.0 * mcse)))
    worst_var = float(np.max(np.abs(variances - 1.0)))
    ok = worst_mean < 1.0 and worst_var < 0.10 and wall < 30.0
    verdict(
        3, ok,
        f"max |mean|/(4 MCSE)={worst_mean:.2f} (<1), max |var-1|={worst_var:.3f} "
        f"(<0.1), wall={wall:.1f}s (<30s)",
    )


def test_criterion_4_gradient_oracle():
    key = key_from_seed(9)
    k_data, k_states = split(key, 2)
    ds = generate_synthetic(k_data, 200, 6, 0.5)
    target = ModelTarget(ds)
    states = 0.8 * np.asarray(normal(k_states, [20, target.dim]))
    worst_model = max(
        finite_difference_check(target, states[i]) for i in range(20)
    )

    g = GaussianTarget(10)
    gk = key_from_seed(8)
    # wide step: differences on a quadratic are truncation-free
    worst_gauss = max(
        finite_difference_check(g, np.asarray(normal(split(gk, 20)[i], [10])),
                                h=1e-2)
        for i in range(20)
    )
    ok = worst_model < 1e-5 and worst_gauss < 1e-8
    verdict(
        4, ok,
        f"regression max rel err={worst_model:.2e} (<1e-5), "
        f"gaussian max rel err={worst_gauss:.2e} (<1e-8)",
    )


def test_criterion_5_integrator_properties():
    key = key_from_seed(41)
    k_data, k_rest = split(key, 2)
    ds = generate_synthetic(k_data, 100, 4, 0.5)
    target = ModelTarget(ds)
    k_z, k_m = split(k_rest, 2)
    z0 = 0.5 * np.asarray(normal(k_z, [3, target.dim]))
    m0 = np.asarray(normal(k_m, [3, target.dim]))

    z, m = z0, m0
    _, grad = target.value_and_grad(z)
    for _ in range(20):
        z, m, _, grad = leapfrog_step(target, 0.01, z, m, grad)
    m = -m
    _, grad = target.value_and_grad(z)
    for _ in range(20):
        z, m, _, grad = leapfrog_step(target, 0.01, z, m, grad)
    residual = max(float(np.abs(z - z0).max()), float(np.abs(-m - m0).max()))

    key2 = key_from_seed(55)
    k_data2, k_rest2 = split(key2, 2)
    ds2 = generate_synthetic(k_data2, 100, 4, 0.5)
    t2 = ModelTarget(ds2)
    k_z2, k_m2 = split(k_rest2, 2)
    z0e = 0.5 * np.asarray(normal(k_z2, [1, t2.dim]))
    m0e = np.asarray(normal(k_m2, [1, t2.dim]))
    v0e, g0e = t2.value_and_grad(z0e)

    def denergy(eps, steps):
        z, m, grad, value = z0e.copy(), m0e.copy(), g0e.copy(), v0e
        for _ in range(steps):
            z, m, value, grad = leapfrog_step(t2, eps, z, m, grad)
        h0 = 0.5 * float((m0e * m0e).sum()) - float(v0e[0])
        h1 = 0.5 * float((m * m).sum()) - float(value[0])
        return h1 - h0

    ratio = denergy(0.02, 10) / denergy(0.01, 20)
    ok = residual < 1e-8 and 3.5 < ratio < 4.5
    verdict(
        5, ok,
        f"reversibility residual={residual:.2e} (<1e-8), "
        f"energy error ratio eps vs eps/2={ratio:.3f} (in [3.5, 4.5])",
    )


def test_criterion_6_precision_failure_demonstration(tmp_path):
    out = tmp_path / "demo.json"
    rc = main(["precision-demo", "--output", str(out)])
    assert rc == 0
    r = json.loads(out.read_text())
    ok = (
        r["log_density_magnitude"] > 2**24
        and r["naive_flag_fraction"] > 0.5
        and r["stable_flag_fraction"] < 0.05
        and r["max_abs_err_stable"] <= 1e-2
        and r["max_abs_err_naive"] >= 0.5
    )
    verdict(
        6, ok,
        f"|log density|={r['log_density_magnitude']:.3g} (>2^24), flags "
        f"naive={r['naive_flag_fraction']:.3f} (> 0.5) vs "
        f"stable={r['stable_flag_fraction']:.3f} (< 0.05), max err "
        f"stable={r['max_abs_err_stable']:.2e} (<=1e-2) vs "
        f"naive={r['max_abs_err_naive']:.3g} (>=0.5)",
    )


def test_criterion_7_lockstep_invariant():
    class LengthSink:
        def __init__(self):
            self.lengths = []

        def record(self, out):
            self.lengths.append(out.num_leapfrog_used)

    g = GaussianTarget(4)
    key = key_from_seed(7)
    k_init, k_run = split(key, 2)
    z0 = np.asarray(normal(k_init, [64, 4]))
    cfg = HmcConfig(step_size=0.3, num_leapfrog_steps=2, jitter=True)
    sink = LengthSink()
    run_chains(g, cfg, z0, k_run, 10_000, sink=sink)

    lengths = np.asarray(sink.lengths)
    shared_ints = all(isinstance(v, int) for v in sink.lengths)
    in_range = lengths.min() >= 1 and lengths.max() <= 4
    freqs = [float((lengths == v).mean()) for v in range(1, 5)]
    uniform_ok = all(0.23 < f < 0.27 for f in freqs)

    # the test hook that draws per-chain lengths must trip the assertion
    batch = ChainBatch.init(g, z0)
    tripped = False
    try:
        hmc_step(g, cfg, batch, split(k_run, 1)[0], k_run,
                 length_fn=lambda k: list(range(1, 65)))
    except LockstepViolationError:
        tripped = True

    ok = shared_ints and in_range and uniform_ok and tripped
    verdict(
        7, ok,
        f"10000 iterations x 64 chains: one shared int length per step, "
        f"lengths in [1, 4], freqs={['%.3f' % f for f in freqs]}, "
        f"per-chain lengths raise LockstepViolationError={tripped}",
    )


def test_criterion_8_diagnostics_oracles():
    rng = np.random.default_rng(80)
    x = rng.normal(2.0, 3.0, size=20_000)
    acc = diag.welford_init()
    for v in x:
        acc = diag.welford_update(acc, v)
    welford_ok = (
        abs(float(acc.mean) - x.mean()) <= 1e-12 * abs(x.mean())
        and abs(float(diag.variance(acc)) - x.var(ddof=1)) <= 1e-12 * x.var(ddof=1)
    )

    rho, n = 0.9, 50_000
    ar = np.empty(n)
    ar[0] = rng.normal()
    innov = rng.normal(size=n) * math.sqrt(1 - rho * rho)
    for t in range(1, n):
        ar[t] = rho * ar[t - 1] + innov[t]
    want = n * (1 - rho) / (1 + rho)
    got = diag.ess(ar)
    ess_ok = abs(got - want) / want < 0.30

    iid = rng.normal(size=(2000, 8))
    r_iid = diag.split_rhat(iid)
    sep = rng.normal(size=(1000, 4))
    sep[:, 2:] += 5.0
    r_sep = diag.split_rhat(sep)
    rhat_ok = 0.99 < r_iid < 1.02 and r_sep > 1.5

    hm = diag.harmonic_mean_acceptance([1.0, 0.5])
    hm_ok = abs(hm - 2.0 / 3.0) <= np.spacing(2.0 / 3.0)

    ok = welford_ok and ess_ok and rhat_ok and hm_ok
    verdict(
        8, ok,
        f"welford==two-pass at 1e-12: {welford_ok}; AR(1) ESS {got:.0f} vs "
        f"analytic {want:.0f} (within 30%); split R-hat iid={r_iid:.3f}, "
        f"separated={r_sep:.2f}; harmonic(1, 0.5)={hm:.15f}",
    )


def test_criterion_9_byte_identical_determinism(tmp_path):
    args = [
        "sample", "synthetic:200,6,0.5", "--chains", "20", "--draws", "32",
        "--warmup", "30", "--step-size", "0.05", "--seed", "11",
    ]
    outs = []
    for name, threads in (("r1", "1"), ("r2", "1"), ("r3", "2")):
        out = tmp_path / name
        assert main(args + ["--threads", threads, "--output", str(out)]) == 0
        outs.append(out)
    a, b, c = outs
    trace = (a / "trace.csv").read_bytes()
    rerun_ok = trace == (b / "trace.csv").read_bytes()
    threads_ok = trace == (c / "trace.csv").read_bytes()
    json_ok = (
        (a / "diagnostics.json").read_bytes() == (b / "diagnostics.json").read_bytes()
        and (a / "diagnostics.json").read_bytes() == (c / "diagnostics.json").read_bytes()
    )
    ok = rerun_ok and threads_ok and json_ok
    verdict(
        9, ok,
        f"rerun bytes equal={rerun_ok}, threads 1 vs 2 bytes equal={threads_ok}, "
        f"reports equal={json_ok}",
    )
