"""The shared iteration loop and transition, pinned against the code they
replaced: warmup_adapt against its former three-phase loop with its own key
schedule, StepOutput.proposal against the accept select, the rejection of
non-finite proposals against the proposal scan hmc_step once ran, the
precision demo's float64 oracle against a fully independent one, and the
demo's sink, which evaluates each state once per model."""

import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import manychain.cli as cli
import manychain.diagnostics as diag
import manychain.sampler as sampler
from manychain.model import ModelTarget, generate_synthetic
from manychain.prng import key_from_seed, normal, split
from manychain.sampler import (
    ChainBatch,
    HmcConfig,
    adapt_step_size,
    estimate_diag_mass,
    hmc_step,
    iteration_keys,
    warmup_adapt,
)
from testkit import check_cache

SMALL_CSV = str(Path(__file__).parent / "data" / "small.csv")


def small_model(seed, precision, rows=80, features=4, threads=1):
    k_data, k_rest = split(key_from_seed(seed), 2)
    ds = generate_synthetic(k_data, rows, features, 0.5)
    return ModelTarget(ds, precision=precision, threads=threads), k_rest


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def three_phase_loop(target, config, z_init, root_key, num_warmup):
    """warmup_adapt as it was before its phases ran through run_chains: one
    loop per phase with its own key schedule. Returns (step size, mass,
    final batch, mean of the last phase's per-iteration harmonic accepts)."""
    n1 = n3 = max(1, int(round(0.15 * num_warmup)))
    n2 = num_warmup - n1 - n3
    batch = ChainBatch.init(target, z_init)
    k1, k2, k3 = split(root_key, 3)

    def phase(key, steps, cfg, adapt_eps, collect):
        nonlocal batch
        moments = None
        harmonic = []
        step_stream, jitter_stream = (split(k, steps) for k in split(key, 2))
        for t in range(steps):
            batch, out = hmc_step(target, cfg, batch, step_stream[t], jitter_stream[t])
            hm = diag.harmonic_mean_acceptance(diag.accept_probs_from_ratios(out.log_accept_ratio))
            harmonic.append(hm)
            if adapt_eps:
                cfg.step_size = adapt_step_size(cfg.step_size, hm)
            if collect:
                if moments is None:
                    moments = diag.welford_init(batch.z.shape)
                moments = diag.welford_update(moments, np.asarray(batch.z, np.float64))
        return cfg.step_size, moments, float(np.mean(harmonic))

    base = replace(config, mass_diag=None)
    eps1, _, _ = phase(k1, n1, replace(base, step_size=config.step_size), True, False)
    _, moments, _ = phase(k2, n2, replace(base, step_size=eps1), False, True)
    mass = estimate_diag_mass(moments)
    eps3, _, hm3 = phase(k3, n3, replace(config, step_size=eps1, mass_diag=mass), True, False)
    return eps3, mass, batch, hm3


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("precision", ["double", "single"])
def test_warmup_adapt_matches_the_three_phase_loop(threads, precision):
    target, key = small_model(51, precision, threads=threads)
    k_init, k_warm = split(key, 2)
    z0 = 0.4 * np.asarray(normal(k_init, [20, target.dim]))  # two blocks: 16 + 4
    cfg = HmcConfig(step_size=0.1, num_leapfrog_steps=3)

    eps, mass, want, hm = three_phase_loop(target, cfg, z0, k_warm, 40)
    adapted, got, accept = warmup_adapt(target, cfg, z0, k_warm, 40)

    assert adapted.step_size == eps
    assert same_bits(adapted.mass_diag, mass)
    assert accept == hm
    assert cfg.step_size == 0.1 and cfg.mass_diag is None  # the caller's config is untouched
    for field in ("z", "value", "grad"):
        assert same_bits(getattr(got, field), getattr(want, field))


def test_iteration_keys_is_the_run_chains_schedule():
    """Iteration t takes child t of the step root and of the jitter root,
    also across reads of their split-domain streams (64 keys a read)."""
    root = key_from_seed(52)
    step_root, jitter_root = split(root, 2)
    assert list(iteration_keys(root, 0)) == []
    for n in (5, 63, 64, 65, 200):
        schedule = list(iteration_keys(root, n))
        assert schedule == list(zip(split(step_root, n), split(jitter_root, n)))


def test_iteration_keys_derives_keys_as_it_goes():
    """The schedule's memory does not grow with its length: the first
    iteration's keys of a 10**5-iteration schedule allocate under 1 MiB."""
    root = key_from_seed(53)
    tracemalloc.start()
    try:
        next(iteration_keys(root, 10**5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_proposal_is_the_pre_select_endpoint():
    target, key = small_model(53, "single")
    k_init, k_run = split(key, 2)
    z0 = 0.4 * np.asarray(normal(k_init, [20, target.dim]))
    cfg = HmcConfig(step_size=0.25, num_leapfrog_steps=3)
    batch = ChainBatch.init(target, z0)
    accepted = rejected = 0
    for step_key, jitter_key in iteration_keys(k_run, 6):
        new, out = hmc_step(target, cfg, batch, step_key, jitter_key)
        acc = out.is_accepted
        assert same_bits(new.z, out.z)
        assert same_bits(new.value[~acc], batch.value[~acc])
        assert same_bits(out.z[acc], out.proposal[acc])
        assert same_bits(out.z[~acc], batch.z[~acc])
        assert np.all(np.any(out.proposal != batch.z, axis=1))  # rejected rows moved too
        accepted += int(acc.sum())
        rejected += int((~acc).sum())
        batch = new
    assert accepted > 0 and rejected > 0


INJECT_CHAINS = 8


@pytest.mark.parametrize("precision", ["double", "single"])
@given(
    seed=st.integers(0, 2**32 - 1),
    injected=st.dictionaries(
        st.integers(0, INJECT_CHAINS - 1),
        st.tuples(st.integers(0, 8), st.sampled_from(["inf", "-inf", "nan", "overflow"])),
        min_size=1,
        max_size=INJECT_CHAINS - 1,
    ),
)
@settings(max_examples=20, deadline=None)
def test_non_finite_momenta_reject_and_keep_their_rows(precision, seed, injected):
    """Momenta that are non-finite, or so large that their kinetic energy
    overflows, are written into random rows of an iteration's draws. The
    log accept ratio is then -inf on those rows and wherever the proposal
    or its density is not finite, and is never NaN or +inf; every -inf row
    rejects and keeps its state, value and gradient; every other row
    has the bits of the same iteration without the injection."""
    target, key = small_model(seed, precision)
    assert target.dim == 9
    k_init, k_run = split(key, 2)
    z = 0.4 * np.asarray(normal(k_init, [INJECT_CHAINS, target.dim]), dtype=target.dtype)
    batch = ChainBatch(z, *target.value_and_grad(z))
    config = HmcConfig(step_size=0.25, num_leapfrog_steps=3)
    step_key, jitter_key = next(iteration_keys(k_run, 1))
    overflow = 2.0 * float(np.sqrt(np.finfo(target.dtype).max))
    draw = sampler.normal_uniform_each

    def injecting_draw(key, num_chains, size):
        normals, u = draw(key, num_chains, size)
        for row, (col, kind) in injected.items():
            normals[row, col] = overflow if kind == "overflow" else float(kind)
        return normals, u

    with np.errstate(all="ignore"):
        _, clean = hmc_step(target, config, batch, step_key, jitter_key)
        with mock.patch.object(sampler, "normal_uniform_each", injecting_draw):
            new, out = hmc_step(target, config, batch, step_key, jitter_key)
        finite_z = np.all(np.isfinite(out.proposal), axis=1)
        proposal_value = np.full(INJECT_CHAINS, -np.inf)
        if finite_z.any():
            proposal_value[finite_z] = target.log_prob(out.proposal[finite_z])

    r = out.log_accept_ratio
    assert r.dtype == np.float64  # a difference of float64 energies at either precision
    assert np.all(np.isfinite(r) | np.isneginf(r))
    rows = np.array(sorted(injected))
    assert np.all(np.isneginf(r[rows]))
    assert np.all(np.isneginf(r[~np.isfinite(proposal_value)]))

    dead = np.isneginf(r)
    assert not out.is_accepted[dead].any()
    cached = [(new.z, batch.z), (new.value, batch.value), (new.grad, batch.grad)]
    for kept, before in cached:
        assert same_bits(kept[dead], before[dead])
    check_cache(new, target)

    others = np.setdiff1d(np.arange(INJECT_CHAINS), rows)
    assert same_bits(r[others], clean.log_accept_ratio[others])
    assert same_bits(out.is_accepted[others], clean.is_accepted[others])
    assert same_bits(out.z[others], clean.z[others])


def test_demo_oracle_is_minus_inf_where_the_proposal_overflowed():
    """Chains 1 and 2 start far out, so their trajectories overflow to a
    non-finite proposal; the oracle records -inf there and stays the
    sampler's ratio, redone in double, on the other chains."""
    t32, key = small_model(61, "single")
    t64 = ModelTarget(t32.dataset, precision="double")
    k_init, k_run = split(key, 2)
    z = 0.4 * np.asarray(normal(k_init, [4, t32.dim]))
    z[1:3] += 5.0
    config = HmcConfig(step_size=0.1, num_leapfrog_steps=4)
    step_key, jitter_key = next(iteration_keys(k_run, 1))
    with np.errstate(all="ignore"):
        batch = ChainBatch.init(t32, z)
        demo = cli._DemoSink(t32, t64, batch)
        _, out = hmc_step(t32, config, batch, step_key, jitter_key)
        demo.record(out)
    (got,) = demo.oracle
    assert np.array_equal(np.all(np.isfinite(out.proposal), axis=1), [True, False, False, True])
    assert np.array_equal(np.isneginf(got), [False, True, True, False])
    ratio = out.log_accept_ratio
    assert np.all(np.isfinite(got[[0, 3]]))
    assert np.abs(got[[0, 3]] - ratio[[0, 3]]).max() <= 1e-4


def test_demo_oracle_matches_an_independent_double_oracle(monkeypatch, tmp_path):
    """The demo's oracle (the sampler's ratio with its density part redone
    in double) against the kinetic difference of the recorded momenta in
    double plus the float64 log_prob_ratio. |log density| is about 3e6 here,
    where the float32 model's ratio itself is off by about 2e-3: its terms
    carry float32 rounding, which the float64 sum keeps."""
    leapfrogs, oracles, naives = [], [], []
    leapfrog, record = sampler._leapfrog, cli._DemoSink.record

    def recording_leapfrog(tgt, eps, num_steps, z, m, grad, inv_mass):
        out = leapfrog(tgt, eps, num_steps, z, m, grad, inv_mass)
        leapfrogs.append((z, m, out[0], out[1]))
        return out

    def recording_record(demo, out):
        record(demo, out)
        oracles.append((demo.t64, out, demo.oracle[-1]))
        naives.append(demo.naive[-1])

    monkeypatch.setattr(sampler, "_leapfrog", recording_leapfrog)
    monkeypatch.setattr(cli._DemoSink, "record", recording_record)
    rc = cli.main(["precision-demo", "--base-rows", "20000", "--replication", "20",
                   "--steps", "8", "--output", str(tmp_path / "demo.json")])
    assert rc == 0
    assert len(oracles) == 8 and len(leapfrogs) == 8  # one transition per step

    t64 = oracles[0][0]
    inv_mass = 1.0 / cli._demo_mass(t64)
    worst = ratio_worst = naive_worst = 0.0
    for (t64, out, got), (z0, m0, z1, m1), naive in zip(oracles, leapfrogs, naives):
        assert same_bits(z1, out.proposal)
        m0, m1 = m0.astype(np.float64), m1.astype(np.float64)
        kinetic = (0.5 * (m0 * m0 - m1 * m1) * inv_mass).sum(axis=1)
        want = kinetic + t64.log_prob_ratio(z1.astype(np.float64), z0.astype(np.float64))
        assert np.all(np.isfinite(got)) and np.all(np.isfinite(want))
        worst = max(worst, float(np.abs(got - want).max()))
        ratio_worst = max(ratio_worst, float(np.abs(out.log_accept_ratio - want).max()))
        naive_worst = max(naive_worst, float(np.abs(naive - want).max()))
        # float32 energies near 3e6 have spacing 0.25, and so has their difference
        assert np.all(4.0 * naive == np.round(4.0 * naive))
    assert worst <= 1e-4
    assert ratio_worst > 1e-3  # so an oracle that skipped the redo would fail
    assert naive_worst > 0.1  # the naive ratio keeps the float32 totals' rounding


@pytest.mark.parametrize("argv, some_accept", [
    (["--step-size", "2", "--chains", "3", "--leapfrog-steps", "3"], True),
    # every proposal rejects and some diverge
    (["--step-size", "30.4", "--chains", "4", "--leapfrog-steps", "8"], False),
])
def test_demo_sink_evaluates_each_state_once_per_model(monkeypatch, argv, some_accept):
    """Each demo iteration adds one float32 and one float64 full-data
    evaluation to hmc_step's L (L - 1 gradients and the endpoint), and the
    values the sink tracks stay bitwise fresh log_prob evaluations of its
    current states."""
    counts = {"single": 0, "double": 0}
    evaluate = ModelTarget.evaluate

    def counted(target, zb, value, grad):
        counts[target.precision] += 1
        return evaluate(target, zb, value, grad)

    spent, accepted = [], []

    class CheckedSink(cli._DemoSink):
        def __init__(self, *args):
            super().__init__(*args)
            self.seen = dict(counts)

        def record(self, out):
            super().record(out)
            spent.append((counts["single"] - self.seen["single"],
                          counts["double"] - self.seen["double"]))
            accepted.append(out.is_accepted)
            assert same_bits(self.value, self.t32.log_prob(self.z))
            assert same_bits(self.value64, self.t64.log_prob(self.z))
            self.seen = dict(counts)

    monkeypatch.setattr(ModelTarget, "evaluate", counted)
    monkeypatch.setattr(cli, "_DemoSink", CheckedSink)
    rc = cli.main(["precision-demo", "--model", f"german-credit:{SMALL_CSV}",
                   "--replication", "1", "--steps", "10", *argv])
    assert rc == 0
    leapfrog_steps = int(argv[-1])
    assert spent == [(leapfrog_steps + 1, 1)] * 10
    accepted = np.stack(accepted)
    assert accepted.any() == some_accept and not accepted.all()
