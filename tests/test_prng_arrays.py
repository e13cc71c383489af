"""Array draws checked bit for bit against numpy's Philox.

normal_uniform_each, and the Philox-4x64-10 under it, must give for every
chain what a freshly built numpy Philox gives at that chain's counter, as
the one-key functions must at theirs. The sampler's one cipher call per
iteration and its zero-uniform rule are checked on their own, and whole
runs against changes of chain count and thread count.
"""

import functools
import math
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import manychain.prng as prng
import manychain.sampler as sampler
from manychain.cli import main
from manychain.model import GaussianTarget, ModelTarget, generate_synthetic
from manychain.prng import (
    RandomKey,
    _philox,
    fold_in,
    key_from_seed,
    normal,
    normal_uniform_each,
    randint,
    split,
    uniform,
)
from manychain.sampler import ChainBatch, HmcConfig, TraceSink, hmc_step, run_chains

U64 = np.uint64
ALL_ONES = 2**64 - 1
CHAIN_COUNTS = [1, 5, 16, 17, 256]
EDGE_KEYS = [
    RandomKey(ALL_ONES, ALL_ONES),
    RandomKey(ALL_ONES, 0),
    RandomKey(0, ALL_ONES),
    RandomKey(0, 0),
]


def fresh_generator(key, counter):
    """A newly constructed numpy Philox, the oracle for every derivation."""
    philox = np.random.Philox(key=np.array([key.lo, key.hi], dtype=U64),
                              counter=np.array(counter, dtype=U64))
    return np.random.Generator(philox)


def normal_from_bits(k):
    """normal()'s transform of 53-bit integers k, as it is documented."""
    return ndtri((k.astype(np.float64) + 0.5) / 2**53)


def as_random_keys(keys):
    return [RandomKey(int(hi), int(lo)) for lo, hi in keys]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_philox_blocks_match_numpy_with_carries():
    rng = np.random.default_rng(0)
    counters = rng.integers(0, 2**64, size=(40, 4), dtype=U64)
    # all-ones low words make the increment carry one, two, three words up,
    # and an all-ones counter wraps to zero
    for i, ones in enumerate([1, 2, 3, 4] * 5):
        counters[i, :ones] = ALL_ONES
    keys = rng.integers(0, 2**64, size=(40, 2), dtype=U64)
    keys[::3] = ALL_ONES
    keys[1::7, 0] = 0
    blocks = _philox(counters, keys)
    assert blocks.shape == (40, 4) and blocks.dtype == U64
    for c, k, got in zip(counters, keys, blocks):
        want = np.random.Philox(key=k, counter=c).random_raw(4)
        assert same_bits(got, want)


def test_philox_broadcasts_counters_against_keys():
    rng = np.random.default_rng(1)
    counters = rng.integers(0, 2**64, size=(3, 1, 4), dtype=U64)
    keys = rng.integers(0, 2**64, size=(1, 5, 2), dtype=U64)
    blocks = _philox(counters, keys)
    assert blocks.shape == (3, 5, 4)
    for i in range(3):
        for j in range(5):
            assert same_bits(blocks[i, j], _philox(counters[i, 0], keys[0, j]))
            want = np.random.Philox(key=keys[0, j], counter=counters[i, 0]).random_raw(4)
            assert same_bits(blocks[i, j], want)


@pytest.mark.parametrize("key", [key_from_seed(3)] + EDGE_KEYS, ids=repr)
def test_one_key_functions_match_a_fresh_philox(key):
    """The reused per-thread Philox gives what a newly built one gives, in
    each counter domain: 0 draws, 1 split, 2 fold_in, 3 seed expansion."""
    words = fresh_generator(key, [0, 0, 1, 0]).integers(0, 2**64, size=6, dtype=U64)
    assert as_random_keys(words.reshape(3, 2)) == split(key, 3)
    for index in (0, 7, ALL_ONES):
        lo, hi = fresh_generator(key, [index, 0, 2, 0]).integers(0, 2**64, size=2, dtype=U64)
        assert fold_in(key, index) == RandomKey(int(hi), int(lo))
    assert same_bits(uniform(key, 9), fresh_generator(key, [0, 0, 0, 0]).random(9))
    assert uniform(key) == fresh_generator(key, [0, 0, 0, 0]).random()
    k = fresh_generator(key, [0, 0, 0, 0]).integers(0, 2**53, size=7, dtype=U64)
    assert same_bits(normal(key, 7), normal_from_bits(k))
    assert same_bits(randint(key, 2, 9, 11), fresh_generator(key, [0, 0, 0, 0]).integers(2, 9, 11))
    # a scalar randint leaves half a word buffered; the next call must not see it
    first = randint(key, 0, 1000)
    assert randint(key, 0, 1000) == first
    assert first == int(fresh_generator(key, [0, 0, 0, 0]).integers(0, 1000))
    seed = key.lo
    lo, hi = fresh_generator(RandomKey(0x9E3779B97F4A7C15, seed), [0, 0, 3, 0]).integers(
        0, 2**64, size=2, dtype=U64)
    assert key_from_seed(seed) == RandomKey(int(hi), int(lo))


def test_one_key_functions_are_per_thread():
    """Threads deriving keys at once each get the sequential answers."""
    roots = [key_from_seed(s) for s in range(6)]
    want = {r: ([fold_in(r, i) for i in range(40)], split(r, 5), normal(r, 3).tobytes())
            for r in roots}
    got, errors = {}, []

    def work(r):
        try:
            for _ in range(20):
                got[r] = ([fold_in(r, i) for i in range(40)], split(r, 5), normal(r, 3).tobytes())
                assert got[r] == want[r]
        except Exception as exc:  # recorded and asserted on below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(r,)) for r in roots]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and got == want


@pytest.mark.parametrize("chains", CHAIN_COUNTS)
@pytest.mark.parametrize("size", [0, 1, 3, 4, 5, 7, 24, 49])
@pytest.mark.parametrize("key", [key_from_seed(8)] + EDGE_KEYS, ids=repr)
def test_normal_uniform_each_matches_one_philox_stream(key, chains, size):
    """Chain c's normals are the first size 53-bit integers of a fresh
    Philox(key, counter=[0, c, 0, 0]) stream, transformed as normal()
    documents, and its uniform is the random() that follows. Sizes 3 and 7
    put the uniform at the end of a block; sizes 0 and 4 open a new block
    for it. Chain 0 reads the stream the one-key draws read."""
    normals, uniforms = normal_uniform_each(key, chains, size)
    assert normals.shape == (chains, size) and uniforms.shape == (chains,)
    for c in range(chains):
        g = fresh_generator(key, [0, c, 0, 0])
        assert same_bits(normals[c], normal_from_bits(g.integers(0, 2**53, size, dtype=U64)))
        assert same_bits(uniforms[c], np.float64(g.random()))
    assert same_bits(normals[0], normal(key, [size]))
    with pytest.raises(ValueError):
        normal_uniform_each(key, chains, -1)
    with pytest.raises(ValueError):
        normal_uniform_each(key, -1, size)


@pytest.mark.parametrize("stable", [False, True])
def test_one_cipher_call_per_iteration(monkeypatch, stable):
    """Every chain's momentum and accept uniform come from one _philox call
    per hmc_step, whatever the number of chains."""
    calls = []
    real = prng._philox

    def counting_philox(counter, key):
        calls.append(counter.shape)
        return real(counter, key)

    monkeypatch.setattr(prng, "_philox", counting_philox)
    k_data, k_rest = split(key_from_seed(9), 2)
    target = ModelTarget(generate_synthetic(k_data, 40, 3, 0.5))
    cfg = HmcConfig(step_size=0.1, num_leapfrog_steps=3, stable_ratio=stable)
    for chains in (1, 17):
        z = 0.3 * np.asarray(normal(k_rest, [chains, target.dim]))
        batch = ChainBatch.init(target, z)
        calls.clear()
        for step_key, jitter_key in sampler.iteration_keys(k_rest, 4):
            batch, _ = hmc_step(target, cfg, batch, step_key, jitter_key)
        assert calls == [(chains, target.dim // 4 + 1, 4)] * 4


def test_a_zero_uniform_accepts_every_finite_ratio(monkeypatch):
    """The log of a zero accept uniform is -inf, taken without a warning: its
    chain accepts a proposal whose ratio no nonzero uniform accepts, while a
    chain whose ratio is -inf (an overflowing momentum) still rejects."""
    real = sampler.normal_uniform_each

    def zero_uniforms(key, chains, size):
        normals, u = real(key, chains, size)
        normals[1] = 1e300
        u[:2] = 0.0
        return normals, u

    monkeypatch.setattr(sampler, "normal_uniform_each", zero_uniforms)
    target = GaussianTarget(3)
    # step size 3 makes leapfrog unstable on a unit Gaussian: huge energy errors
    cfg = HmcConfig(step_size=3.0, num_leapfrog_steps=3, jitter=False)
    batch = ChainBatch.init(target, np.ones((4, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, out = hmc_step(target, cfg, batch, key_from_seed(11), key_from_seed(12))
    ratios = out.log_accept_ratio
    assert np.isfinite(ratios[0]) and ratios[0] < math.log(2.0**-53)
    assert out.is_accepted[0]
    assert ratios[1] == -np.inf and not out.is_accepted[1]
    assert (ratios[2:] < math.log(2.0**-53)).all() and not out.is_accepted[2:].any()


def gaussian_trace(chains):
    target = GaussianTarget(3)
    cfg = HmcConfig(step_size=0.4, num_leapfrog_steps=3)
    z0 = np.asarray(normal(key_from_seed(12), [chains, 3]))
    sink = TraceSink()
    run_chains(target, cfg, z0, key_from_seed(13), 5, sink=sink)
    return sink.z_trace(), sink.log_accept_ratios()


@functools.cache
def forty_chains():
    return gaussian_trace(40)


@given(chains=st.integers(1, 40))
@settings(max_examples=25, deadline=None)
def test_chains_do_not_depend_on_chain_count(chains):
    """On a target whose chains do not interact, chain i's draws are the
    same however many chains run beside it: its draws read the step key's
    stream at counter [0, i, 0, 0] in every layout."""
    z, ratios = gaussian_trace(chains)
    z_all, ratios_all = forty_chains()
    assert same_bits(z, z_all[:, :chains])
    assert same_bits(ratios, ratios_all[:, :chains])


@given(chains=st.integers(1, 40))
@settings(max_examples=10, deadline=None)
def test_sample_threads_1_and_2_write_the_same_bytes(chains):
    args = ["sample", "synthetic:60,3,0.5", "--chains", str(chains), "--draws", "8",
            "--warmup", "15", "--leapfrog-steps", "3", "--step-size", "0.1", "--seed", "14"]
    with tempfile.TemporaryDirectory() as tmp:
        outs = []
        for threads in ("1", "2"):
            out = Path(tmp) / threads
            assert main(args + ["--threads", threads, "--output", str(out)]) == 0
            outs.append(out)
        for name in ("trace.csv", "diagnostics.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
