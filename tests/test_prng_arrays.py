"""Array draws checked bit for bit against numpy's Philox.

normal_uniform_each must give, chain by chain, what a freshly built numpy
Philox gives from the start of the key's draw stream, as the one-key
functions must at their counters. The sampler's one draw-stream read per
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
    key_from_seed,
    normal,
    normal_uniform_each,
    randint,
    split,
    uniform,
)
from manychain.sampler import ChainBatch, HmcConfig, TraceSink, hmc_step, run_chains
from testkit import same_bits

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


@pytest.mark.parametrize("key", [key_from_seed(3)] + EDGE_KEYS, ids=repr)
def test_one_key_functions_match_a_fresh_philox(key):
    """The reused per-thread Philox gives what a newly built one gives, in
    each counter domain: 0 draws, 1 split, 3 seed expansion. split's keys are
    the split-domain stream's consecutive 128-bit blocks, also where they
    cross from one read of the stream to the next."""
    for n in (3, 64, 65, 130):
        words = fresh_generator(key, [0, 0, 1, 0]).integers(0, 2**64, size=2 * n, dtype=U64)
        assert as_random_keys(words.reshape(n, 2)) == split(key, n)
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
    want = {r: (split(r, 70), split(r, 5), normal(r, 3).tobytes())
            for r in roots}
    got, errors = {}, []

    def work(r):
        try:
            for _ in range(20):
                got[r] = (split(r, 70), split(r, 5), normal(r, 3).tobytes())
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
    """The draws are the first chains * (size + 1) 53-bit integers of a
    fresh Philox(key, counter=[0, 0, 0, 0]) stream, laid out chain by chain:
    each row's first size words are its normals, transformed as normal()
    documents, and its last word its uniform, as random() draws it. Chain 0
    reads what normal(key, [size]) reads."""
    normals, uniforms = normal_uniform_each(key, chains, size)
    assert normals.shape == (chains, size) and uniforms.shape == (chains,)
    k = fresh_generator(key, [0, 0, 0, 0]).integers(0, 2**53, (chains, size + 1), dtype=U64)
    assert same_bits(normals, normal_from_bits(k[:, :size]))
    assert same_bits(uniforms, k[:, size].astype(np.float64) / 2**53)
    assert same_bits(normals[0], normal(key, [size]))
    # the last chain's uniform is the random() that follows its normals
    g = fresh_generator(key, [0, 0, 0, 0])
    g.integers(0, 2**53, chains * (size + 1) - 1, dtype=U64)
    assert same_bits(uniforms[-1], np.float64(g.random()))
    with pytest.raises(ValueError):
        normal_uniform_each(key, chains, -1)
    with pytest.raises(ValueError):
        normal_uniform_each(key, -1, size)


@given(seed=st.integers(0, 2**64 - 1), chains=st.integers(0, 40), more=st.integers(0, 40),
       size=st.integers(0, 30))
@settings(max_examples=50, deadline=None)
def test_normal_uniform_each_rows_do_not_depend_on_chain_count(seed, chains, more, size):
    """Drawing for more chains only appends rows: the first chains rows are
    the same bits at any larger chain count."""
    key = key_from_seed(seed)
    normals, uniforms = normal_uniform_each(key, chains, size)
    normals_all, uniforms_all = normal_uniform_each(key, chains + more, size)
    assert same_bits(normals, normals_all[:chains])
    assert same_bits(uniforms, uniforms_all[:chains])


def test_one_cipher_call_per_iteration(monkeypatch):
    """Every chain's momentum and accept uniform come from one read of the
    draw stream per hmc_step, whatever the number of chains; the jitter's
    randint is the step's only other draw-stream read."""
    reads = []
    real = prng._stream

    def counting_stream(key, domain, index=0):
        if domain == prng._DOMAIN_DRAW:
            reads.append(key)
        return real(key, domain, index)

    monkeypatch.setattr(prng, "_stream", counting_stream)
    k_data, k_rest = split(key_from_seed(9), 2)
    target = ModelTarget(generate_synthetic(k_data, 40, 3, 0.5))
    cfg = HmcConfig(step_size=0.1, num_leapfrog_steps=3)
    for chains in (1, 17):
        z = 0.3 * np.asarray(normal(k_rest, [chains, target.dim]))
        batch = ChainBatch.init(target, z)
        keys = list(sampler.iteration_keys(k_rest, 4))
        reads.clear()
        for step_key, jitter_key in keys:
            batch, _ = hmc_step(target, cfg, batch, step_key, jitter_key)
        # each step reads its jitter key (randint), then its step key
        assert reads == [k for step_key, jitter_key in keys for k in (jitter_key, step_key)]


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
    same however many chains run beside it: it reads words i(P + 1) to
    i(P + 1) + P of the step key's stream in every layout."""
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
