"""Whole-batch evaluation and the likelihood's worker threads.

The target evaluates a (C, P) batch as a whole except for its BLAS
products, which run model.BLOCK_ROWS rows at a time from row 0. Every row of
a batch is then bitwise that row of its block evaluated alone, however
ModelTarget(threads=T) groups the blocks over its workers, so thread counts
and cache recomputations agree bit for bit. A row's bits are not
independent of C: a state in a short last block may round differently from
the same state in a full block."""

import functools
import warnings

import numpy as np
import pytest

from manychain import model
from manychain.cli import main
from manychain.model import ModelTarget, generate_synthetic
from manychain.prng import key_from_seed, normal, split
from manychain.sampler import HmcConfig, run_chains

CHAIN_COUNTS = [1, 15, 16, 17, 33, 48, 64, 256]


@functools.cache
def regression_target(precision, threads=1):
    """The 1000-row, 24-feature dataset the benchmark and criterion 1 use."""
    ds = generate_synthetic(split(key_from_seed(5), 2)[0], 1000, 24, 0.25)
    return ModelTarget(ds, precision=precision, threads=threads)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def blockwise(evaluate, z):
    """evaluate on each BLOCK_ROWS-row block of z alone, outputs stacked."""
    parts = [evaluate(z[lo : lo + model.BLOCK_ROWS])
             for lo in range(0, len(z), model.BLOCK_ROWS)]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(col) for col in zip(*parts))
    return np.concatenate(parts)


@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("chains", CHAIN_COUNTS)
def test_batch_is_bitwise_its_blocks(precision, chains):
    target = regression_target(precision)
    z = 0.3 * np.asarray(normal(key_from_seed(chains), [chains, target.dim]))
    whole = target.value_and_grad(z, terms=True)
    blocks = blockwise(lambda zb: target.value_and_grad(zb, terms=True), z)
    for w, b in zip(whole, blocks):
        assert same_bits(w, b)
    assert same_bits(target.grad(z), blockwise(target.grad, z))
    assert same_bits(target.log_prob(z), blockwise(target.log_prob, z))


@pytest.mark.parametrize("precision", ["double", "single"])
def test_rows_are_their_blocks_at_every_chain_count(precision):
    """At every C from 1 to 40, each row of a batch's value_and_grad and
    grad is bitwise that row computed from its 16-row block alone, at one
    thread and at two."""
    one, two = regression_target(precision), regression_target(precision, 2)
    z_all = 0.3 * np.asarray(normal(key_from_seed(40), [40, one.dim]))
    for chains in range(1, 41):
        z = z_all[:chains]
        want = blockwise(lambda zb: one.value_and_grad(zb, terms=True), z)
        want_grad = blockwise(one.grad, z)
        for target in (one, two):
            for w, g in zip(want, target.value_and_grad(z, terms=True)):
                assert same_bits(w, g), (chains, target.threads)
            assert same_bits(want_grad, target.grad(z)), (chains, target.threads)


@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("threads", [2, 3, 8])
@pytest.mark.parametrize("chains", CHAIN_COUNTS)
def test_threads_give_the_one_thread_bits(precision, threads, chains):
    one, many = regression_target(precision), regression_target(precision, threads)
    z = 0.3 * np.asarray(normal(key_from_seed(chains), [chains, one.dim]))
    for w, t in zip(one.value_and_grad(z, terms=True), many.value_and_grad(z, terms=True)):
        assert same_bits(w, t)
    assert same_bits(one.grad(z), many.grad(z))


@pytest.mark.parametrize("precision", ["double", "single"])
def test_pool_workers_raise_no_warnings(precision):
    """numpy's error state is per thread: the pool's workers must be as
    quiet as the calling thread where margins overflow."""
    one, two = regression_target(precision), regression_target(precision, 2)
    z = 0.3 * np.asarray(normal(key_from_seed(3), [64, one.dim]))
    # exp(u_tau) overflows float32 (coefficients of +-inf make NaN margins)
    # and makes float64 margins whose exp overflows; so do the huge weights
    z[::2, 0] = 100.0
    z[1::2, 1 + one.num_features :] = 1e3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = two.value_and_grad(z, terms=True) + (two.grad(z),)
    want = one.value_and_grad(z, terms=True) + (one.grad(z),)
    for w, g in zip(want, got):
        assert same_bits(w, g)


@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("chains", [16, 20, 32, 48, 64])
def test_check_cache_holds_after_a_stable_ratio_run(precision, chains):
    """The cache a run fills range by range equals a whole-batch
    recomputation, bit for bit, at any chain count."""
    target = regression_target(precision)
    k_init, k_run = split(key_from_seed(chains), 2)
    z0 = 0.3 * np.asarray(normal(k_init, [chains, target.dim]))
    cfg = HmcConfig(step_size=0.01, num_leapfrog_steps=3, stable_ratio=True)
    summary = run_chains(target, cfg, z0, k_run, 3)
    assert summary.final_batch.terms is not None
    summary.final_batch.check_cache(target)


@pytest.mark.parametrize("chains", [64, 100])
def test_sample_writes_the_same_bytes_at_any_thread_count(tmp_path, chains):
    args = ["sample", "synthetic:1000,24,0.25", "--chains", str(chains), "--draws", "8",
            "--warmup", "15", "--leapfrog-steps", "3", "--step-size", "0.05", "--seed", "21"]
    outs = []
    for threads in ("1", "2", "3"):
        out = tmp_path / f"t{threads}"
        assert main(args + ["--threads", threads, "--output", str(out)]) == 0
        outs.append(out)
    for name in ("trace.csv", "diagnostics.json"):
        first = (outs[0] / name).read_bytes()
        assert all((out / name).read_bytes() == first for out in outs[1:])
