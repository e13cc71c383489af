"""Whole-batch evaluation and the likelihood's worker threads.

The target evaluates a (C, P) batch as a whole except for its BLAS
products, which run target.block_rows rows at a time from row 0 (16 in
float64, 32 in float32: model.BLOCK_BYTES per observation). Every row of
a batch is then bitwise that row of its block evaluated alone, however
ModelTarget(threads=T) groups the blocks over its workers, so thread counts
and cache recomputations agree bit for bit. A row's bits are not
independent of C: a state in a short last block may round differently from
the same state in a full block. The (N, b) panel pipeline is held to the
row-major one it replaced, bit for bit where the two round alike."""

import functools
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from manychain import model
from manychain.cli import main
from manychain.model import ModelTarget, _bernoulli_terms, _sign_residuals, generate_synthetic
from manychain.prng import key_from_seed, normal, split
from manychain.sampler import HmcConfig, run_chains
from testkit import check_cache, grad_only

CHAIN_COUNTS = [1, 15, 16, 17, 32, 33, 48, 64, 256]


@functools.cache
def regression_target(precision, threads=1):
    """The 1000-row, 24-feature dataset the benchmark and criterion 1 use."""
    ds = generate_synthetic(split(key_from_seed(5), 2)[0], 1000, 24, 0.25)
    return ModelTarget(ds, precision=precision, threads=threads)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def blockwise(evaluate, z, block_rows):
    """evaluate on each block_rows-row block of z alone, outputs stacked."""
    parts = [evaluate(z[lo : lo + block_rows]) for lo in range(0, len(z), block_rows)]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(col) for col in zip(*parts))
    return np.concatenate(parts)


class RowMajorTarget(ModelTarget):
    """The per-observation pipeline the (N, b) panels replaced, kept as the
    reference they are held to: each block's (b, N) margins coefs[rows] @
    xs.T, its Bernoulli terms written row by row, and its residual product
    residuals @ xs into the block's rows of a (C, D) gradient. One thread.
    The block's terms are then summed as the panels sum theirs: column sums
    of a contiguous float64 (N, b) copy, ones @ terms."""

    def evaluate(self, zb, value, grad):
        c, d = len(zb), self.num_features
        u, beta = zb[:, : 1 + d], zb[:, 1 + d :]
        a, r = self.dtype(model.GAMMA_SHAPE), self.dtype(model.GAMMA_RATE)
        t = np.empty((c, len(self._xs)), dtype=self.dtype) if value else None
        total = np.empty(c) if value else None
        g = np.empty((c, d), dtype=self.dtype) if grad else None
        with np.errstate(over="ignore", invalid="ignore"):
            scale = np.exp(u[:, :1] + u[:, 1:])
            coefs = scale * beta
            exp_u = np.exp(u)
            for lo in range(0, c, self.block_rows):
                rows = slice(lo, lo + self.block_rows)
                margins = coefs[rows] @ self._xs_t
                if value:
                    _bernoulli_terms(margins, out=t[rows])
                    panel = np.ascontiguousarray(t[rows].T, dtype=np.float64)
                    np.matmul(np.ones(len(self._xs)), panel, out=total[rows])
                if grad:
                    np.matmul(_sign_residuals(margins), self._xs, out=g[rows])
            if value:
                prior = np.concatenate([self._gamma_const + a * u - r * exp_u,
                                        self._normal_const - self.dtype(0.5) * beta * beta],
                                       axis=1).sum(axis=1, dtype=np.float64)
                total += prior
                total[~np.isfinite(prior)] = -np.inf
            if grad:
                coefs_g = coefs * g
                out = np.empty_like(zb)
                out[:, : 1 + d] = a - r * exp_u
                out[:, 0] += coefs_g.sum(axis=1)
                out[:, 1 : 1 + d] += coefs_g
                out[:, 1 + d :] = -beta + scale * g
                g = out
        return total, g


# a product edge (block rows, or features in the residual product) of this
# size mod 8 keeps the row-major pipeline's bits with OpenBLAS's Haswell
# gemm kernels; an edge of 1 to 4 mod 8 may round differently
EXACT_EDGES = (0, 5, 6, 7)


@pytest.mark.parametrize("rows", [200, 1000])
@pytest.mark.parametrize("features", [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 16, 24, 29, 32, 40])
def test_panels_match_the_row_major_pipeline(rows, features):
    """In float64, at every C from 1 to 32: log_prob is bitwise the
    row-major pipeline's wherever every block has 0, 5, 6 or 7
    rows mod 8 (every C = 0 or 5 to 15 mod 16), and so is the gradient
    where the feature count is also 0, 5, 6 or 7 mod 8 (D = 24, the
    benchmark's and criterion 1's, included). Elsewhere they agree to
    atol 1e-10."""
    k_data, k_states = split(key_from_seed(features), 2)
    ds = generate_synthetic(k_data, rows, features, 0.25)
    panels, row_major = ModelTarget(ds), RowMajorTarget(ds)
    z_all = 0.3 * np.asarray(normal(k_states, [32, panels.dim]))
    for chains in range(1, 33):
        z = z_all[:chains]
        want = row_major.value_and_grad(z)
        got = panels.value_and_grad(z)
        got_grad = grad_only(panels, z)
        exact = (chains % panels.block_rows) % 8 in EXACT_EDGES
        exact_grad = exact and features % 8 in EXACT_EDGES
        for w, g, bitwise in zip(want, got, (exact, exact_grad)):
            if bitwise:
                assert same_bits(w, g), chains
            else:
                np.testing.assert_allclose(g, w, rtol=0, atol=1e-10)
        assert same_bits(got_grad, got[1])
        assert same_bits(panels.log_prob(z), got[0])


@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("chains", CHAIN_COUNTS)
def test_batch_is_bitwise_its_blocks(precision, chains):
    target = regression_target(precision)
    z = 0.3 * np.asarray(normal(key_from_seed(chains), [chains, target.dim]))
    rows = target.block_rows
    whole = target.value_and_grad(z)
    blocks = blockwise(target.value_and_grad, z, rows)
    for w, b in zip(whole, blocks):
        assert same_bits(w, b)
    grad = functools.partial(grad_only, target)
    assert same_bits(grad(z), blockwise(grad, z, rows))
    assert same_bits(target.log_prob(z), blockwise(target.log_prob, z, rows))


def stack_edges(target):
    """Every chain count beside a stack boundary, k * b - 1, k * b and
    k * b + 1 for k up to 2 * stack_blocks + 1, so one- and multi-thread
    groups hold several stacks and a short last block."""
    b, k = target.block_rows, target.stack_blocks
    return sorted({j * b + e for j in range(1, 2 * k + 2) for e in (-1, 0, 1)})


@pytest.mark.parametrize("precision", ["double", "single"])
def test_rows_are_their_blocks_at_every_chain_count(precision):
    """At every C from 1 to 40 and at every C beside a stack boundary, each
    row of a batch's value_and_grad and gradient-only evaluation is bitwise
    that row computed from its block_rows-row block alone, at one, two and
    three threads. A stack computed as one gemm over all its blocks would
    round the gradient's residual product differently."""
    targets = [regression_target(precision, threads) for threads in (1, 2, 3)]
    one = targets[0]
    rows = one.block_rows
    counts = sorted(set(range(1, 41)) | set(stack_edges(one)))
    assert one.stack_blocks == 4 and counts[-1] == 9 * rows + 1
    z_all = 0.3 * np.asarray(normal(key_from_seed(40), [counts[-1], one.dim]))
    for chains in counts:
        z = z_all[:chains]
        want = blockwise(one.value_and_grad, z, rows)
        want_grad = blockwise(functools.partial(grad_only, one), z, rows)
        for target in targets:
            for w, g in zip(want, target.value_and_grad(z)):
                assert same_bits(w, g), (chains, target.threads)
            assert same_bits(want_grad, grad_only(target, z)), (chains, target.threads)


@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("chains", [1, 17, 40])
def test_log_prob_is_the_value_of_value_and_grad(precision, threads, chains):
    """log_prob's float64 totals are bitwise value_and_grad's, with short
    last blocks (17 and 40 chains in both precisions) and at two threads."""
    target = regression_target(precision, threads)
    z = 0.3 * np.asarray(normal(key_from_seed(chains + 100), [chains, target.dim]))
    value = target.log_prob(z)
    assert value.dtype == np.float64
    assert same_bits(value, target.value_and_grad(z)[0])


@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("threads", [2, 3, 8])
@pytest.mark.parametrize("chains", CHAIN_COUNTS)
def test_threads_give_the_one_thread_bits(precision, threads, chains):
    one, many = regression_target(precision), regression_target(precision, threads)
    z = 0.3 * np.asarray(normal(key_from_seed(chains), [chains, one.dim]))
    for w, t in zip(one.value_and_grad(z), many.value_and_grad(z)):
        assert same_bits(w, t)
    assert same_bits(grad_only(one, z), grad_only(many, z))


@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("threads", [1, 2])
def test_concurrent_callers_get_the_one_thread_bits(precision, threads):
    """Callers evaluating one target at once, more of them than this
    machine has cores, each get bitwise what one caller alone gets: every
    evaluating thread writes its own scratch."""
    one, shared = regression_target(precision), regression_target(precision, threads)
    zs = [0.3 * np.asarray(normal(key, [64, one.dim])) for key in split(key_from_seed(41), 4)]
    start = threading.Barrier(len(zs))

    def evaluate(target, z):
        return grad_only(target, z), *target.value_and_grad(z)

    def hammer(z):
        start.wait(timeout=60)
        return [evaluate(shared, z) for _ in range(20)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(zs)) as callers:
            got = list(callers.map(hammer, zs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for z, runs in zip(zs, got):
        want = evaluate(one, z)
        for outs in runs:
            for w, g in zip(want, outs):
                assert same_bits(w, g)


@functools.cache
def wide_target(precision, threads):
    """4000 rows: one float64 (N, block_rows) panel is 500 KiB."""
    ds = generate_synthetic(split(key_from_seed(6), 2)[0], 4000, 24, 0.25)
    return ModelTarget(ds, precision=precision, threads=threads)


@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("make", [wide_target, regression_target])
def test_warm_evaluations_allocate_no_panels(make, precision, threads):
    """A warm evaluation allocates its outputs and (C, .) arrays, never a
    per-block or per-stack (N, b) temporary: its traced peak stays below one
    (N, block_rows) panel above the outputs it returns. The 4000-row
    target's stacks hold one block; at 64 chains the 1000-row target runs
    one stack of four float64 blocks or two float32 blocks."""
    target = make(precision, threads)
    if make is wide_target:
        assert target.stack_blocks == 1
    panel = len(target._xs) * target.block_rows * target._xs.itemsize
    z = 0.3 * np.asarray(normal(key_from_seed(7), [64, target.dim]))
    for evaluate in (functools.partial(grad_only, target), target.value_and_grad):
        evaluate(z)  # every evaluating thread allocates its scratch once
        tracemalloc.start()
        try:
            outs = evaluate(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = sum(a.nbytes for a in (outs if isinstance(outs, tuple) else (outs,)))
        assert peak < outputs + panel, (peak, outputs, panel)


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
        got = two.value_and_grad(z) + (grad_only(two, z),)
    want = one.value_and_grad(z) + (grad_only(one, z),)
    for w, g in zip(want, got):
        assert same_bits(w, g)


@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("threads", [1, 2])
def test_dead_rows_leave_every_other_row_its_bits(precision, threads):
    """The sampler hands the hook every state as it is. In a 40-chain batch
    (float64 blocks of 16, 16 and 8, two per thread group; float32 blocks
    of 32 and 8) rows holding NaN, +inf and -inf in a scale, a weight or
    every entry come back dead, -inf, and each other row gets the bits it
    gets when those rows hold finite states."""
    target = regression_target(precision, threads)
    d = target.num_features
    finite = (0.3 * np.asarray(normal(key_from_seed(9), [40, target.dim]))).astype(target.dtype)
    z = finite.copy()
    dead = [0, 3, 17, 20, 33, 39]
    z[0, 0], z[3, 1], z[17, 1 + d], z[33, -1], z[39, d] = np.nan, np.inf, -np.inf, np.inf, -np.inf
    z[20] = np.nan
    live = np.setdiff1d(np.arange(40), dead)
    with np.errstate(over="ignore", invalid="ignore"):
        for flags in [(True, True), (False, True), (True, False)]:
            want, got = target.evaluate(finite, *flags), target.evaluate(z, *flags)
            for w, g in zip(want, got):
                assert (w is None) == (g is None)
                assert w is None or same_bits(w[live], g[live]), flags
            assert got[0] is None or np.isneginf(got[0][dead]).all()


@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("chains", [16, 20, 32, 48, 64])
def test_check_cache_holds_after_a_run(precision, chains):
    """The cache a run fills range by range equals a whole-batch
    recomputation, bit for bit, at any chain count."""
    target = regression_target(precision)
    k_init, k_run = split(key_from_seed(chains), 2)
    z0 = 0.3 * np.asarray(normal(k_init, [chains, target.dim]))
    cfg = HmcConfig(step_size=0.01, num_leapfrog_steps=3)
    summary = run_chains(target, cfg, z0, k_run, 3)
    check_cache(summary.final_batch, target)


@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("chains", [64, 100, 300])
def test_sample_writes_the_same_bytes_at_any_thread_count(tmp_path, chains, precision):
    args = ["sample", "synthetic:1000,24,0.25", "--chains", str(chains), "--draws", "8",
            "--warmup", "15", "--leapfrog-steps", "3", "--step-size", "0.05", "--seed", "21",
            "--precision", precision]
    outs = []
    for threads in ("1", "2", "3"):
        out = tmp_path / f"t{threads}"
        assert main(args + ["--threads", threads, "--output", str(out)]) == 0
        outs.append(out)
    for name in ("trace.csv", "diagnostics.json"):
        first = (outs[0] / name).read_bytes()
        assert all((out / name).read_bytes() == first for out in outs[1:])
