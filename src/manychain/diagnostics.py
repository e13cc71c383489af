"""Streaming and trace-based sampler diagnostics.

Moment accumulation is single-pass Welford with a Chan-style merge, so
per-chain moments can be combined across chains (or across workers) without
a second pass over draws. Mixing diagnostics follow the split-chain R-hat
and the multi-chain autocorrelation ESS with Geyer initial-positive-pairs
truncation. ESJD, ChEES, the harmonic accept and the roundoff fraction
are streamed by RunStatistics, which both retentions fold their draws
through. Everything here runs in float64 regardless of the precision the
sampler itself used; diagnostics are too cheap to be worth corrupting.

1-D traces are treated as a single chain; 2-D traces are draws x chains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ROUNDOFF_ABS_LIMIT = 1e6
ROUNDOFF_QUARTER_TOL = 1e-9


class DegenerateTraceError(ValueError):
    """A trace with zero within-chain variance cannot support R-hat or ESS."""


@dataclass(frozen=True)
class StreamingMoments:
    """Count, running mean and sum of squared deviations (M2).

    mean and m2 may be any shape; a lockstep sampler uses (C, P) so every
    chain and dimension streams its own moments under one draw count.
    """

    count: int
    mean: np.ndarray
    m2: np.ndarray


def welford_init(shape=()) -> StreamingMoments:
    return StreamingMoments(0, np.zeros(shape), np.zeros(shape))


def welford_update(acc: StreamingMoments, x) -> StreamingMoments:
    """Fold one observation (of acc's shape) into the accumulator."""
    x = np.asarray(x, dtype=np.float64)
    n = acc.count + 1
    delta = x - acc.mean
    mean = np.divide(delta, n)
    mean += acc.mean  # acc.mean + delta / n
    m2 = np.subtract(x, mean)
    m2 *= delta
    m2 += acc.m2  # acc.m2 + delta * (x - mean)
    return StreamingMoments(n, mean, m2)


def welford_merge(a: StreamingMoments, b: StreamingMoments) -> StreamingMoments:
    """Combine two accumulators as if their draws had been one stream."""
    if a.count == 0:
        return b
    if b.count == 0:
        return a
    n = a.count + b.count
    delta = b.mean - a.mean
    mean = a.mean + delta * (b.count / n)
    m2 = a.m2 + b.m2 + delta * delta * (a.count * b.count / n)
    return StreamingMoments(n, mean, m2)


def variance(acc: StreamingMoments) -> np.ndarray:
    """Sample variance, M2 / (count - 1)."""
    if acc.count < 2:
        raise ValueError(f"need at least 2 observations, have {acc.count}")
    return acc.m2 / (acc.count - 1)


def merge_chain_axis(acc: StreamingMoments) -> StreamingMoments:
    """Pool a (C, ...) accumulator over its chain axis into one (...) stream."""
    if acc.count == 0 or acc.mean.ndim == 0:
        raise ValueError("expected a populated accumulator with a chain axis")
    out = StreamingMoments(acc.count, acc.mean[0], acc.m2[0])
    for c in range(1, acc.mean.shape[0]):
        out = welford_merge(out, StreamingMoments(acc.count, acc.mean[c], acc.m2[c]))
    return out


def _as_chains(trace) -> np.ndarray:
    trace = np.asarray(trace, dtype=np.float64)
    if trace.ndim == 1:
        trace = trace[:, None]
    if trace.ndim != 2:
        raise ValueError(f"trace must be (draws,) or (draws, chains), got {trace.shape}")
    return trace


def _rhat(n, within, means, unmoved):
    """The one R-hat formula. Sequences of n draws run along axis 0 of the
    per-sequence variances within and means; with W the mean of within and
    B = n * var(means), returns sqrt((((n - 1) / n) * W + B / n) / W).

    unmoved is true where every sequence equals its first draw: then R-hat
    is undefined, however the rounded variances come out."""
    if np.any(unmoved):
        raise DegenerateTraceError("no chain moved: zero within-chain variance, R-hat undefined")
    w = within.mean(axis=0)
    b = n * means.var(axis=0, ddof=1)
    return np.sqrt((((n - 1) / n) * w + b / n) / w)


def split_rhat(trace) -> float:
    """Potential scale reduction with each chain split in half: _rhat over
    the 2C half-chains of n = T // 2 draws each."""
    x = _as_chains(trace)
    t = x.shape[0]
    if t < 4:
        raise ValueError(f"split R-hat needs at least 4 draws, got {t}")
    n = t // 2
    pieces = np.concatenate([x[:n], x[n : 2 * n]], axis=1)  # (n, 2C)
    unmoved = np.all(pieces == pieces[0])
    if unmoved and not np.all(x == x[0]):
        raise DegenerateTraceError(
            "every half-chain is constant: zero within-half-chain variance, "
            "split R-hat undefined"
        )
    return float(_rhat(n, pieces.var(axis=0, ddof=1), pieces.mean(axis=0), unmoved))


def streaming_rhat(acc: StreamingMoments) -> np.ndarray:
    """R-hat (unsplit) straight from per-chain streaming moments.

    acc holds (C, P) moments from n draws per chain. Trace retention is not
    required, but a run stuck in the first half of sampling will look better
    here than under split R-hat; prefer the split version when draws exist.
    A chain's Welford M2 is exactly 0 when it never moved.
    """
    if acc.mean.ndim != 2 or acc.mean.shape[0] < 2:
        raise ValueError("streaming R-hat needs (C, P) moments with C >= 2")
    return _rhat(acc.count, variance(acc), acc.mean, np.all(acc.m2 == 0.0, axis=0))


def _autocovariances(x: np.ndarray) -> np.ndarray:
    """Biased per-chain autocovariances via FFT. x is (T, C) centered."""
    t = x.shape[0]
    nfft = 1 << (2 * t - 1).bit_length()
    f = np.fft.rfft(x, n=nfft, axis=0)
    acov = np.fft.irfft(f * np.conj(f), n=nfft, axis=0)[:t].real
    return acov / t


def ess(trace) -> float:
    """Multi-chain effective sample size.

    Per-lag autocorrelations pool within-chain autocovariances against the
    combined variance estimate; the sum over lags is truncated by Geyer's
    initial-positive-pairs rule. Returns C * T / (1 + 2 * sum(rho)), which
    may legitimately exceed C * T for anticorrelated chains.
    """
    x = _as_chains(trace)
    t, c = x.shape
    if t < 8:
        raise ValueError(f"ESS needs at least 8 draws, got {t}")
    if np.all(x == x[0]):
        raise DegenerateTraceError("no chain moved: zero within-chain variance, ESS undefined")
    chain_means = x.mean(axis=0)
    w = x.var(axis=0, ddof=1).mean()
    if c > 1:
        var_hat = w * (t - 1) / t + chain_means.var(ddof=1)
    else:
        var_hat = w * (t - 1) / t
    acov = _autocovariances(x - chain_means)
    mean_acov = acov.mean(axis=1)
    rho = 1.0 - (w - mean_acov) / var_hat
    rho[0] = 1.0

    tau = 0.0
    k = 0
    while 2 * k + 1 < t:
        pair = rho[2 * k] + rho[2 * k + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
        k += 1
    tau = max(tau - 1.0, 1e-8)
    return float(c * t / tau)


def roundoff_grid_hits(log_accept_ratios) -> int:
    """Number of finite, moderate log accept ratios sitting exactly on the
    quarter-integer grid, the residue large cancelled float totals leave
    behind. Healthy double-precision ratios land there with probability about
    zero; a large share of hits means the accept statistics are quantization
    artifacts."""
    r = np.asarray(log_accept_ratios, dtype=np.float64)
    # |r| < limit is false at NaN and +-inf, so q is finite and 4r cannot overflow
    q = 4.0 * r[np.abs(r) < ROUNDOFF_ABS_LIMIT]
    q -= np.round(q)
    return int(np.count_nonzero(np.abs(q, out=q) < ROUNDOFF_QUARTER_TOL))


def harmonic_mean_acceptance(probs) -> float:
    """Harmonic mean of acceptance probabilities: n / sum(1/p).

    Dominated by the worst member, which is the point: one stuck chain in a
    lockstep batch should drag the shared step size down."""
    p = np.asarray(probs, dtype=np.float64).ravel()
    if p.size == 0:
        raise ValueError("no acceptance probabilities given")
    if np.any(p <= 0.0) or np.any(p > 1.0):
        raise ValueError("acceptance probabilities must lie in (0, 1]")
    return _harmonic_mean(p)


def _harmonic_mean(p) -> float:
    """n / sum(1/p) of a 1-D float64 array of probabilities in (0, 1]."""
    return float(p.size / (1.0 / p).sum())


def harmonic_accept(log_accept_ratios) -> float:
    """One iteration's harmonic mean acceptance from its (C,) log accept
    ratios. accept_probs_from_ratios puts every probability in [1e-10, 1],
    so nothing is checked again."""
    return _harmonic_mean(accept_probs_from_ratios(log_accept_ratios))


@dataclass
class DiagnosticsReport:
    """Run-level diagnostics. rhat and ess are per unconstrained dimension;
    ess is None when only streaming moments were retained. ess_tau is the
    ESS of the constrained global scale for the regression target, None
    elsewhere."""

    rhat: list[float]
    ess: list[float] | None
    ess_tau: float | None
    esjd: float
    chees: float
    mean_accept_harmonic: float
    roundoff_flag_fraction: float


def accept_probs_from_ratios(log_accept_ratios) -> np.ndarray:
    """Per-draw acceptance probabilities exp(min(0, ratio)), floored at 1e-10
    so a hopeless chain still has a finite harmonic-mean contribution."""
    r = np.asarray(log_accept_ratios, dtype=np.float64)
    p = np.exp(np.minimum(r, 0.0))  # at most 1 already
    return np.maximum(p, 1e-10, out=p)


class RunStatistics:
    """Streams the statistics taken over transitions, for both retentions:
    ESJD, ChEES, the mean harmonic accept and the roundoff grid count.

    ChEES is centred on the final cross-chain mean, unknown while draws
    stream in, so each transition's change in squared distance a is taken
    about a fixed anchor (the first iteration's cross-chain mean) along with
    its jump j, and sum(a^2), sum(a j) and sum(j j^T) are kept. Moving the
    centre by d shifts a by -2 d.j, so at report time
    sum((a - 2 d.j)^2) = sum(a^2) - 4 d.sum(a j) + 4 d^T sum(j j^T) d.
    ESJD is trace(sum(j j^T)) over the (T - 1) C jumps. Memory is O(P^2).
    """

    def __init__(self):
        self._steps = 0
        self._prev = None  # the last iteration's draws

    def update(self, z, log_accept_ratio):
        """Fold in one iteration's (C, P) draws and (C,) log accept ratios."""
        z = np.asarray(z, dtype=np.float64)
        r = np.asarray(log_accept_ratio, dtype=np.float64)
        if z.ndim != 2 or r.shape != z.shape[:1]:
            raise ValueError(f"need (C, P) draws and (C,) ratios, got {z.shape} and {r.shape}")
        if self._prev is None:
            p = z.shape[1]
            self._anchor = z.mean(axis=0)
            self._draw_sum, self._aj, self._jj = np.zeros(p), np.zeros(p), np.zeros((p, p))
            self._aa, self._harmonic_sum, self._grid_hits = 0.0, 0.0, 0
        elif z.shape != self._prev.shape:
            raise ValueError(f"draws changed shape from {self._prev.shape} to {z.shape}")
        centred = z - self._anchor
        sq = np.add.reduce(np.square(centred, out=centred), axis=1)
        if self._steps:
            jump = z - self._prev
            a = sq - self._prev_sq
            self._aa += float(a @ a)
            self._aj += a @ jump
            self._jj += jump.T @ jump
        self._prev, self._prev_sq = z, sq
        self._draw_sum += np.add.reduce(z, axis=0)
        self._harmonic_sum += harmonic_accept(r)
        self._grid_hits += roundoff_grid_hits(r)
        self._steps += 1

    def report(self, rhat, ess=None, ess_tau=None) -> DiagnosticsReport:
        """The folded run's report, carrying the given R-hat and ESS fields.
        mean_accept_harmonic averages each iteration's harmonic mean across
        chains: pooling 1/p over the run would let one deep rejection dominate."""
        if self._steps < 2:
            raise ValueError(f"need at least 2 iterations, have {self._steps}")
        t, c = self._steps, self._prev.shape[0]
        d = self._draw_sum / (t * c) - self._anchor
        sq_sum = self._aa - 4.0 * (d @ self._aj) + 4.0 * (d @ self._jj @ d)
        return DiagnosticsReport(
            rhat=[float(v) for v in rhat],
            ess=ess,
            ess_tau=ess_tau,
            esjd=float(np.trace(self._jj)) / ((t - 1) * c),
            chees=float(0.25 * sq_sum) / ((t - 1) * c),
            mean_accept_harmonic=self._harmonic_sum / t,
            roundoff_flag_fraction=self._grid_hits / (t * c),
        )


def report_from_trace(z_trace, log_accept_ratios, tau_trace=None) -> DiagnosticsReport:
    """Build the full report from retained draws.

    z_trace is (T, C, P) post-warmup unconstrained draws, log_accept_ratios
    is (T, C); tau_trace, when given, is (T, C) constrained tau draws. Rows
    fold through RunStatistics as MomentsSink folds its stream: same bits.
    """
    z = np.asarray(z_trace, dtype=np.float64)
    if z.ndim != 3:
        raise ValueError(f"z_trace must be (T, C, P), got shape {z.shape}")
    t, _, p = z.shape
    if t < 8:
        raise ValueError(f"need at least 8 retained draws, got {t}")
    stats = RunStatistics()
    for zi, ri in zip(z, log_accept_ratios, strict=True):
        stats.update(zi, ri)
    return stats.report(
        rhat=[split_rhat(z[:, :, d]) for d in range(p)],
        ess=[ess(z[:, :, d]) for d in range(p)],
        ess_tau=None if tau_trace is None else ess(tau_trace),
    )
