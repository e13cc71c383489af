"""Reference computations the correctness checks compare manychain against.

They are written from the model's and the estimators' definitions, apart
from manychain's own code: the density goes through scipy's distributions
instead of manychain's collapsed prior terms and logaddexp, and the mixing
diagnostics use plain per-lag sums instead of FFTs and Chan merges.
"""

from __future__ import annotations

import numpy as np
from scipy import stats
from scipy.special import log_expit

GAMMA_SHAPE = 0.5
GAMMA_RATE = 0.5


def log_density_terms(z, x, y, shape=GAMMA_SHAPE, rate=GAMMA_RATE):
    """Every additive term of the unconstrained log density, in float64.

    z is (C, P) with P = 1 + 2D: [log tau, log lamb (D), beta (D)]. The
    scales carry Gamma(shape, rate) priors, moved to log scale by adding the
    log-Jacobian u; beta is standard normal; each label is Bernoulli with
    logit x @ (tau * lamb * beta). Returns a (C, 1 + 2D + N) array.
    """
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    d = x.shape[1]
    u_tau, u_lamb, beta = z[:, :1], z[:, 1 : 1 + d], z[:, 1 + d :]
    gamma = stats.gamma(shape, scale=1.0 / rate)
    scales = np.concatenate([u_tau, u_lamb], axis=1)
    prior_scales = gamma.logpdf(np.exp(scales)) + scales
    prior_beta = stats.norm.logpdf(beta)
    logits = (np.exp(u_tau) * np.exp(u_lamb) * beta) @ x.T
    obs = y * log_expit(logits) + (1.0 - y) * log_expit(-logits)
    return np.concatenate([prior_scales, prior_beta, obs], axis=1)


def log_density(z, x, y):
    """(C,) unconstrained log density and (C,) sum of the terms' magnitudes,
    the scale a rounding error in the total is measured against."""
    terms = log_density_terms(z, x, y)
    return terms.sum(axis=1), np.abs(terms).sum(axis=1)


def split_rhat(draws) -> float:
    """Split R-hat of a (T, C) trace: each chain's first and second T // 2
    draws are two sequences (a middle draw of odd T is dropped)."""
    draws = np.asarray(draws, dtype=np.float64)
    n = draws.shape[0] // 2
    seqs = [draws[:n, c] for c in range(draws.shape[1])]
    seqs += [draws[n : 2 * n, c] for c in range(draws.shape[1])]
    means = np.array([s.mean() for s in seqs])
    within = np.mean([((s - s.mean()) ** 2).sum() / (n - 1) for s in seqs])
    between = n * ((means - means.mean()) ** 2).sum() / (len(seqs) - 1)
    var_plus = (n - 1) / n * within + between / n
    return float(np.sqrt(var_plus / within))


def ess(draws) -> float:
    """Multi-chain ESS of a (T, C) trace with Geyer's initial positive pairs.

    rho_k = 1 - (W - mean_c acov_c(k)) / var_plus, with acov_c(k) the biased
    lag-k autocovariance of chain c, W the mean within-chain variance and
    var_plus = W (T - 1) / T + var(chain means). Lag pairs are summed while
    their sum stays positive; ESS = C T / (2 * sum(pairs) - 1).
    """
    draws = np.asarray(draws, dtype=np.float64)
    t, c = draws.shape
    centred = draws - draws.mean(axis=0)
    w = ((centred**2).sum(axis=0) / (t - 1)).mean()
    var_plus = w * (t - 1) / t
    if c > 1:
        var_plus += draws.mean(axis=0).var(ddof=1)

    def rho(k):
        acov = (centred[: t - k] * centred[k:]).sum(axis=0) / t
        return 1.0 - (w - acov.mean()) / var_plus

    total = 0.0
    k = 0
    while 2 * k + 1 < t:
        pair = (1.0 if k == 0 else rho(2 * k)) + rho(2 * k + 1)
        if pair <= 0.0:
            break
        total += pair
        k += 1
    tau = max(2.0 * total - 1.0, 1e-8)
    return float(c * t / tau)
