"""Sparse Bayesian logistic regression target and its unconstrained form.

The model places Gamma(shape, rate) priors on a global scale tau and
per-feature scales lamb, a standard normal prior on raw weights beta, and a
Bernoulli likelihood on logits x @ (tau * lamb * beta). Sampling happens in
an unconstrained vector

    z = [u_tau, u_lamb (D entries), beta (D entries)],  P = 1 + 2D

with tau = exp(u_tau), lamb = exp(u_lamb) and the log-det-Jacobian
u_tau + sum(u_lamb) folded into the unconstrained density.

All density code is batched: a state is either a (P,) vector or a (C, P)
matrix of C chain states, and results come back scalar or (C,) to match.
Bernoulli terms take the margin m = sign * logit (sign = 2y - 1), one
product per block of states, and a gradient takes a second, the residuals
back through the design matrix: log p(y | logit) = min(m, 0) -
log1p(exp(-|m|)), and the gradient residual y - sigmoid(logit) =
sign / (1 + exp(m)).

ModelTarget holds the signed design matrix xs = sign * x in two row-major
layouts, (N, D) and a (D, N) copy of its transpose, and runs a block of b
states as an (N, b) panel, so both products read row-major operands in the
orientation their BLAS kernels run fastest: the margins panel is
xs @ coefs.T, from a (D, C) copy of the coefficients taken once per
evaluation, and the residual product xs.T @ residuals writes the block's
columns of a (D, C) gradient.

A target (ModelTarget, GaussianTarget) supplies dim, param_names() and one
hook, evaluate(zb, value, grad): the one evaluation, unchecked, of a (C, P)
batch at the target's dtype, where a non-finite row gets a non-finite value
and touches no other row. The sampler calls it inside its own np.errstate,
for the gradient alone at interior leapfrog steps (the gradient code exists
once, so it is bitwise the gradient of a value-and-gradient evaluation).
The base class Target writes the checked API on it once (log_prob,
value_and_grad, log_prob_ratio), which rejects non-finite states.

Every density value is accumulated in float64, at either working precision:
each term is computed at the working width and summed into a float64 total
(Higham 2002, ch. 4). In single precision each term keeps its own float32
rounding, but the sum adds only float64 rounding, about 2**-53 of the
total per addition, so the difference of two totals past 2**24 keeps the
small ratio that a float32 total (spacing 2 or more there) would round
away. log_prob_ratio, and the sampler's accept ratio, are that float64
difference. Gradients stay at the working precision.

A (C, P) batch evaluates as a whole except for the per-observation (C, N)
pipeline, which runs block_rows rows at a time from row 0, so every row of
a batch is bitwise that row of its block evaluated alone. A block is sized
in bytes, BLOCK_BYTES of each observation's panel row: 16 rows in float64
and 32 in float32. The blocks do not make a row independent of C: a
product with fewer rows (the last block, when C is not a multiple of
block_rows) may round a row differently from a full block, so a chain's
bits can change with the number of chains beside it. This is also the one
place threads act: ModelTarget(threads=T) hands contiguous groups of the
blocks to at most T workers, the calling thread and T - 1 pool workers,
and each group writes its own rows, so no row's bits depend on T. Each
thread writes its blocks' margins, residuals and terms into two (N,
block_rows) scratch panels of its own, allocated on its first evaluation,
and sums each block's terms panel by columns into the block's rows of the
float64 total, with one gemv against a ones vector (in single precision
from a float64 copy of the panel, a third scratch panel). A warm
evaluation allocates only its outputs and its (C, .) arrays.
"""

from __future__ import annotations

import csv
import functools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, gammaln

from .prng import RandomKey, normal, split, uniform

_LOG_2PI = math.log(2.0 * math.pi)

# bytes of each observation's panel row per block: 16 float64 rows, 32
# float32; fixed per dtype so no row's bits depend on how threads group blocks
BLOCK_BYTES = 128

# shape and rate of the Gamma prior on tau and on every lamb
GAMMA_SHAPE = 0.5
GAMMA_RATE = 0.5


class DatasetError(ValueError):
    """Raised for malformed dataset files or invalid dataset arrays."""


@dataclass
class Dataset:
    """Design matrix x (N, D) and binary labels y (N,).

    true_coef is only populated by the synthetic generator, for checking
    recovery; loaders leave it None.
    """

    x: np.ndarray
    y: np.ndarray
    true_coef: np.ndarray | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.x.ndim != 2:
            raise DatasetError(f"x must be 2-dimensional, got shape {self.x.shape}")
        n, d = self.x.shape
        if n < 1 or d < 1:
            raise DatasetError(f"need at least one row and one feature, got {self.x.shape}")
        if self.y.shape != (n,):
            raise DatasetError(f"y must have shape ({n},), got {self.y.shape}")
        if not np.all(np.isfinite(self.x)):
            raise DatasetError("x contains non-finite values")
        if not np.all((self.y == 0.0) | (self.y == 1.0)):
            raise DatasetError("labels must be 0 or 1")

    @property
    def num_rows(self) -> int:
        return self.x.shape[0]

    @property
    def num_features(self) -> int:
        return self.x.shape[1]


@dataclass
class ConstrainedParams:
    """Model parameters on their natural scales."""

    tau: np.ndarray
    lamb: np.ndarray
    beta: np.ndarray


def load_csv_dataset(path) -> Dataset:
    """Load a dataset from CSV: header row, feature columns, last column label.

    Errors carry 1-based row and column positions. Features are
    standardized (centered, scaled by population std); constant columns
    become all zeros rather than dividing by zero.
    """
    try:
        fh = open(path, newline="")
    except OSError as e:
        raise DatasetError(f"cannot open dataset file {path}: {e}") from e
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: file is empty, expected a header row") from None
        ncol = len(header)
        if ncol < 2:
            raise DatasetError(f"{path}: need at least one feature column and a label column")
        rows, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != ncol:
                raise DatasetError(
                    f"{path}: row {lineno}: expected {ncol} columns, found {len(row)}"
                )
            vals = []
            for colno, cell in enumerate(row, start=1):
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise DatasetError(
                        f"{path}: row {lineno}, column {colno}: "
                        f"could not parse {cell!r} as a number"
                    ) from None
            if not all(math.isfinite(v) for v in vals):
                raise DatasetError(f"{path}: row {lineno}: non-finite value")
            if vals[-1] not in (0.0, 1.0):
                raise DatasetError(
                    f"{path}: row {lineno}: label must be 0 or 1, got {row[-1]!r}"
                )
            rows.append(vals[:-1])
            labels.append(vals[-1])
    if not rows:
        raise DatasetError(f"{path}: no data rows after the header")
    x = np.array(rows, dtype=np.float64)
    std = x.std(axis=0)
    x = x - x.mean(axis=0)
    nz = std > 0.0
    x[:, nz] /= std[nz]
    return Dataset(x, labels)


def generate_synthetic(
    key: RandomKey, num_rows: int, num_features: int, sparsity: float
) -> Dataset:
    """Draw a synthetic classification dataset from the model family.

    Features are iid standard normal. ceil(sparsity * num_features) true
    coefficients are +-2 on a random support, the rest zero; labels are
    Bernoulli draws from the implied logits. Deterministic in key.
    """
    if num_rows < 1 or num_features < 1:
        raise ValueError("num_rows and num_features must be positive")
    if not (0.0 <= sparsity <= 1.0):
        raise ValueError(f"sparsity must be in [0, 1], got {sparsity}")
    k_x, k_support, k_sign, k_label = split(key, 4)
    x = normal(k_x, [num_rows, num_features])
    nnz = math.ceil(sparsity * num_features)
    order = np.argsort(uniform(k_support, [num_features]), kind="stable")
    coef = np.zeros(num_features)
    if nnz > 0:
        signs = np.where(np.asarray(uniform(k_sign, [nnz])) < 0.5, -2.0, 2.0)
        coef[order[:nnz]] = signs
    p = expit(x @ coef)
    y = (np.asarray(uniform(k_label, [num_rows])) < p).astype(np.float64)
    return Dataset(x, y, true_coef=coef)


def replicate_dataset(dataset: Dataset, k: int) -> Dataset:
    """Stack k copies of every row. Used to push log densities to magnitudes
    where single precision visibly breaks."""
    if k < 1:
        raise ValueError(f"replication factor must be >= 1, got {k}")
    return Dataset(
        np.tile(dataset.x, (k, 1)),
        np.tile(dataset.y, k),
        true_coef=dataset.true_coef,
    )


def constrain(z) -> tuple[ConstrainedParams, np.ndarray]:
    """Map unconstrained z to natural parameters plus log-det-Jacobian.

    Works on a (P,) state or a (C, P) batch; P must be odd (1 + 2D).
    """
    z = np.asarray(z, dtype=np.float64)
    zb, single = _as_batch(z)
    d = _num_features_from_dim(zb.shape[1])
    u_tau, u_lamb, beta = zb[:, 0], zb[:, 1 : 1 + d], zb[:, 1 + d :]
    tau = np.exp(u_tau)
    lamb = np.exp(u_lamb)
    ldj = u_tau + u_lamb.sum(axis=1)
    if single:
        return ConstrainedParams(tau[0], lamb[0], beta[0]), ldj[0]
    return ConstrainedParams(tau, lamb, beta), ldj


def _num_features_from_dim(p: int) -> int:
    if p < 3 or p % 2 == 0:
        raise ValueError(f"state dimension must be odd and >= 3, got {p}")
    return (p - 1) // 2


def _as_batch(z) -> tuple[np.ndarray, bool]:
    if z.ndim == 1:
        return z[None, :], True
    if z.ndim == 2:
        return z, False
    raise ValueError(f"state must be 1- or 2-dimensional, got shape {z.shape}")


def _bernoulli_terms(margins, out=None, scratch=None):
    """log p(y | logit) at margins m = sign * logit: <= 0, NaN only for NaN m.

    Given scratch, an array of margins' shape, nothing is allocated:
    scratch ends up holding log1p(exp(-|m|)) and margins min(m, 0).
    """
    soft = np.abs(margins, out=scratch)
    np.negative(soft, out=soft)
    np.exp(soft, out=soft)
    np.log1p(soft, out=soft)
    hard = np.minimum(margins, 0, out=None if scratch is None else margins)
    return np.subtract(hard, soft, out=out)


@functools.cache
def _blocks(num_rows: int, block_rows: int) -> tuple[slice, ...]:
    """Row slices of block_rows rows from row 0; the last may be shorter."""
    return tuple(slice(lo, min(lo + block_rows, num_rows))
                 for lo in range(0, num_rows, block_rows))


@functools.cache
def _pool(threads: int) -> ThreadPoolExecutor:
    """The process's threads - 1 helper workers for ModelTarget(threads=...).
    numpy's error state is per thread, so each worker silences overflow and
    invalid once, as evaluate's caller does on its own thread."""
    return ThreadPoolExecutor(
        threads - 1, initializer=functools.partial(np.seterr, over="ignore", invalid="ignore")
    )


def _sign_residuals(margins, out=None):
    """sign * (y - sigmoid(logit)), exactly 0 where exp(m) overflows;
    computed in out when given."""
    res = np.exp(margins, out=out)
    res += 1
    return np.divide(1, res, out=res)


class Target:
    """A batched log density over an unconstrained state of dim entries.

    A subclass sets dim and supplies param_names() and the one hook,
    evaluate. The checked API (log_prob, value_and_grad, log_prob_ratio)
    is written once here on top of it.

    precision selects the arithmetic width of every density and gradient
    evaluation ("double" or "single"); density values are float64 totals
    at either width.
    """

    def __init__(self, precision: str = "double"):
        if precision not in ("single", "double"):
            raise ValueError(f"precision must be 'single' or 'double', got {precision!r}")
        self.precision = precision
        self.dtype = np.float32 if precision == "single" else np.float64

    def evaluate(self, zb, value: bool, grad: bool):
        """(value or None, grad or None), the (C,) float64 log density and
        the (C, dim) gradient as asked. Unchecked: zb must be a (C, dim)
        array of self.dtype, and the caller silences overflow and invalid.
        A row with a non-finite entry gets a non-finite value (its gradient
        is unspecified) and changes no other row's bits."""
        raise NotImplementedError

    def _checked(self, z, value: bool, grad: bool):
        """evaluate on a (P,) state or (C, P) batch, cast, scanned for
        finiteness and checked; a (P,) state's results come back unbatched."""
        z = np.asarray(z, dtype=self.dtype)
        if not np.isfinite(z).all():
            raise ValueError("state contains non-finite entries")
        zb, single = _as_batch(z)
        if zb.shape[1] != self.dim:
            raise ValueError(f"state must have {self.dim} entries, got {zb.shape[1]}")
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.evaluate(zb, value, grad)
        return tuple(None if a is None else a[0] for a in out) if single else out

    def log_prob(self, z):
        """Float64 log density of a (P,) state, or of every row of a (C, P)
        batch."""
        return self._checked(z, True, False)[0]

    def value_and_grad(self, z):
        """Log density and its analytic gradient, one shared evaluation.

        The value is computed through exactly the same operations as
        log_prob, so the two agree bit for bit.
        """
        return self._checked(z, True, True)

    def log_prob_ratio(self, z_new, z_old):
        """log p(z_new) - log p(z_old), the difference of two float64 totals.

        Two (P,) states give a scalar, two (C, P) batches a (C,) array.
        A dead state (log density -inf) gives -inf as the new state and
        +inf as the old one; two dead states give -inf. The ratio of a state
        with itself is exactly 0.0.
        """
        new, old = self.log_prob(z_new), self.log_prob(z_old)
        if np.shape(new) != np.shape(old):
            raise ValueError(f"state shapes differ: {np.shape(z_new)} vs {np.shape(z_old)}")
        # -inf - -inf, between two dead states, is NaN until the where masks it
        with np.errstate(invalid="ignore"):
            return np.where(np.isneginf(new), -np.inf, new - old)[()]


class ModelTarget(Target):
    """Sparse logistic regression posterior over the unconstrained state.

    Data are stored at the precision's width. threads spreads the
    per-observation pipeline's row blocks over that many workers; the
    results do not depend on it. Every thread that evaluates keeps its own
    scratch panels, so one target may be evaluated from several threads
    at once.
    """

    def __init__(self, dataset: Dataset, precision: str = "double", threads: int = 1):
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        super().__init__(precision)
        self.dataset = dataset
        self.threads = threads
        # rows of x times sign = 2y - 1 (exact), so one matmul gives margins
        self._xs = np.ascontiguousarray(
            dataset.x * (2.0 * dataset.y - 1.0)[:, None], dtype=self.dtype
        )
        # its transpose, row-major (D, N), for the residual product
        self._xs_t = np.ascontiguousarray(self._xs.T)
        self.num_features = dataset.num_features
        self.dim = 1 + 2 * self.num_features
        # log normalizer of the Gamma prior, one rounding into working dtype
        self._gamma_const = self.dtype(
            GAMMA_SHAPE * math.log(GAMMA_RATE) - gammaln(GAMMA_SHAPE)
        )
        self._normal_const = self.dtype(-0.5 * _LOG_2PI)
        self._gamma_a, self._gamma_r = self.dtype(GAMMA_SHAPE), self.dtype(GAMMA_RATE)
        self._half = self.dtype(0.5)
        self.block_rows = BLOCK_BYTES // self._xs.itemsize
        self._ones = np.ones(len(self._xs))  # sums a float64 terms panel by columns
        self._scratch = threading.local()

    def _panels(self):
        """This thread's (N, b) views of its scratch panels, indexed by block
        width b: (margins, work, wide). wide holds the float64 terms the
        block sums: work itself in double precision, a third panel in
        single. The panels are allocated on the thread's first call."""
        try:
            return self._scratch.panels
        except AttributeError:
            n, rows = len(self._xs), self.block_rows
            margins, work = np.empty((2, n * rows), dtype=self.dtype)
            wide = work if self.dtype == np.float64 else np.empty(n * rows)
            panels = [None] + [tuple(buf[: n * b].reshape(n, b) for buf in (margins, work, wide))
                               for b in range(1, rows + 1)]
            self._scratch.panels = panels
            return panels

    def param_names(self) -> list[str]:
        d = self.num_features
        return ["u_tau"] + [f"u_lamb_{j}" for j in range(d)] + [f"beta_{j}" for j in range(d)]

    def evaluate(self, zb, value: bool, grad: bool):
        """The one evaluation (see Target.evaluate).

        value is the (C,) float64 log density: the prior terms of u_tau,
        u_lamb (D) and beta (D), and the N Bernoulli terms, each at the
        working precision and summed in float64. Gamma(a, r) on v = exp(u)
        plus the du contribution collapses to a*log r - lgamma(a) + a*u -
        r*exp(u), which stays -inf (never NaN or +inf) as u walks off either
        end of the line; a state whose prior is not finite is dead, -inf.
        grad is the analytic gradient.

        The per-observation pipeline (margins, Bernoulli terms, residuals
        times x) runs block by block, each block of b states as an (N, b)
        panel that stays in cache: margins xs @ coefs.T, the residual
        product xs.T @ residuals into the block's columns of a (D, C)
        gradient, and the terms panel's column sums, ones @ terms in
        float64, into the block's rows of the likelihood total. The margins,
        the residuals and the terms are written into the evaluating thread's
        scratch panels, never into fresh arrays.
        """
        c, d = len(zb), self.num_features
        # u = [u_tau, u_lamb], the log scales, adjacent in the state
        u, beta = zb[:, : 1 + d], zb[:, 1 + d :]
        a, r = self._gamma_a, self._gamma_r
        total = np.empty(c) if value else None
        g_t = np.empty((d, c), dtype=self.dtype) if grad else None
        out = None
        # overflow to inf is fine, and the caller silences it: an overflowed
        # scale is dead by prior and the whole state is masked
        scale = np.exp(u[:, :1] + u[:, 1:])  # tau * lamb in one exp
        coefs = scale * beta
        coefs_t = np.ascontiguousarray(coefs.T)  # (D, C): a block is its columns
        exp_u = np.exp(u)  # [tau, lamb], shared by the terms and the gradient

        def pipeline(blocks):
            panels = self._panels()
            for rows in blocks:
                margins, work, wide = panels[rows.stop - rows.start]
                np.matmul(self._xs, coefs_t[:, rows], out=margins)
                if grad:
                    np.matmul(self._xs_t, _sign_residuals(margins, out=work),
                              out=g_t[:, rows])
                if value:  # last: it overwrites the margins
                    _bernoulli_terms(margins, out=work, scratch=work)
                    if wide is not work:
                        np.copyto(wide, work)
                    np.matmul(self._ones, wide, out=total[rows])

        blocks = _blocks(c, self.block_rows)
        # blocks per group; 1 for an empty batch, so the range step is positive
        share = -(-len(blocks) // self.threads) or 1
        jobs = [_pool(self.threads).submit(pipeline, blocks[lo : lo + share])
                for lo in range(share, len(blocks), share)]
        pipeline(blocks[:share])
        for job in jobs:
            job.result()
        if value:
            prior_terms = np.empty_like(zb)
            prior_terms[:, : 1 + d] = self._gamma_const + a * u - r * exp_u
            prior_terms[:, 1 + d :] = self._normal_const - self._half * beta * beta
            prior = prior_terms.sum(axis=1, dtype=np.float64)
            total += prior
            # a scale that overflowed exp() is dead by prior; never report NaN
            total[~np.isfinite(prior)] = -np.inf
        if grad:
            g = g_t.T
            coefs_g = np.multiply(coefs, g, out=coefs)
            out = np.empty_like(zb)
            head, tail = out[:, : 1 + d], out[:, 1 + d :]
            np.subtract(a, np.multiply(r, exp_u, out=head), out=head)
            out[:, 0] += coefs_g.sum(axis=1)
            out[:, 1 : 1 + d] += coefs_g
            np.multiply(scale, g, out=tail)
            tail -= beta
        return total, out


def joint_log_prob(target: ModelTarget, params: ConstrainedParams):
    """Log joint density at natural-scale parameters (no Jacobian term).

    Reference constrained-space evaluation: Gamma priors on tau and lamb,
    standard normal on beta, logit-space Bernoulli likelihood. Unlike
    log_prob it sums at the target's working precision, which makes it the
    naive float32 total precision-demo sets against the sampler's ratio.
    """
    tau = np.asarray(params.tau, dtype=target.dtype)
    lamb = np.asarray(params.lamb, dtype=target.dtype)
    beta = np.asarray(params.beta, dtype=target.dtype)
    single = lamb.ndim == 1
    if single:
        tau, lamb, beta = tau[None], lamb[None, :], beta[None, :]
    if np.any(tau <= 0) or np.any(lamb <= 0):
        raise ValueError("tau and lamb must be strictly positive")
    a, r = target.dtype(GAMMA_SHAPE), target.dtype(GAMMA_RATE)
    one = target.dtype(1.0)
    t_tau = target._gamma_const + (a - one) * np.log(tau) - r * tau
    t_lamb = target._gamma_const + (a - one) * np.log(lamb) - r * lamb
    t_beta = target._normal_const - target.dtype(0.5) * beta * beta
    coefs = tau[:, None] * lamb * beta
    t_obs = _bernoulli_terms(coefs @ target._xs.T)
    total = t_tau + t_lamb.sum(axis=1) + t_beta.sum(axis=1) + t_obs.sum(axis=1)
    return total[0] if single else total


class GaussianTarget(Target):
    """Standard normal in P dimensions. Test and benchmark harness."""

    def __init__(self, dim: int, precision: str = "double"):
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
        super().__init__(precision)
        self.dim = dim
        self._const = -0.5 * dim * _LOG_2PI

    def param_names(self) -> list[str]:
        return [f"z{j}" for j in range(self.dim)]

    def evaluate(self, zb, value: bool, grad: bool):
        total = (self._const + (self.dtype(-0.5) * zb * zb).sum(axis=1, dtype=np.float64)
                 if value else None)
        return total, -zb if grad else None
