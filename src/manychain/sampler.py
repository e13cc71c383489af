"""Lockstep multi-chain Hamiltonian Monte Carlo.

All chains live in one structure-of-arrays batch: states are a (C, P)
matrix, densities and gradients evaluate for every chain in the same
vectorized call, and every chain runs the same number of leapfrog steps per
iteration. Trajectory-length jitter is drawn ONCE per iteration from a
dedicated key stream shared by all chains; per-chain jitter would break the
lockstep execution shape (and quietly serialize a vectorized batch), so
hmc_step hard-fails if it is handed per-chain lengths that disagree.

One transition, one loop: hmc_step is the only HMC transition and
run_chains the only iteration loop. The sampling pass, the three warmup
phases and precision-demo go through both, each a run_chains call with a
sink of its own.

Randomness per iteration comes from one schedule, iteration_keys: the run's
root key splits into a step root and a jitter root, and iteration t takes
child t of each, derived as the loop reaches it. No per-chain key is
derived: one read of the step key's draw stream (prng.normal_uniform_each)
serves every chain, laid out chain by chain, so chain c takes words c(P + 1)
to c(P + 1) + P, its momentum and then its accept uniform. A chain's draws
therefore do not depend on how many chains run beside it.

Each iteration integrates the whole batch as one array program: hmc_step
runs _leapfrog and its evaluations once over all C chains. Runs are
bitwise reproducible from (seed, config): no row's arithmetic depends on
the other rows' values, and every cross-chain reduction happens in a fixed
order. Parallel work, where a target has any, lives in its batch
evaluation (ModelTarget's threads), which keeps each row's bits.

The loop evaluates only through the target's unchecked hook,
target.evaluate: hmc_step checks the batch's dtype and width once per
iteration, _eval scans each state once for finiteness, and one np.errstate
covers a trajectory. The checked API is for callers outside the loop.

Interior leapfrog steps evaluate only the gradient; the density value is
evaluated once per trajectory, at its endpoint. The log accept ratio is the
difference of two float64 energies, kinetic energy minus the target's
float64 log density, so at either working precision a small ratio survives
a log density far past 2**24 (see model). Rejected chains keep their cached
density value and gradient; a non-finite proposal density, coordinate, or
ratio forces rejection through a -inf log accept ratio rather than
poisoning the batch with NaNs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice
from time import perf_counter

import numpy as np

from . import diagnostics as diag
from .prng import RandomKey, children, normal_uniform_each, randint, split

# warmup step-size controller: harmonic accept it steers to, and its gain
TARGET_ACCEPT = 0.8
LEARNING_RATE = 0.05


class LockstepViolationError(RuntimeError):
    """Chains were asked to integrate different trajectory lengths."""


@dataclass
class HmcConfig:
    """Static sampler settings.

    step_size may be 0 (degenerate identity dynamics, occasionally useful
    to isolate the accept path); it must not be negative. mass_diag is a
    per-dimension mass vector (1/posterior variance scale); None means
    identity. The working precision is always the target's.
    """

    step_size: float
    num_leapfrog_steps: int
    jitter: bool = True
    mass_diag: np.ndarray | None = None

    def __post_init__(self):
        if not (self.step_size >= 0.0 and math.isfinite(self.step_size)):
            raise ValueError(f"step_size must be finite and >= 0, got {self.step_size}")
        if int(self.num_leapfrog_steps) != self.num_leapfrog_steps or self.num_leapfrog_steps < 1:
            raise ValueError(
                f"num_leapfrog_steps must be a positive integer, got {self.num_leapfrog_steps}"
            )
        self.num_leapfrog_steps = int(self.num_leapfrog_steps)
        if self.mass_diag is not None:
            m = np.asarray(self.mass_diag, dtype=np.float64)
            if m.ndim != 1 or not np.all(np.isfinite(m)) or np.any(m <= 0.0):
                raise ValueError("mass_diag must be a 1-D vector of positive finite reals")
            self.mass_diag = m


@dataclass
class ChainBatch:
    """C chain states at the working precision, with their cached float64
    log density values and working-precision gradients."""

    z: np.ndarray  # (C, P)
    value: np.ndarray  # (C,) float64
    grad: np.ndarray  # (C, P)

    def __post_init__(self):
        if len(self.z) == 0:
            raise ValueError("the batch holds no chains")

    @classmethod
    def init(cls, target, z_init) -> "ChainBatch":
        z = np.array(z_init, dtype=target.dtype)
        if z.ndim != 2:
            raise ValueError(f"z_init must be (chains, dim), got shape {z.shape}")
        value, grad = target.value_and_grad(z)
        if not np.all(np.isfinite(value)):
            raise ValueError("initial states have non-finite log density")
        return cls(z, value, grad)

    @property
    def num_chains(self) -> int:
        return self.z.shape[0]


@dataclass
class StepOutput:
    """One iteration's result: post-accept states, the trajectory endpoints
    proposed before the accept select, accept flags, log accept ratios, and
    the single trajectory length every chain executed."""

    z: np.ndarray  # (C, P)
    proposal: np.ndarray  # (C, P)
    is_accepted: np.ndarray  # (C,) bool
    log_accept_ratio: np.ndarray  # (C,)
    num_leapfrog_used: int


def leapfrog_step(target, step_size, z, m, grad, mass_diag=None, num_steps=1):
    """num_steps leapfrog updates, each a half momentum kick, a position
    drift by m / mass and a half kick. Returns (z, m, value, grad) at the
    end of the last update."""
    if num_steps < 1:
        raise ValueError(f"num_steps must be >= 1, got {num_steps}")
    dtype = target.dtype
    z, m, grad = (np.asarray(a, dtype=dtype) for a in (z, m, grad))
    single = z.ndim == 1
    if single:
        z, m, grad = z[None, :], m[None, :], grad[None, :]
    if z.shape[1] != target.dim:
        raise ValueError(f"state must have {target.dim} entries, got {z.shape[1]}")
    inv_mass = None if mass_diag is None else (1.0 / np.asarray(mass_diag)).astype(dtype)
    out = _leapfrog(target, dtype(step_size), num_steps, z, m, grad, inv_mass)
    return tuple(a[0] for a in out) if single else out


def _leapfrog(target, eps, num_steps, z, m, grad, inv_mass):
    """Integrate num_steps >= 1 leapfrog updates. Interior steps need only
    the gradient; the density value is evaluated once, at the endpoint.
    Returns (z, m, value, grad)."""
    half = eps * z.dtype.type(0.5)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for step in range(num_steps, 0, -1):
            m = m + half * grad
            z = z + eps * (m if inv_mass is None else m * inv_mass)
            value, grad = _eval(target, z, value=step == 1)
            m = m + half * grad
    return z, m, value, grad


def _eval(target, z, value):
    """target.evaluate(z, value, True) that tolerates non-finite states
    mid-trajectory: a dead row is evaluated at the origin instead and comes
    back with value -inf and gradient NaN. A finite batch costs this one
    whole-array scan; only a batch that fails it is scanned row by row."""
    if np.isfinite(z).all():
        return target.evaluate(z, value, True)
    dead = ~np.isfinite(z).all(axis=1)
    value, grad = target.evaluate(np.where(dead[:, None], z.dtype.type(0.0), z), value, True)
    value = None if value is None else np.where(dead, z.dtype.type(-np.inf), value)
    return value, np.where(dead[:, None], z.dtype.type(np.nan), grad)


def draw_trajectory_length(jitter_key: RandomKey, base_steps: int, jitter: bool) -> int:
    """Leapfrog count for one iteration: base_steps, or with jitter a draw
    uniform on {1, ..., 2 * base_steps}. One draw serves every chain."""
    if base_steps < 1:
        raise ValueError(f"base_steps must be >= 1, got {base_steps}")
    if not jitter:
        return int(base_steps)
    return int(randint(jitter_key, 1, 1 + 2 * base_steps))


def hmc_step(
    target,
    config: HmcConfig,
    batch: ChainBatch,
    step_key: RandomKey,
    jitter_key: RandomKey,
    length_fn=None,
) -> tuple[ChainBatch, StepOutput]:
    """Advance every chain by one jittered HMC iteration.

    step_key is the iteration's one draw key: chain c's momentum and accept
    uniform are words c(P + 1) to c(P + 1) + P of its draw stream
    (prng.normal_uniform_each). jitter_key is a single shared key from the
    separate jitter stream.
    length_fn is a test hook replacing the trajectory-length draw; if it
    hands back per-chain lengths that are not all equal the step raises
    LockstepViolationError instead of silently desynchronizing the batch.
    """
    c, p = batch.z.shape
    dtype = target.dtype
    if batch.z.dtype != dtype or p != target.dim:
        raise ValueError(f"batch states must be (C, {target.dim}) {np.dtype(dtype)}, "
                         f"got {batch.z.shape} {batch.z.dtype}")

    if length_fn is None:
        num_steps = draw_trajectory_length(jitter_key, config.num_leapfrog_steps, config.jitter)
    else:
        drawn = np.asarray(length_fn(jitter_key))
        uniq = np.unique(drawn)
        if uniq.size != 1:
            raise LockstepViolationError(
                f"per-chain trajectory lengths differ ({uniq.tolist()}); "
                "all chains must integrate the same number of leapfrog steps"
            )
        num_steps = int(uniq[0])
        if num_steps < 1:
            raise ValueError(f"trajectory length must be >= 1, got {num_steps}")

    mass = config.mass_diag
    if mass is not None and mass.shape != (p,):
        raise ValueError(f"mass_diag must have shape ({p},), got {mass.shape}")
    inv_mass = None if mass is None else (1.0 / mass).astype(dtype)
    sqrt_mass = None if mass is None else np.sqrt(mass).astype(dtype)

    normals, u = normal_uniform_each(step_key, c, p)
    m0 = normals.astype(dtype, copy=False)
    if sqrt_mass is not None:
        m0 = m0 * sqrt_mass

    z1, m1, value1, grad1 = _leapfrog(
        target, dtype(config.step_size), num_steps, batch.z, m0, batch.grad, inv_mass
    )

    # _eval gives a non-finite endpoint state value -inf and NaN gradient,
    # so the ratio for such a row is not finite: it rejects
    with np.errstate(divide="ignore", over="ignore", invalid="ignore", under="ignore"):
        log_u = np.log(u)  # -inf for a zero uniform, which accepts any finite ratio
        kin0 = (0.5 * m0 * m0 if inv_mass is None else 0.5 * m0 * m0 * inv_mass).sum(axis=1)
        kin1 = (0.5 * m1 * m1 if inv_mass is None else 0.5 * m1 * m1 * inv_mass).sum(axis=1)
        # float64 energies: the values are float64 at any working precision
        log_accept_ratio = (kin0 - batch.value) - (kin1 - value1)

    log_accept_ratio = np.where(np.isfinite(log_accept_ratio), log_accept_ratio, -np.inf)

    accepted = log_u < log_accept_ratio
    keep = accepted[:, None]
    new_batch = ChainBatch(
        # z1 is kept as the proposal, so the kept states go to a new array
        z=np.where(keep, z1, batch.z),
        value=np.where(accepted, value1, batch.value),
        grad=np.where(keep, grad1, batch.grad),
    )
    out = StepOutput(
        z=new_batch.z,
        proposal=z1,
        is_accepted=accepted,
        log_accept_ratio=log_accept_ratio,
        num_leapfrog_used=int(num_steps),
    )
    return new_batch, out


def adapt_step_size(step_size: float, harmonic_accept: float) -> float:
    """Multiplicative step-size update driven by the harmonic mean of the
    batch's acceptance probabilities (diag.harmonic_accept). The harmonic
    mean is dominated by the worst chain, so one stuck chain shrinks the
    shared step for everyone, which is exactly what keeps a lockstep batch
    alive."""
    if not (step_size > 0.0 and math.isfinite(step_size)):
        raise ValueError(f"step_size must be positive and finite, got {step_size}")
    return float(step_size * math.exp(LEARNING_RATE * (harmonic_accept - TARGET_ACCEPT)))


def estimate_diag_mass(moments: diag.StreamingMoments) -> np.ndarray:
    """Inverse posterior-variance preconditioner from warmup moments.

    Pools per-chain (C, P) moments across chains, floors the per-dimension
    variance at 1e-8, and returns mass_diag = 1 / variance."""
    if moments.count < 10:
        raise ValueError(
            f"need at least 10 warmup draws per chain to estimate mass, have {moments.count}"
        )
    var = diag.variance(diag.merge_chain_axis(moments))
    return 1.0 / np.maximum(var, 1e-8)


@dataclass
class RunSummary:
    """One run_chains call: its size, wall time, accept rate and last batch."""

    num_steps: int
    num_chains: int
    wall_seconds: float
    accept_rate: float
    final_batch: ChainBatch

    @property
    def draws_per_second(self) -> float:
        if self.wall_seconds <= 0.0:
            return float("nan")
        return self.num_steps * self.num_chains / self.wall_seconds


class TraceSink:
    """Retains every post-warmup draw. Memory is T x C x P."""

    def __init__(self):
        self._z = []
        self._accepted = []
        self._ratios = []

    def record(self, out: StepOutput):
        self._z.append(out.z)
        self._accepted.append(out.is_accepted)
        self._ratios.append(out.log_accept_ratio)

    def z_trace(self) -> np.ndarray:
        return np.stack(self._z, dtype=np.float64) if self._z else np.zeros((0, 0, 0))

    def is_accepted(self) -> np.ndarray:
        return np.stack(self._accepted) if self._accepted else np.zeros((0, 0), dtype=bool)

    def log_accept_ratios(self) -> np.ndarray:
        return np.stack(self._ratios, dtype=np.float64) if self._ratios else np.zeros((0, 0))


class MomentsSink:
    """Streams draws into Welford moments and a diag.RunStatistics; keeps no
    trace. R-hat comes from the moments; per-lag ESS is unavailable. Every
    other field has the bits report_from_trace gives for the same draws."""

    def __init__(self):
        self.moments = diag.welford_init()
        self.stats = diag.RunStatistics()

    def record(self, out: StepOutput):
        z = np.asarray(out.z, dtype=np.float64)
        self.moments = diag.welford_update(self.moments, z)
        self.stats.update(z, out.log_accept_ratio)

    def report(self) -> diag.DiagnosticsReport:
        return self.stats.report(diag.streaming_rhat(self.moments))


def iteration_keys(root_key: RandomKey, num_steps: int):
    """The one per-iteration key schedule. root_key splits into a step root
    and a jitter root; iteration t takes child t of each, which it derives
    as it goes, so the schedule's memory does not grow with num_steps."""
    step_root, jitter_root = split(root_key, 2)
    return islice(zip(children(step_root), children(jitter_root)), num_steps)


def run_chains(
    target,
    config: HmcConfig,
    z_init,
    root_key: RandomKey,
    num_steps: int,
    sink=None,
) -> RunSummary:
    """Run C lockstep chains for num_steps iterations, streaming each
    StepOutput into sink.

    Keys come from iteration_keys(root_key, ...). z_init may be a (C, P)
    array or a warm ChainBatch from a previous run. config is read afresh
    every iteration, so a sink may adapt it in place between iterations.
    """
    if num_steps < 0:
        raise ValueError(f"num_steps must be >= 0, got {num_steps}")
    if isinstance(z_init, ChainBatch):
        batch = z_init
    else:
        batch = ChainBatch.init(target, z_init)
    c = batch.num_chains

    t0 = perf_counter()
    accept_total = 0
    for step_key, jitter_key in iteration_keys(root_key, num_steps):
        batch, out = hmc_step(target, config, batch, step_key, jitter_key)
        if sink is not None:
            sink.record(out)
        accept_total += int(out.is_accepted.sum())
    wall = perf_counter() - t0

    return RunSummary(
        num_steps=num_steps,
        num_chains=c,
        wall_seconds=wall,
        accept_rate=(accept_total / (num_steps * c)) if num_steps else 0.0,
        final_batch=batch,
    )


@dataclass
class WarmupInfo:
    """What the adapted config does not hold; its step_size and mass_diag
    are the warmup's result. final_harmonic_accept is the mean over the
    last phase's iterations of each iteration's harmonic accept, the
    statistic mean_accept_harmonic reports for sampling."""

    phase_steps: tuple[int, int, int]
    final_harmonic_accept: float


class _StepSizeSearch:
    """Warmup sink that adapts its phase's own config copy in place after
    every iteration and keeps each iteration's harmonic accept."""

    def __init__(self, config: HmcConfig):
        self.config = config
        self.harmonic_accepts = []

    def record(self, out: StepOutput):
        hm = diag.harmonic_accept(out.log_accept_ratio)
        self.harmonic_accepts.append(hm)
        self.config.step_size = adapt_step_size(self.config.step_size, hm)


class _DrawMoments:
    """Warmup sink that collects per-chain Welford moments of the draws."""

    def __init__(self):
        self.moments = diag.welford_init()

    def record(self, out: StepOutput):
        self.moments = diag.welford_update(self.moments, out.z)


def warmup_adapt(
    target,
    config: HmcConfig,
    z_init,
    root_key: RandomKey,
    num_warmup: int,
) -> tuple[HmcConfig, ChainBatch, WarmupInfo]:
    """Three-phase warmup: step-size search under identity mass (15%),
    moment collection for the diagonal mass (70%), step-size re-search under
    the new mass (15%). Each phase is one run_chains call on its own config
    copy and its own key from split(root_key, 3). Returns the adapted config
    and the warm batch."""
    if num_warmup < 15:
        raise ValueError(f"adaptive warmup needs at least 15 iterations, got {num_warmup}")
    if config.step_size <= 0.0:
        raise ValueError("warmup needs a positive initial step_size")
    n1 = max(1, int(round(0.15 * num_warmup)))
    n3 = max(1, int(round(0.15 * num_warmup)))
    n2 = num_warmup - n1 - n3
    k1, k2, k3 = split(root_key, 3)

    searched = replace(config, mass_diag=None)
    search = _StepSizeSearch(searched)
    batch = run_chains(target, searched, z_init, k1, n1, sink=search).final_batch
    moments = _DrawMoments()
    batch = run_chains(target, searched, batch, k2, n2, sink=moments).final_batch
    mass = estimate_diag_mass(moments.moments)
    adapted = replace(config, step_size=searched.step_size, mass_diag=mass)
    research = _StepSizeSearch(adapted)
    batch = run_chains(target, adapted, batch, k3, n3, sink=research).final_batch

    return adapted, batch, WarmupInfo((n1, n2, n3), float(np.mean(research.harmonic_accepts)))
