"""Command-line front end: sampling runs, chain-scaling benchmarks, gradient
verification, and the single-vs-double precision failure demo.

Model selectors:
    gaussian:P                   standard normal in P dimensions
    synthetic:N,D,SPARSITY       generated regression dataset (deterministic in --seed)
    german-credit:PATH           CSV file, header row, label in the last column

Seed handling: --seed expands through a fixed schedule,
root -> (data_key, init_key, warmup_key, run_key), so one integer pins the
dataset, the start states, warmup adaptation, and the sampling pass. Two runs
with the same seed and flags produce byte-identical outputs at any --threads,
which spreads the regression likelihood's row blocks over that many workers.

Every command samples through the sampler's one transition (hmc_step) and,
for multi-iteration runs, its one loop (run_chains); precision-demo runs
run_chains with a sink (_DemoSink) that forms its comparison ratios.

Exit codes: 0 success, 1 a requested check failed, 2 usage, input or output
errors, such as an output path that cannot be written, and memory exhaustion.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import diagnostics as diag
from .gradients import finite_difference_check
from .model import (
    Dataset,
    GaussianTarget,
    ModelTarget,
    constrain,
    generate_synthetic,
    joint_log_prob,
    load_csv_dataset,
    replicate_dataset,
)
from .prng import key_from_seed, normal, split
from .sampler import (
    ChainBatch,
    HmcConfig,
    MomentsSink,
    TraceSink,
    run_chains,
    warmup_adapt,
)


class UsageError(Exception):
    pass


def _expand_seed(seed: int):
    root = key_from_seed(seed)
    return split(root, 4)  # data, init, warmup, run


def build_dataset(selector: str, data_key) -> Dataset:
    kind, sep, rest = selector.partition(":")
    if kind == "synthetic" and sep:
        parts = rest.split(",")
        if len(parts) != 3:
            raise UsageError(f"synthetic selector needs N,D,SPARSITY, got {rest!r}")
        try:
            n, d, sparsity = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise UsageError(f"could not parse synthetic selector {rest!r}")
        return generate_synthetic(data_key, n, d, sparsity)
    if kind == "german-credit" and sep:
        return load_csv_dataset(rest)
    raise UsageError(
        f"bad dataset selector {selector!r}; expected "
        "synthetic:N,D,SPARSITY or german-credit:PATH"
    )


def build_target(selector: str, precision: str, data_key, threads: int = 1):
    """The target a model selector names. threads reaches the regression
    likelihood's row blocks; a Gaussian target runs on one thread."""
    if threads < 1:
        raise UsageError(f"--threads must be >= 1, got {threads}")
    kind, sep, rest = selector.partition(":")
    if kind == "gaussian" and sep:
        try:
            dim = int(rest)
        except ValueError:
            raise UsageError(f"gaussian selector needs an integer dimension, got {rest!r}")
        return GaussianTarget(dim, precision=precision)
    if kind in ("synthetic", "german-credit"):
        return ModelTarget(build_dataset(selector, data_key), precision=precision, threads=threads)
    raise UsageError(
        f"bad model selector {selector!r}; expected gaussian:P, "
        "synthetic:N,D,SPARSITY or german-credit:PATH"
    )


def initial_states(init_key, num_chains: int, dim: int) -> np.ndarray:
    """Mildly overdispersed start: 0.5 * standard normal per chain/dim."""
    return 0.5 * np.asarray(normal(init_key, [num_chains, dim]))


# ---------------------------------------------------------------- file IO

def write_trace_csv(path, param_names, z_trace, is_accepted, log_accept_ratios):
    """Trace rows grouped by chain: chain, draw, P params, is_accepted (0/1),
    log_accept_ratio. Floats use shortest round-trip formatting: each row is
    the repr of a list of Python ints and floats, less brackets and spaces."""
    z = np.asarray(z_trace, dtype=np.float64)
    accepted = np.asarray(is_accepted, dtype=bool).astype(np.int8)
    ratios = np.asarray(log_accept_ratios, dtype=np.float64)
    with open(path, "w") as fh:
        fh.write(",".join(["chain", "draw"] + list(param_names)
                          + ["is_accepted", "log_accept_ratio"]) + "\n")
        # one chain's rows at a time, so only they are ever Python floats
        for ci in range(z.shape[1]):
            rows = zip(z[:, ci].tolist(), accepted[:, ci].tolist(), ratios[:, ci].tolist())
            fh.writelines(
                repr([ci, ti, *row, a, r])[1:-1].replace(", ", ",") + "\n"
                for ti, (row, a, r) in enumerate(rows)
            )


def write_diagnostics_json(path, report: diag.DiagnosticsReport):
    with open(path, "w") as fh:
        json.dump(asdict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_bench_csv(path, rows):
    with open(path, "w") as fh:
        fh.write("chains,wall_seconds,draws_per_second\n")
        for r in rows:
            fh.write(f"{r['chains']},{float(r['wall_seconds'])!r},"
                     f"{float(r['draws_per_second'])!r}\n")


# ---------------------------------------------------------------- sample

def cmd_sample(args) -> int:
    data_key, init_key, warmup_key, run_key = _expand_seed(args.seed)
    if args.retention == "full" and args.draws < 8:
        raise UsageError("need at least 8 draws for trace diagnostics")
    if args.draws < 2:
        raise UsageError("need at least 2 draws")
    if args.chains < 1:
        raise UsageError("need at least 1 chain")
    if args.warmup < 0:
        raise UsageError("--warmup must be >= 0")
    if args.retention == "moments-only" and args.chains < 2:
        raise UsageError("moments-only retention needs at least 2 chains for streaming R-hat")
    os.makedirs(args.output, exist_ok=True)
    target = build_target(args.model, args.precision, data_key, args.threads)

    config = HmcConfig(
        step_size=args.step_size,
        num_leapfrog_steps=args.leapfrog_steps,
    )
    z0 = initial_states(init_key, args.chains, target.dim)

    if args.adapt:
        config, start, accept = warmup_adapt(target, config, z0, warmup_key, args.warmup)
        warm_note = (
            f"adapted: step_size={config.step_size:.5g} "
            f"warmup accept(harmonic)={accept:.3f}"
        )
    else:
        start = run_chains(target, config, z0, warmup_key, args.warmup).final_batch
        warm_note = f"warmup: {args.warmup} discarded iterations, no adaptation"

    sink = TraceSink() if args.retention == "full" else MomentsSink()
    summary = run_chains(target, config, start, run_key, args.draws, sink=sink)

    if args.retention == "full":
        z_trace, ratios = sink.z_trace(), sink.log_accept_ratios()
        tau_trace = np.exp(z_trace[:, :, 0]) if isinstance(target, ModelTarget) else None
        report = diag.report_from_trace(z_trace, ratios, tau_trace)
    else:
        report = sink.report()

    json_path = os.path.join(args.output, "diagnostics.json")
    write_diagnostics_json(json_path, report)
    written = [json_path]
    if args.retention == "full":
        csv_path = os.path.join(args.output, "trace.csv")
        write_trace_csv(csv_path, target.param_names(), z_trace, sink.is_accepted(), ratios)
        written.append(csv_path)

    print(f"model={args.model}  chains={args.chains}  draws={args.draws}  "
          f"precision={args.precision}")
    print(warm_note)
    print(f"accept: mean={summary.accept_rate:.3f}  "
          f"harmonic={report.mean_accept_harmonic:.3f}")
    line = f"R-hat: max={max(report.rhat):.4f}"
    if report.ess is not None:
        line += f"  ESS: min={min(report.ess):.0f} median={float(np.median(report.ess)):.0f}"
    if report.ess_tau is not None:
        line += f"  ESS(tau)={report.ess_tau:.0f}"
    print(line)
    print(f"ESJD={report.esjd:.4g}  ChEES={report.chees:.4g}  "
          f"roundoff flags={report.roundoff_flag_fraction:.2%}")
    print(f"throughput: {summary.draws_per_second:.0f} draws/s  "
          f"wall={summary.wall_seconds:.2f}s")
    print("wrote " + ", ".join(written))
    return 0


# ---------------------------------------------------------------- bench

def cmd_bench_chains(args) -> int:
    data_key, init_key, _, run_key = _expand_seed(args.seed)
    try:
        chain_counts = [int(v) for v in args.chain_list.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"bad --chain-list {args.chain_list!r}")
    if not chain_counts or any(c < 1 for c in chain_counts):
        raise UsageError("--chain-list needs positive integers")
    if args.draws_per_chain < 1:
        raise UsageError("--draws-per-chain must be positive")

    target = build_target(args.model, "double", data_key, args.threads)
    config = HmcConfig(
        step_size=args.step_size,
        num_leapfrog_steps=args.leapfrog_steps,
    )
    # only a regression target spreads its evaluation over --threads
    threads = target.threads if isinstance(target, ModelTarget) else 1
    rows = []
    print(f"model={args.model}  draws/chain={args.draws_per_chain}  "
          f"leapfrog={args.leapfrog_steps} (jittered)  threads={threads}")
    warm_key, timed_key = split(run_key, 2)  # the same chains at every count
    for c in chain_counts:
        try:
            z0 = initial_states(init_key, c, target.dim)
            # one discarded warm-start iteration, then the timed run
            warm = run_chains(target, config, z0, warm_key, 1)
            summary = run_chains(target, config, warm.final_batch, timed_key,
                                 args.draws_per_chain)
            row = {
                "chains": c,
                "wall_seconds": summary.wall_seconds,
                "draws_per_second": summary.draws_per_second,
            }
        except MemoryError:
            print(f"chains={c}: allocation failed, skipping", file=sys.stderr)
            row = {"chains": c, "wall_seconds": float("nan"),
                   "draws_per_second": float("nan")}
        rows.append(row)
        print(f"chains={row['chains']:>5}  wall={row['wall_seconds']:.3f}s  "
              f"throughput={row['draws_per_second']:.0f} draws/s")
    write_bench_csv(args.output, rows)
    print(f"wrote {args.output}")
    return 0


# ---------------------------------------------------------------- grad-check

def cmd_grad_check(args) -> int:
    data_key, init_key, _, _ = _expand_seed(args.seed)
    if args.states < 1:
        raise UsageError("--states must be positive")
    if not (0.0 < args.fd_step < math.inf):
        raise UsageError(f"--fd-step must be positive and finite, got {args.fd_step}")
    if not (0.0 < args.threshold < math.inf):
        raise UsageError(f"--threshold must be positive and finite, got {args.threshold}")
    target = build_target(args.model, "double", data_key)
    states = np.asarray(normal(init_key, [args.states, target.dim]))
    worst = max(finite_difference_check(target, z, h=args.fd_step) for z in states)
    print(f"model={args.model}  states={args.states}  h={args.fd_step:g}")
    print(f"max relative gradient error: {worst:.3e}  (threshold {args.threshold:g})")
    if worst > args.threshold:
        print("FAIL: analytic gradient disagrees with finite differences",
              file=sys.stderr)
        return 1
    print("OK")
    return 0


# ---------------------------------------------------------------- precision-demo

TWO_24 = float(1 << 24)


# scale coordinates get this mass in the demo; they stay pinned at zero
_DEMO_PIN_MASS = 1e30
# the built-in base dataset's one feature is scaled by this, so that few
# rows carry large likelihood terms
_DEMO_FEATURE_SCALE = 25.0


def _demo_start(dataset: Dataset) -> np.ndarray:
    """Deterministic start: scales at 1 (u = 0), raw weights at 0.45 leaning
    AGAINST the generating coefficients when those are known. The misfit
    keeps per-row likelihood terms large, so the 2^24 cliff is reached with
    far fewer rows."""
    d = dataset.num_features
    z0 = np.zeros(1 + 2 * d)
    if dataset.true_coef is not None:
        signs = np.where(dataset.true_coef >= 0.0, 1.0, -1.0)
    else:
        signs = np.where(np.arange(d) % 2 == 0, 1.0, -1.0)
    z0[1 + d :] = -0.45 * signs
    return z0


def _demo_mass(target: ModelTarget) -> np.ndarray:
    """Demo preconditioner: weights get a curvature bound, scales get pinned.

    sigma' <= 1/4 caps the Bernoulli curvature, so 0.25 * sum x^2 + 1 per
    weight (scales sit at 1) keeps trajectories sane on the huge replicated
    dataset without any warmup pass. The scale coordinates get effectively
    infinite mass: with u exactly 0 in every visited state, exp(u) is exact
    even in float32, so the comparison isolates the summation error in the
    data term. A moving scale adds a single-rounding error proportional to
    the scale gradient, which is a representation problem both ratio paths
    share and neither can fix."""
    d = target.num_features
    x2 = np.square(target.dataset.x).sum(axis=0)  # (D,)
    mass = np.full(target.dim, _DEMO_PIN_MASS)
    mass[1 + d :] = 0.25 * x2 + 1.0
    return mass


class _DemoSink:
    """run_chains sink for precision-demo's float32 chains, started from
    batch. Each step it keeps the sampler's ratio (stable), the naive
    float32 ratio of the same proposal (the float32 difference of two
    float32 energies, each minus joint_log_prob plus the log-det-Jacobian)
    and the float64 oracle (the ratio with its density part redone on t64),
    both -inf where the step's ratio is not finite (a diverged proposal).
    It tracks the states z with their values on each model, so each state
    is evaluated once per model: a row's bits depend only on its position
    in the batch, so a tracked value is bitwise a fresh log_prob."""

    def __init__(self, t32, t64, batch: ChainBatch):
        self.t32, self.t64 = t32, t64
        self.z, self.value, self.value64 = batch.z, batch.value, t64.log_prob(batch.z)
        self.naive, self.stable, self.oracle = [], [], []

    def record(self, out):
        r = out.log_accept_ratio
        ok = np.isfinite(r)
        # a finite ratio implies a finite proposal; diverged rows are redone at z
        z1 = np.where(ok[:, None], out.proposal, self.z)
        value1, value64_1 = self.t32.log_prob(z1), self.t64.log_prob(z1)
        # r = kinetic drop + (value1 - value), the values float64
        kinetic_gain = (value1 - self.value) - r
        # naive energies count kinetic energy from the start's
        params, ldj = constrain(np.concatenate([self.z, z1]))
        total = joint_log_prob(self.t32, params) + ldj.astype(np.float32)
        start, end = np.split(total, 2)
        naive = -start - (kinetic_gain.astype(np.float32) - end)
        self.naive.append(np.where(ok, naive, -np.inf))
        self.stable.append(r)
        self.oracle.append(np.where(ok, (value64_1 - self.value64) - kinetic_gain, -np.inf))
        accepted = out.is_accepted
        self.z = out.z
        self.value = np.where(accepted, value1, self.value)
        self.value64 = np.where(accepted, value64_1, self.value64)


def cmd_precision_demo(args) -> int:
    """Float32 chains run by the sampler's loop, whose accept ratio
    differences float64 totals. Every iteration _DemoSink also forms the
    naive float32 ratio of the same proposal and the float64 oracle."""
    data_key, _, _, run_key = _expand_seed(args.seed)
    if args.steps < 1 or args.chains < 1 or args.leapfrog_steps < 1:
        raise UsageError("--steps, --chains and --leapfrog-steps must be positive")
    if args.replication < 0:
        raise UsageError("--replication must be >= 0")
    config = HmcConfig(step_size=args.step_size, num_leapfrog_steps=args.leapfrog_steps,
                       jitter=False)
    if args.model is not None:
        base = build_dataset(args.model, data_key)
    else:
        base = generate_synthetic(data_key, args.base_rows, 1, 1.0)
        base = Dataset(base.x * _DEMO_FEATURE_SCALE, base.y, true_coef=base.true_coef)

    z0 = _demo_start(base)
    base_mag = abs(float(ModelTarget(base, precision="double").log_prob(z0)))
    k = args.replication
    if k == 0:
        # smallest K that pushes |log density| safely past the 2^24 cliff
        k = max(1, math.ceil(1.05 * TWO_24 / max(base_mag, 1.0)))
    dataset = replicate_dataset(base, k) if k > 1 else base

    t32 = ModelTarget(dataset, precision="single")
    t64 = ModelTarget(dataset, precision="double")
    magnitude = abs(float(t64.log_prob(z0)))
    if magnitude <= TWO_24:
        print(
            f"warning: |log density| = {magnitude:.4g} does not exceed 2^24 = "
            f"{TWO_24:.4g}; replication {k} is too small for the failure to show",
            file=sys.stderr,
        )

    config = replace(config, mass_diag=_demo_mass(t64))
    c = args.chains
    batch = ChainBatch.init(t32, np.tile(z0, (c, 1)))
    with np.errstate(over="ignore", invalid="ignore", under="ignore", divide="ignore"):
        demo = _DemoSink(t32, t64, batch)
        run_chains(t32, config, batch, run_key, args.steps, sink=demo)

    naive, stable, oracle = map(np.stack, (demo.naive, demo.stable, demo.oracle))
    finite = np.isfinite(oracle) & np.isfinite(naive) & np.isfinite(stable)
    if not finite.any():
        raise UsageError("every proposal diverged: no transition has finite naive, stable "
                         "and oracle ratios; try a smaller --step-size")
    result = {
        "replication": int(k),
        "base_rows": int(base.num_rows),
        "total_rows": int(dataset.num_rows),
        "log_density_magnitude": float(magnitude),
        "naive_flag_fraction": diag.roundoff_grid_hits(naive) / naive.size,
        "stable_flag_fraction": diag.roundoff_grid_hits(stable) / stable.size,
        "max_abs_err_naive": float(np.abs(naive[finite] - oracle[finite]).max()),
        "max_abs_err_stable": float(np.abs(stable[finite] - oracle[finite]).max()),
        "steps": int(args.steps),
        "chains": int(c),
    }
    print(f"replication K={result['replication']}  rows={result['total_rows']}  "
          f"|log density|={magnitude:.4g}  (2^24={TWO_24:.4g})")
    print(f"roundoff flag fraction: naive={result['naive_flag_fraction']:.3f}  "
          f"stable={result['stable_flag_fraction']:.3f}")
    print(f"max |ratio - double oracle|: naive={result['max_abs_err_naive']:.4g}  "
          f"stable={result['max_abs_err_stable']:.4g}")
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")
    return 0


# ---------------------------------------------------------------- parser

THREADS_HELP = ("workers for the regression likelihood's row blocks (16 rows in double "
                "precision, 32 in single; a Gaussian model runs on one thread); outputs "
                "are byte-identical at any count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="manychain",
        description="Lockstep multi-chain HMC: sampling, benchmarks, checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("sample", help="run chains and write diagnostics/trace")
    ps.add_argument("model")
    ps.add_argument("--chains", type=int, default=4)
    ps.add_argument("--draws", type=int, default=1000)
    ps.add_argument("--warmup", type=int, default=500)
    ps.add_argument("--step-size", type=float, default=0.2)
    ps.add_argument("--leapfrog-steps", type=int, default=8)
    ps.add_argument("--adapt", action=argparse.BooleanOptionalAction, default=True)
    ps.add_argument("--precision", choices=["single", "double"], default="double")
    ps.add_argument("--stable-ratio", action=argparse.BooleanOptionalAction, default=False,
                    help="accepted and ignored: every accept ratio is the difference of "
                         "float64 energies, accurate at either precision")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--retention", choices=["full", "moments-only"], default="full")
    ps.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    ps.add_argument("--output", default="manychain_run")
    ps.set_defaults(func=cmd_sample)

    pb = sub.add_parser("bench-chains", help="throughput vs chain count")
    pb.add_argument("model")
    pb.add_argument("--chain-list", default="1,2,4,8,16,32,64,128,256")
    pb.add_argument("--draws-per-chain", type=int, default=64)
    pb.add_argument("--step-size", type=float, default=0.05)
    pb.add_argument("--leapfrog-steps", type=int, default=8)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    pb.add_argument("--output", default="bench.csv")
    pb.set_defaults(func=cmd_bench_chains)

    pg = sub.add_parser("grad-check", help="finite-difference gradient check")
    pg.add_argument("model")
    pg.add_argument("--states", type=int, default=20)
    pg.add_argument("--fd-step", type=float, default=1e-5)
    pg.add_argument("--threshold", type=float, default=1e-5)
    pg.add_argument("--seed", type=int, default=0)
    pg.set_defaults(func=cmd_grad_check)

    pp = sub.add_parser(
        "precision-demo",
        help="single-precision accept-ratio failure vs the sampler's float64-accumulated ratio",
    )
    pp.add_argument("--model", default=None,
                    help="optional dataset selector; default: built-in synthetic base")
    pp.add_argument("--replication", type=int, default=0,
                    help="dataset replication factor K; 0 = auto-size past 2^24")
    pp.add_argument("--base-rows", type=int, default=1_200_000)
    pp.add_argument("--steps", type=int, default=30)
    pp.add_argument("--chains", type=int, default=2)
    pp.add_argument("--leapfrog-steps", type=int, default=2)
    pp.add_argument("--step-size", type=float, default=2e-3)
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument("--output", default=None)
    pp.set_defaults(func=cmd_precision_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
