"""manychain benchmark: end-to-end and per-layer metrics on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout. A run repeats whole rounds of its
workload's manychain commands, each in a fresh process started through
perfbench/child.py, until the next round would end after S seconds (at
least MIN_ROUNDS rounds), checks every round's outputs, and prints the
median over rounds of each metric. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones, taken from a run whose layer functions are all timed.
--workload all runs every workload untraced and traced and reports the
tracing overhead. Details of each run go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.stats import theilslopes

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
RUNS = HERE / "runs"

# every process the benchmark starts does its linear algebra on one thread
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

# duration of one calibration run (probe.Calibration) that defines a
# reference second: times are scaled by it over the measured duration
CALIBRATION_S = 0.0115
MIN_ROUNDS = 2  # trace.csv of two rounds with one seed must be byte-identical
RUN_LIMIT_S = 150.0  # no round starts that could end after this

MODEL = "synthetic:1000,24,0.25"
RHAT_BOUND = 10.0

SAMPLE = ["sample", MODEL, "--chains", "64", "--threads", "1", "--step-size", "0.05"]
WORKLOAD_COMMANDS = {
    # the criterion-1 job, shortened: adapted warmup, full trace retention
    "regression-adapted": [
        SAMPLE + ["--warmup", "150", "--draws", "100", "--leapfrog-steps", "8",
                  "--precision", "double", "--retention", "full"],
    ],
    # bench-chains throughput at 1, 16 and 256 chains, then 256 on two threads
    "chain-sweep": [
        ["bench-chains", MODEL, "--chain-list", "1", "--draws-per-chain", "800",
         "--leapfrog-steps", "8", "--threads", "1"],
        ["bench-chains", MODEL, "--chain-list", "16", "--draws-per-chain", "200",
         "--leapfrog-steps", "8", "--threads", "1"],
        ["bench-chains", MODEL, "--chain-list", "256", "--draws-per-chain", "16",
         "--leapfrog-steps", "8", "--threads", "1"],
        ["bench-chains", MODEL, "--chain-list", "256", "--draws-per-chain", "16",
         "--leapfrog-steps", "8", "--threads", "2"],
    ],
    # near-free density: the per-chain key derivation and draws dominate
    "gaussian-wide": [
        ["sample", "gaussian:10", "--chains", "256", "--threads", "1", "--warmup", "50",
         "--draws", "150", "--leapfrog-steps", "2", "--step-size", "0.5", "--no-adapt",
         "--retention", "moments-only"],
    ],
    # float32 with the per-term (stable) accept ratio, short trajectories
    "regression-f32-stable": [
        SAMPLE + ["--warmup", "150", "--draws", "100", "--leapfrog-steps", "4",
                  "--precision", "single", "--stable-ratio", "--retention", "moments-only"],
    ],
}
SWEEP_POINTS = ("c1", "c16", "c256", "c256.t2")


@dataclass
class Command:
    """One finished manychain process."""

    args: list[str]
    output: Path  # the run directory of `sample`, the CSV of `bench-chains`
    exit: int
    t_spawn: float
    record: dict = field(default_factory=dict)
    arrays: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.exit == 0 and self.record.get("first_step") is not None

    @property
    def rss_mb(self) -> float:
        return self.record["peak_rss_kb"] / 1024.0

    @functools.cached_property
    def _clocks(self) -> tuple:
        """Breakpoints of two piecewise-linear maps from the monotonic clock:
        to plain seconds and to reference seconds. Both stand still during
        calibration runs; between runs, reference seconds pass at
        CALIBRATION_S / (the duration of the latest calibration run)."""
        cal = self.record["calibration"]
        far = 1e6
        times, plain, ref = [cal[0][0] - far], [-far], [-far * CALIBRATION_S / cal[0][1]]
        for i, (start, seconds) in enumerate(cal):
            gap = start - times[-1] if i else far
            rate = CALIBRATION_S / cal[max(i - 1, 0)][1]
            times += [start, start + seconds]
            plain += [plain[-1] + gap] * 2
            ref += [ref[-1] + gap * rate] * 2
        times.append(times[-1] + far)
        plain.append(plain[-1] + far)
        ref.append(ref[-1] + far * CALIBRATION_S / cal[-1][1])
        return np.array(times), np.array(plain), np.array(ref)

    def seconds(self, a: float, b: float, reference: bool = True) -> float:
        """Time from a to b without the calibration runs, in reference
        seconds or (reference=False) in plain seconds."""
        times, plain, ref = self._clocks
        clock = ref if reference else plain
        return float(np.interp(b, times, clock) - np.interp(a, times, clock))

    @property
    def setup_s(self) -> float:
        return self.seconds(self.t_spawn, self.record["first_step"])

    def steps_in(self, p=None) -> list:
        return [s for s in self.record["steps"] if p is None or p["t0"] <= s[0] < p["t1"]]

    def iterations(self, p=None) -> tuple[list, list, list]:
        """(reference seconds, steps used, expected steps) of each iteration,
        timed from its start to the next iteration's start within a pass."""
        seconds, used, expected = [], [], []
        for q in self.record["passes"] if p is None else [p]:
            inside = self.steps_in(q)
            for (t, n, e), (t_next, _, _) in zip(inside, inside[1:]):
                seconds.append(self.seconds(t, t_next))
                used.append(n)
                expected.append(e)
        return seconds, used, expected

    @functools.cached_property
    def leapfrog_cost(self) -> float:
        """Reference seconds one more leapfrog step adds to an iteration: the
        Theil-Sen slope of iteration time on steps used."""
        seconds, used, _ = self.iterations()
        if len(set(used)) < 2:
            return 0.0
        return float(theilslopes(seconds, used)[0])

    def at_expected_length(self, seconds: float, p=None) -> float:
        """seconds with every iteration in p (default: all) moved to the
        expected trajectory length, so the seed's jitter draws drop out."""
        excess = sum(used - expected for _, used, expected in self.steps_in(p))
        return seconds - self.leapfrog_cost * excess

    @property
    def wall_s(self) -> float:
        return self.at_expected_length(self.seconds(self.record["first_step"], self.record["end"]))

    def iteration_seconds(self, p) -> float:
        """Median reference seconds of one iteration of pass p at the
        expected trajectory length."""
        seconds, used, expected = self.iterations(p)
        b = self.leapfrog_cost
        return statistics.median(s - b * (n - e) for s, n, e in zip(seconds, used, expected))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_command(args, workdir: Path, tag: str, seed: int, trace: bool, timeout: float) -> Command:
    output = "bench.csv" if args[0] == "bench-chains" else "run"
    record = workdir / tag
    argv = [sys.executable, str(HERE / "child.py"), str(record), "1" if trace else "0", "--",
            *args, "--seed", str(seed), "--output", str(workdir / f"{tag}-{output}")]
    with open(workdir / f"{tag}.log", "w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, cwd=workdir, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    cmd = Command(args, workdir / f"{tag}-{output}", proc.returncode, t_spawn)
    if (record.with_suffix(".json")).exists():
        cmd.record = json.loads(record.with_suffix(".json").read_text())
        with np.load(record.with_suffix(".npz")) as npz:
            cmd.arrays = {k: npz[k] for k in npz.files}
    return cmd


# ------------------------------------------------------------------ metrics

def _draw_rates(cmd: Command, p: dict) -> tuple[float, float]:
    """Chain-draws per second of pass p: (raw: draws over the pass's plain
    seconds; from the median iteration at the expected trajectory length, in
    reference seconds)."""
    raw = p["steps"] * p["chains"] / cmd.seconds(p["t0"], p["t1"], reference=False)
    return raw, p["chains"] / cmd.iteration_seconds(p)


def round_metrics(workload: str, cmds: list[Command]) -> dict:
    """End-to-end figures of one round, plus unbounded extras. raw_* figures
    are plain seconds with the seed's own trajectory lengths."""
    raw_walls = [c.seconds(c.record["first_step"], c.record["end"], reference=False)
                 for c in cmds]
    if workload == "chain-sweep":
        out = {"setup_s": statistics.median(c.setup_s for c in cmds),
               "wall_s": sum(c.wall_s for c in cmds),
               "peak_rss_mb": max(c.rss_mb for c in cmds),
               "raw_wall_s": sum(raw_walls)}
        draws = seconds = raw_seconds = 0.0
        for point, c in zip(SWEEP_POINTS, cmds):
            timed = c.record["passes"][-1]
            raw, rate = _draw_rates(c, timed)
            out[f"draws_per_s.{point}"] = rate
            out[f"raw_draws_per_s.{point}"] = raw
            n = timed["steps"] * timed["chains"]
            draws += n
            seconds += n / rate
            raw_seconds += n / raw
        out["draws_per_s"] = draws / seconds
        out["raw_draws_per_s"] = draws / raw_seconds
        return out
    (cmd,) = cmds
    passes = cmd.record["passes"]
    retained = [p for p in passes if p["retained"]][0]
    raw, rate = _draw_rates(cmd, retained)
    out = {
        "setup_s": cmd.setup_s,
        "wall_s": cmd.wall_s,
        "draws_per_s": rate,
        "peak_rss_mb": cmd.rss_mb,
        "raw_wall_s": raw_walls[0],
        "raw_draws_per_s": raw,
        "warmup_s": sum(cmd.seconds(p["t0"], p["t1"]) for p in passes if not p["retained"]),
    }
    diag = json.loads((cmd.output / "diagnostics.json").read_text())
    out["max_rhat"] = max(diag["rhat"])
    if diag.get("ess_tau") is not None:
        out["ess_tau"] = diag["ess_tau"]
        out["ess_tau_per_s"] = diag["ess_tau"] / cmd.wall_s
    return out


def layer_metrics(cmds: list[Command], wall_s: float) -> dict:
    counts: dict[str, float] = {}
    for c in cmds:
        for k, v in c.record.get("counts", {}).items():
            counts[k] = counts.get(k, 0.0) + v
    proposals = counts.get("sampler.proposals", 0.0)
    counts["sampler.accept_frac"] = counts.get("sampler.accepted", 0.0) / proposals if proposals else 0.0
    counts["trace.wall_s"] = wall_s
    return counts


# ------------------------------------------------------------------- checks

class Checks:
    """Collects failed correctness checks of a run."""

    def __init__(self):
        self.failures: list[str] = []
        self.passed = 0

    def expect(self, ok, message: str):
        if ok:
            self.passed += 1
        else:
            self.failures.append(message)


def _dataset(seed: int):
    """The dataset the CLI builds for MODEL at seed: root -> (data, ...) keys."""
    from manychain.model import generate_synthetic
    from manychain.prng import key_from_seed, split

    n, d, sparsity = MODEL.partition(":")[2].split(",")
    data_key = split(key_from_seed(seed), 4)[0]
    return generate_synthetic(data_key, int(n), int(d), float(sparsity))


def check_density(checks: Checks, cmd: Command, dataset, precision: str):
    """The log density the run cached for its final states agrees with the
    reference density, to within the rounding of the working precision."""
    z = cmd.arrays["final_z"]
    value = cmd.arrays["final_value"].astype(np.float64)
    ref, magnitude = reference.log_density(z.astype(np.float64), dataset.x, dataset.y)
    eps = np.finfo(np.float32 if precision == "single" else np.float64).eps
    err = np.abs(value - ref)
    tol = 32.0 * eps * magnitude
    checks.expect(np.all(err <= tol),
                  f"log density differs from the reference by {err.max():.3g} (tolerance {tol.min():.3g})")

    if precision == "single":
        from manychain.model import ModelTarget

        z_old = cmd.arrays["warm_z"]
        ratio = ModelTarget(dataset, precision="single").log_prob_ratio(z, z_old)
        ref_old, mag_old = reference.log_density(z_old.astype(np.float64), dataset.x, dataset.y)
        err = np.abs(ratio.astype(np.float64) - (ref - ref_old))
        tol = 32.0 * eps * (magnitude + mag_old)
        checks.expect(np.all(err <= tol),
                      f"float32 log_prob_ratio differs from the float64 reference by "
                      f"{err.max():.3g} (tolerance {tol.min():.3g})")


def check_regression_adapted(checks: Checks, cmds, seed, hashes):
    (cmd,) = cmds
    dataset = _dataset(seed)
    check_density(checks, cmd, dataset, "double")
    trace_path, diag_path = cmd.output / "trace.csv", cmd.output / "diagnostics.json"
    digest = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (trace_path, diag_path))
    hashes.append(digest)
    checks.expect(digest == hashes[0], "a repeat with the same seed wrote different outputs")

    diag = json.loads(diag_path.read_text())
    with open(trace_path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    table = np.loadtxt(trace_path, delimiter=",", skiprows=1)
    p = len(header) - 4
    chains, draws = int(table[:, 0].max()) + 1, int(table[:, 1].max()) + 1
    rows = table.reshape(chains, draws, -1)  # rows are grouped by chain
    z = rows[:, :, 2 : 2 + p].transpose(1, 0, 2)  # (T, C, P)
    accepted = rows[:, :, 2 + p].T == 1.0

    rhat = [reference.split_rhat(z[:, :, j]) for j in range(p)]
    checks.expect(np.allclose(rhat, diag["rhat"], rtol=1e-9, atol=0.0),
                  "split R-hat recomputed from trace.csv disagrees with diagnostics.json")
    ess_tau = reference.ess(np.exp(z[:, :, 0]))
    checks.expect(math.isclose(ess_tau, diag["ess_tau"], rel_tol=1e-8),
                  f"ESS(tau) recomputed from trace.csv is {ess_tau:.6g}, "
                  f"diagnostics.json says {diag['ess_tau']:.6g}")
    checks.expect(max(rhat) < RHAT_BOUND, f"max split R-hat {max(rhat):.3f} >= {RHAT_BOUND}")

    d = dataset.num_features
    beta_mean = z[:, :, 1 + d :].mean(axis=(0, 1))
    nonzero = dataset.true_coef != 0.0
    checks.expect(np.all(np.sign(beta_mean[nonzero]) == np.sign(dataset.true_coef[nonzero])),
                  "a posterior mean of beta_j has the wrong sign")

    rejected = ~accepted[1:]
    stayed = np.all(z[1:] == z[:-1], axis=2)
    checks.expect(np.all(stayed[rejected]), "a rejected draw differs from the chain's previous draw")


def check_f32_stable(checks: Checks, cmds, seed, hashes):
    (cmd,) = cmds
    check_density(checks, cmd, _dataset(seed), "single")
    diag = json.loads((cmd.output / "diagnostics.json").read_text())
    checks.expect(diag["roundoff_flag_fraction"] < 0.05,
                  f"roundoff_flag_fraction {diag['roundoff_flag_fraction']:.3f} >= 0.05")


def check_gaussian_wide(checks: Checks, cmds, seed, hashes):
    """Streamed moments of a standard normal: each chain is independent, so
    the spread of per-chain estimates gives the Monte Carlo error."""
    (cmd,) = cmds
    n = int(cmd.arrays["moments_count"])
    mean = cmd.arrays["moments_mean"]  # (C, P)
    second = cmd.arrays["moments_m2"] / n + mean * mean  # per-chain E[z^2]
    chains = mean.shape[0]
    for est, target, what in ((mean, 0.0, "mean"), (second, 1.0, "second moment")):
        pooled = est.mean(axis=0)
        se = est.std(axis=0, ddof=1) / math.sqrt(chains)
        checks.expect(np.all(np.abs(pooled - target) <= 5.0 * se),
                      f"pooled {what} {pooled.tolist()} is not within 5 standard errors of {target}")


def check_chain_sweep(checks: Checks, cmds, seed, hashes):
    for c in cmds:
        rows = c.output.read_text().splitlines()[1:]
        for row in rows:
            values = [float(v) for v in row.split(",")]
            checks.expect(all(math.isfinite(v) and v > 0.0 for v in values),
                          f"bench-chains point {row!r} is not finite")


CHECKS = {
    "regression-adapted": check_regression_adapted,
    "chain-sweep": check_chain_sweep,
    "gaussian-wide": check_gaussian_wide,
    "regression-f32-stable": check_f32_stable,
}


# ---------------------------------------------------------------------- run

def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    commands = WORKLOAD_COMMANDS[workload]
    checks = Checks()
    hashes: list = []
    rounds: list[dict] = []
    layers: list[dict] = []
    attempted = failed = 0
    RUNS.mkdir(exist_ok=True)
    start = time.monotonic()
    with tempfile.TemporaryDirectory(dir=RUNS, prefix=f"{workload}-") as tmp:
        while True:
            workdir = Path(tmp) / f"round{len(rounds)}"
            workdir.mkdir()
            budget = RUN_LIMIT_S - (time.monotonic() - start)
            cmds = [run_command(args, workdir, f"cmd{i}", seed, trace, budget)
                    for i, args in enumerate(commands)]
            attempted += len(cmds)
            bad = [c for c in cmds if not c.ok]
            failed += len(bad)
            for c in bad:
                log = (workdir / f"cmd{cmds.index(c)}.log").read_text()[-2000:]
                print(f"{workload}: command failed (exit {c.exit}): {' '.join(c.args)}\n{log}",
                      file=sys.stderr)
            if not bad:
                CHECKS[workload](checks, cmds, seed, hashes)
                figures = round_metrics(workload, cmds)
                rounds.append(figures)
                if trace:
                    layers.append(layer_metrics(cmds, figures["wall_s"]))
                    keep_spans(workload, seed, cmds)
            else:
                rounds.append({})
            shutil.rmtree(workdir)
            elapsed = time.monotonic() - start
            per_round = elapsed / len(rounds)
            if elapsed + per_round > RUN_LIMIT_S:
                break
            if len(rounds) >= MIN_ROUNDS and elapsed + per_round > seconds:
                break
    good = [r for r in rounds if r]
    medians = {k: statistics.median(r[k] for r in good) for k in (good[0] if good else {})}
    layer_medians = {}
    for key in sorted({k for r in layers for k in r}):
        layer_medians[key] = statistics.median(r.get(key, 0.0) for r in layers)
    return {
        "workload": workload, "seed": seed, "trace": trace, "rounds": len(rounds),
        "elapsed_s": time.monotonic() - start, "blas_threads": BLAS_THREADS,
        "correct": not checks.failures and bool(good), "checks_passed": checks.passed,
        "check_failures": checks.failures, "attempted": attempted, "failed": failed,
        "figures": medians, "per_round": rounds, "layers": layer_medians,
    }


def keep_spans(workload: str, seed: int, cmds: list[Command]):
    """Keep the spans of the latest traced round, one file per command."""
    RESULTS.mkdir(exist_ok=True)
    for i, c in enumerate(cmds):
        spans = {k[len("span_"):]: v for k, v in c.arrays.items() if k.startswith("span_")}
        np.savez_compressed(RESULTS / f"{workload}-seed{seed}-cmd{i}.spans.npz",
                            names=np.array(c.record.get("span_names", [])), **spans)


def reported_metrics(result: dict, spec: dict) -> dict:
    """The metrics BENCHMARK.json names for this kind of run, with units."""
    source = result["layers"] if result["trace"] else result["figures"]
    names = spec["per_layer" if result["trace"] else "end_to_end"]
    return {m["name"]: {"value": float(source.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in names}


def print_result(result: dict, metrics: dict):
    w = result["workload"]
    print(f"== {w}  seed={result['seed']}  trace={int(result['trace'])}  "
          f"rounds={result['rounds']}  blas_threads={result['blas_threads']}")
    for name, m in metrics.items():
        print(f"{w}  {name} = {m['value']:.6g} {m['unit']}")
    if not result["trace"]:
        for name, value in result["figures"].items():
            if name not in metrics:
                print(f"{w}  (unbounded) {name} = {value:.6g}")
    print(f"{w}  operations attempted={result['attempted']} failed={result['failed']}  "
          f"checks passed={result['checks_passed']} failed={len(result['check_failures'])}")
    for f in result["check_failures"]:
        print(f"{w}  CHECK FAILED: {f}")


def save_result(result: dict):
    RESULTS.mkdir(exist_ok=True)
    name = f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}.json"
    (RESULTS / name).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOAD_COMMANDS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "manychain" / "__init__.py").is_file():
        print(f"error: {SRC / 'manychain'} not found; run from a manychain checkout",
              file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("error: --seed must be in [0, 2**64)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    sys.path[:0] = [str(SRC), str(HERE)]

    def run(workload, trace):
        result = run_workload(workload, args.seed, seconds, trace)
        metrics = reported_metrics(result, spec)
        save_result(result)
        print_result(result, metrics)
        return result, metrics

    if args.workload != "all":
        result, metrics = run(args.workload, bool(args.trace))
        print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": metrics}))
        return 0

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_COMMANDS:
        (plain, metrics), (traced, _) = run(workload, False), run(workload, True)
        for result in (plain, traced):
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
        for name, m in metrics.items():
            summary["metrics"][f"{workload}.{name}"] = m
        overhead = traced["figures"]["wall_s"] / plain["figures"]["wall_s"] - 1.0
        print(f"{workload}  tracing overhead on wall_s = {overhead:+.1%}")
        summary["metrics"][f"{workload}.trace_overhead"] = {"value": overhead, "unit": "1"}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
