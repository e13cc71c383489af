"""Tests of the benchmark's references and probes.

    python3 -m pytest perfbench/tests -q

Run from the root of a checkout; manychain is imported from src/.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import reference  # noqa: E402
import run  # noqa: E402
from manychain import diagnostics  # noqa: E402
from manychain.model import Dataset, ModelTarget, generate_synthetic  # noqa: E402
from manychain.prng import key_from_seed  # noqa: E402


def _states(rng, n, d):
    z = rng.normal(scale=0.7, size=(n, 1 + 2 * d))
    z[0] = 0.0
    return z


@pytest.mark.parametrize("seed", [0, 7])
def test_log_density_matches_model(seed):
    data = generate_synthetic(key_from_seed(seed), 300, 5, 0.4)
    target = ModelTarget(data)
    z = _states(np.random.default_rng(seed), 6, 5)
    ref, magnitude = reference.log_density(z, data.x, data.y)
    np.testing.assert_allclose(target.log_prob(z), ref, rtol=0.0, atol=1e-12 * magnitude.max())


def test_log_density_by_hand():
    # one feature, two rows, every scale at 1 (u = 0) and beta = 1
    data = Dataset(np.array([[1.0], [-2.0]]), np.array([1.0, 0.0]))
    z = np.array([[0.0, 0.0, 1.0]])
    gamma_at_1 = 0.5 * math.log(0.5) - math.lgamma(0.5) - 0.5  # Gamma(0.5, rate 0.5) at 1
    normal_at_1 = -0.5 * math.log(2.0 * math.pi) - 0.5
    bernoulli = -math.log1p(math.exp(-1.0)) - math.log1p(math.exp(-2.0))
    expected = 2.0 * gamma_at_1 + normal_at_1 + bernoulli
    value, _ = reference.log_density(z, data.x, data.y)
    assert value[0] == pytest.approx(expected, rel=1e-14)
    assert ModelTarget(data).log_prob(z[0]) == pytest.approx(expected, rel=1e-14)


def _ar1(rng, phi, t, c):
    x = np.empty((t, c))
    x[0] = rng.normal(size=c) / math.sqrt(1.0 - phi * phi)
    for i in range(1, t):
        x[i] = phi * x[i - 1] + rng.normal(size=c)
    return x


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.9])
def test_mixing_diagnostics_match_manychain(phi):
    draws = _ar1(np.random.default_rng(3), phi, 301, 8)
    assert reference.split_rhat(draws) == pytest.approx(diagnostics.split_rhat(draws), rel=1e-12)
    assert reference.ess(draws) == pytest.approx(diagnostics.ess(draws), rel=1e-10)


def test_mixing_diagnostics_properties():
    rng = np.random.default_rng(11)
    iid = rng.normal(size=(2000, 16))
    assert reference.split_rhat(iid) == pytest.approx(1.0, abs=0.01)
    assert reference.ess(iid) == pytest.approx(iid.size, rel=0.15)
    # AR(1) with coefficient phi: ESS -> C T (1 - phi) / (1 + phi)
    ar = _ar1(rng, 0.8, 4000, 16)
    assert reference.ess(ar) == pytest.approx(ar.size / 9.0, rel=0.2)
    shifted = iid.copy()
    shifted[:, :8] += 1.0  # half the chains sit elsewhere
    assert reference.split_rhat(shifted) > 1.1


def test_reference_seconds_and_expected_length():
    cmd = run.Command(args=[], output=Path("."), exit=0, t_spawn=0.0)
    # calibration runs at 0 s (took 1 x CALIBRATION_S) and 1 s (took 2 x)
    unit = run.CALIBRATION_S
    cmd.record = {"calibration": [[0.0, unit], [1.0, 2.0 * unit]],
                  "steps": [[0.1, 2, 4.5], [0.3, 7, 4.5], [0.6, 4, 4.5]],
                  "passes": [{"t0": 0.05, "t1": 0.9}]}
    assert cmd.seconds(unit, 1.0, reference=False) == pytest.approx(1.0 - unit)
    assert cmd.seconds(unit, 1.0) == pytest.approx(1.0 - unit)
    after = 1.0 + 2.0 * unit
    assert cmd.seconds(after, after + 1.0) == pytest.approx(0.5)  # machine ran at half speed
    assert cmd.seconds(0.5, 1.5, reference=False) == pytest.approx(1.0 - 2.0 * unit)
    # iterations of 2 and 7 steps took 0.2 s and 0.3 s: 0.02 s per step
    assert cmd.leapfrog_cost == pytest.approx(0.02)
    assert cmd.at_expected_length(1.0) == pytest.approx(1.0 - 0.02 * (2 + 7 + 4 - 3 * 4.5))


def _sample(tmp_path, trace: int) -> Path:
    out = tmp_path / f"trace{trace}"
    cmd = [sys.executable, str(HERE / "child.py"), str(tmp_path / f"rec{trace}"), str(trace),
           "--", "sample", "synthetic:200,6,0.5", "--chains", "20", "--warmup", "30",
           "--draws", "12", "--leapfrog-steps", "4", "--threads", "2", "--seed", "5",
           "--output", str(out)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(cmd, env=env, check=True, timeout=120, capture_output=True)
    return out


def test_traced_run_writes_identical_outputs(tmp_path):
    plain, traced = _sample(tmp_path, 0), _sample(tmp_path, 1)
    for name in ("trace.csv", "diagnostics.json"):
        assert (plain / name).read_bytes() == (traced / name).read_bytes()

    counts = json.loads((tmp_path / "rec1.json").read_text())["counts"]
    # names sampler imported from prng are timed under prng
    assert counts["prng.fold_in.calls"] == 20 * (30 + 12)
    assert counts["sampler.proposals"] == 20 * (30 + 12)
    assert counts["sampler.hmc_step.self_s"] < counts["sampler.hmc_step.s"]
    assert counts["model.value_and_grad.rows"] >= counts["sampler.leapfrog_steps"]
    assert counts["sampler.pool_map.calls"] == 30 + 12
    assert counts["cli.write_trace_csv.bytes"] == (traced / "trace.csv").stat().st_size
    assert "counts" not in json.loads((tmp_path / "rec0.json").read_text())
