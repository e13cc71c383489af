"""End-to-end CLI behavior through in-process main() calls.

Everything here goes through the same argv surface a shell user sees; the
emitted files are read back with the readers in testkit, and
diagnostics.json with json."""

import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import manychain.cli as cli
from manychain.cli import (
    UsageError,
    build_dataset,
    build_target,
    initial_states,
    main,
    write_bench_csv,
    write_trace_csv,
)
from manychain.model import GaussianTarget, ModelTarget
from manychain.prng import key_from_seed
from testkit import read_bench_csv, read_trace_csv

DATA_DIR = Path(__file__).parent / "data"
SMALL_CSV = str(DATA_DIR / "small.csv")

SCHEMA_KEYS = {
    "rhat", "ess", "ess_tau", "esjd", "chees",
    "mean_accept_harmonic", "roundoff_flag_fraction",
}


def run_sample(tmp_path, name, *extra):
    out = tmp_path / name
    argv = ["sample", *extra, "--output", str(out)]
    assert main(argv) == 0
    return out


def test_sample_gaussian_full_retention(tmp_path):
    out = run_sample(
        tmp_path, "g",
        "gaussian:6", "--chains", "4", "--draws", "32", "--warmup", "30",
        "--seed", "3",
    )
    report = json.loads((out / "diagnostics.json").read_text())
    assert set(report) == SCHEMA_KEYS
    assert len(report["rhat"]) == 6
    assert len(report["ess"]) == 6
    assert report["ess_tau"] is None  # only the regression target has a tau
    assert 0.0 < report["mean_accept_harmonic"] <= 1.0

    names, z, acc, ratios = read_trace_csv(out / "trace.csv")
    assert names == [f"z{j}" for j in range(6)]
    assert z.shape == (32, 4, 6)
    assert acc.shape == (32, 4) and acc.dtype == bool
    assert ratios.shape == (32, 4)
    assert np.isfinite(z).all()


def test_sample_regression_reports_tau_ess(tmp_path):
    out = run_sample(
        tmp_path, "s",
        "synthetic:200,6,0.5", "--chains", "8", "--draws", "32",
        "--warmup", "40", "--step-size", "0.05",
    )
    report = json.loads((out / "diagnostics.json").read_text())
    assert report["ess_tau"] is not None and report["ess_tau"] > 0
    names, z, _, _ = read_trace_csv(out / "trace.csv")
    assert names[0] == "u_tau" and len(names) == 13


def test_sample_moments_only_retention(tmp_path):
    out = run_sample(
        tmp_path, "m",
        "gaussian:4", "--chains", "4", "--draws", "64", "--warmup", "30",
        "--retention", "moments-only",
    )
    assert not (out / "trace.csv").exists()
    report = json.loads((out / "diagnostics.json").read_text())
    assert set(report) == SCHEMA_KEYS
    assert report["ess"] is None and report["ess_tau"] is None
    assert len(report["rhat"]) == 4


def test_sample_byte_identical_reruns_and_threads(tmp_path):
    args = [
        "synthetic:200,6,0.5", "--chains", "20", "--draws", "16",
        "--warmup", "16", "--leapfrog-steps", "3", "--step-size", "0.05",
        "--seed", "11",
    ]
    a = run_sample(tmp_path, "a", *args, "--threads", "1")
    b = run_sample(tmp_path, "b", *args, "--threads", "1")
    c = run_sample(tmp_path, "c", *args, "--threads", "2")  # two 16-row blocks: 16 + 4 chains
    trace = (a / "trace.csv").read_bytes()
    assert trace == (b / "trace.csv").read_bytes()
    assert trace == (c / "trace.csv").read_bytes()
    report = (a / "diagnostics.json").read_bytes()
    assert report == (b / "diagnostics.json").read_bytes()
    assert report == (c / "diagnostics.json").read_bytes()


def test_sample_usage_errors(tmp_path, capsys, monkeypatch):
    # the output directory is made before the model selector is read, so a
    # bad selector leaves the default one behind: keep it out of the checkout
    monkeypatch.chdir(tmp_path)
    assert main(["sample", "gaussian:4", "--draws", "0"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["sample", "gaussian:4", "--chains", "0"]) == 2
    assert main(["sample", "gaussian:4", "--warmup", "-5", "--no-adapt"]) == 2
    assert "--warmup" in capsys.readouterr().err
    assert main(["sample", "nonsense"]) == 2
    assert main(["sample", "german-credit:/no/such/file.csv"]) == 2
    assert main(["sample", "synthetic:10,4"]) == 2  # missing sparsity
    assert main(["sample", "synthetic:a,4,0.5"]) == 2
    assert "could not parse synthetic selector" in capsys.readouterr().err
    assert main(["sample", "gaussian:4", "--retention", "moments-only", "--draws", "1"]) == 2
    assert "need at least 2 draws" in capsys.readouterr().err
    # a Gaussian target takes no thread count, but the flag is still checked
    assert main(["sample", "gaussian:4", "--threads", "0"]) == 2
    assert "--threads must be >= 1" in capsys.readouterr().err
    # streaming R-hat needs two chains: rejected before any sampling
    assert main(["sample", "gaussian:4", "--chains", "1", "--retention", "moments-only"]) == 2
    assert "at least 2 chains" in capsys.readouterr().err
    run_sample(tmp_path, "one", "gaussian:4", "--chains", "1", "--draws", "16", "--warmup", "20")


@pytest.mark.parametrize("retention", ["full", "moments-only"])
def test_sample_where_no_chain_moves_has_no_rhat(tmp_path, capsys, retention):
    """Every proposal of a huge step is rejected, so every chain stays at its
    start: both retentions refuse R-hat alike and write no file into the
    output directory, which is made before the run."""
    out = tmp_path / "stuck"
    assert main(["sample", "gaussian:4", "--chains", "3", "--draws", "20", "--warmup", "0",
                 "--no-adapt", "--step-size", "1e6", "--seed", "1",
                 "--retention", retention, "--output", str(out)]) == 2
    assert "no chain moved" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_unwritable_outputs_are_errors_not_tracebacks(tmp_path, capsys, monkeypatch):
    """An output path that cannot be written exits 2 with an error line. The
    sample command finds out before it builds its target, not after the run."""
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    missing = tmp_path / "no" / "such" / "dir"
    for argv in (
        ["bench-chains", "gaussian:2", "--chain-list", "1", "--draws-per-chain", "2",
         "--output", str(missing / "bench.csv")],
        ["precision-demo", "--model", f"german-credit:{SMALL_CSV}", "--replication", "1",
         "--steps", "2", "--output", str(missing / "demo.json")],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: [Errno 2] No such file or directory: '{missing}" in err

    def no_target(*args):
        raise AssertionError("built the target before making the output directory")

    monkeypatch.setattr(cli, "build_target", no_target)
    assert main(["sample", "gaussian:2", "--output", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert taken.read_text() == "not a directory\n"


def test_memory_exhaustion_is_an_error_not_a_traceback(tmp_path, capsys):
    """A run too large to allocate exits 2 with an error line, and
    bench-chains keeps going with a NaN row for that count. The sizes ask
    numpy for exabytes, which it refuses before allocating anything."""
    huge = "100000000000000000"
    for argv in (
        ["sample", "gaussian:4", "--chains", huge, "--draws", "10", "--warmup", "0",
         "--output", str(tmp_path / "run")],
        ["grad-check", "gaussian:3", "--states", huge],
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: out of memory: ")
    out = tmp_path / "bench.csv"
    assert main(["bench-chains", "gaussian:4", "--chain-list", f"2,{huge}",
                 "--draws-per-chain", "2", "--output", str(out)]) == 0
    assert f"chains={huge}: allocation failed" in capsys.readouterr().err
    rows = read_bench_csv(out)
    assert rows[0]["draws_per_second"] > 0 and np.isnan(rows[1]["draws_per_second"])


def test_grad_check_exit_codes(capsys, monkeypatch):
    assert main(["grad-check", "gaussian:8", "--fd-step", "0.01",
                 "--threshold", "1e-8"]) == 0
    out = capsys.readouterr().out
    assert "OK" in out

    # an impossible threshold must fail loudly, not pass quietly
    assert main(["grad-check", "synthetic:100,4,0.5", "--states", "5",
                 "--threshold", "1e-14"]) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.err

    # a step that overflows the density makes every numeric derivative NaN:
    # that certifies nothing, so it fails rather than reading as zero error
    assert main(["grad-check", "gaussian:3", "--fd-step", "1e308", "--states", "2"]) == 1
    captured = capsys.readouterr()
    assert "max relative gradient error: inf" in captured.out
    assert "FAIL" in captured.err and "OK" not in captured.out

    assert main(["grad-check", "gaussian:4", "--states", "0"]) == 2
    assert main(["grad-check", "gaussian:4", "--fd-step", "0"]) == 2
    assert "--fd-step must be positive" in capsys.readouterr().err
    # a threshold nothing can exceed, or everything exceeds, is a usage error
    for threshold in ("nan", "inf", "0", "-1"):
        assert main(["grad-check", "gaussian:4", "--threshold", threshold]) == 2
        assert "--threshold must be positive and finite" in capsys.readouterr().err

    def no_target(*args):
        raise AssertionError("built the target before checking the flags")

    monkeypatch.setattr(cli, "build_target", no_target)
    for flag, value in (("--states", "0"), ("--fd-step", "nan"), ("--fd-step", "inf"),
                        ("--threshold", "nan")):
        assert main(["grad-check", "synthetic:200000,40,0.5", flag, value]) == 2
    assert "--fd-step must be positive and finite, got inf" in capsys.readouterr().err


def test_bench_chains_csv(tmp_path, capsys):
    # the header shows the threads the target runs on: a Gaussian runs on one
    for model, threads, shown in [("gaussian:4", "1", 1), ("gaussian:4", "4", 1),
                                  ("synthetic:40,3,0.5", "2", 2)]:
        out = tmp_path / "bench.csv"
        rc = main([
            "bench-chains", model, "--chain-list", "1,2,4",
            "--draws-per-chain", "8", "--threads", threads, "--output", str(out),
        ])
        assert rc == 0
        assert f"threads={shown}\n" in capsys.readouterr().out
        rows = read_bench_csv(out)
        assert [r["chains"] for r in rows] == [1, 2, 4]
        for r in rows:
            assert r["wall_seconds"] > 0
            assert r["draws_per_second"] > 0


def test_bench_chains_usage_errors():
    assert main(["bench-chains", "gaussian:4", "--chain-list", "2,x"]) == 2
    assert main(["bench-chains", "gaussian:4", "--chain-list", ""]) == 2
    assert main(["bench-chains", "gaussian:4", "--draws-per-chain", "0"]) == 2
    assert main(["bench-chains", "gaussian:4", "--threads", "0"]) == 2


def test_precision_demo_small_csv(tmp_path, capsys):
    """K = 1 on the committed 32-row CSV: magnitudes are tiny, so both accept
    paths must agree with the double oracle and raise no roundoff flags. The
    below-threshold warning still appears."""
    out = tmp_path / "demo.json"
    rc = main([
        "precision-demo", "--model", f"german-credit:{SMALL_CSV}",
        "--replication", "1", "--step-size", "0.1", "--steps", "10",
        "--output", str(out),
    ])
    assert rc == 0
    captured = capsys.readouterr()
    assert "does not exceed 2^24" in captured.err

    result = json.loads(out.read_text())
    assert result["replication"] == 1
    assert result["total_rows"] == 32
    assert result["naive_flag_fraction"] == 0.0
    assert result["stable_flag_fraction"] == 0.0
    assert result["max_abs_err_naive"] <= 1e-4
    assert result["max_abs_err_stable"] <= 1e-4


def test_precision_demo_usage_errors():
    assert main(["precision-demo", "--steps", "0"]) == 2
    assert main(["precision-demo", "--replication", "-1"]) == 2
    assert main(["precision-demo", "--step-size", "-0.1"]) == 2
    assert main(["precision-demo", "--step-size", "nan"]) == 2


@pytest.mark.parametrize("leapfrog_steps", ["2", "8"])  # rejected only / overflowing
def test_precision_demo_every_proposal_diverged(capsys, leapfrog_steps):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["precision-demo", "--model", f"german-credit:{SMALL_CSV}",
                   "--replication", "1", "--step-size", "1e8", "--steps", "10",
                   "--leapfrog-steps", leapfrog_steps])
    assert rc == 2
    assert "every proposal diverged" in capsys.readouterr().err


def test_precision_demo_some_proposals_diverged(tmp_path, monkeypatch):
    """At this step size some but not all of the 40 transitions diverge (26
    of 40: their float32 trajectories overflow; a float64 total of float32
    terms does not); the demo reports over the finite ones and leaks no
    warning."""
    sinks = []

    class RecordingSink(cli._DemoSink):
        def __init__(self, *args):
            super().__init__(*args)
            sinks.append(self)

    monkeypatch.setattr(cli, "_DemoSink", RecordingSink)
    out = tmp_path / "demo.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["precision-demo", "--model", f"german-credit:{SMALL_CSV}",
                   "--replication", "1", "--step-size", "30.4", "--steps", "10",
                   "--chains", "4", "--leapfrog-steps", "8", "--output", str(out)])
    assert rc == 0
    (demo,) = sinks
    diverged = np.isneginf(np.stack(demo.oracle))
    assert diverged.size == 40 and 0 < diverged.sum() < 40
    result = json.loads(out.read_text())
    assert np.isfinite(result["max_abs_err_naive"])
    assert np.isfinite(result["max_abs_err_stable"])


def test_trace_csv_round_trip(tmp_path):
    rng = np.random.default_rng(30)
    z = rng.normal(size=(9, 3, 2))
    acc = rng.random(size=(9, 3)) < 0.5
    ratios = rng.normal(size=(9, 3))
    path = tmp_path / "t.csv"
    write_trace_csv(path, ["a", "b"], z, acc, ratios)
    names, z2, acc2, ratios2 = read_trace_csv(path)
    assert names == ["a", "b"]
    np.testing.assert_array_equal(z, z2)  # repr round-trips doubles exactly
    np.testing.assert_array_equal(acc, acc2)
    np.testing.assert_array_equal(ratios, ratios2)

    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2\n")
    with pytest.raises(ValueError, match="not a trace CSV"):
        read_trace_csv(bad)


def test_trace_csv_with_a_missing_repeated_or_short_row_is_an_error(tmp_path):
    """Every (chain, draw) pair must have exactly one row of P + 4 fields;
    a gap would otherwise come back as uninitialised memory."""
    rng = np.random.default_rng(31)
    path = tmp_path / "t.csv"
    write_trace_csv(path, ["a", "b"], rng.normal(size=(8, 7, 2)),
                    np.ones((8, 7), dtype=bool), rng.normal(size=(8, 7)))
    header, *rows = path.read_text().splitlines(keepends=True)
    row = next(i for i, r in enumerate(rows) if r.startswith("3,7,"))
    cases = {
        "missing": (rows[:row] + rows[row + 1:], "no row for chain 3, draw 7"),
        "repeated": (rows + [rows[row]], "line 58 repeats chain 3, draw 7"),
        "short": (rows[:row] + ["3,7,0.5,1,0.0\n"] + rows[row + 1:], "line 33 is not a row"),
        "long": (rows[:row] + [rows[row].rstrip() + ",1.0\n"] + rows[row + 1:],
                 "line 33 is not a row"),
    }
    for name, (body, message) in cases.items():
        bad = tmp_path / f"{name}.csv"
        bad.write_text(header + "".join(body))
        with pytest.raises(ValueError, match=f"{name}.csv: {message}"):
            read_trace_csv(bad)


def test_trace_csv_with_a_bad_field_names_its_line(tmp_path):
    """A non-numeric field or an accept flag other than 0 or 1 is an error
    that names the file and the line, never a bare conversion message or a
    silent False."""
    rng = np.random.default_rng(32)
    path = tmp_path / "t.csv"
    write_trace_csv(path, ["a", "b"], rng.normal(size=(4, 3, 2)),
                    np.ones((4, 3), dtype=bool), rng.normal(size=(4, 3)))
    header, *rows = path.read_text().splitlines(keepends=True)
    cases = {
        "chain": ("x,1,0.5,0.5,1,-0.1\n", "line 3 is not a row"),
        "draw": ("0,-1,0.5,0.5,1,-0.1\n", "line 3 is not a row"),
        "flag": ("0,1,0.5,0.5,7,-0.1\n", "line 3 is not a row"),
        "param": ("0,1,abc,0.5,1,-0.1\n", "line 3: could not convert string to float: 'abc'"),
        "ratio": ("0,1,0.5,0.5,0,oops\n", "line 3: could not convert string to float: 'oops'"),
    }
    for name, (row, message) in cases.items():
        bad = tmp_path / f"{name}.csv"
        bad.write_text(header + rows[0] + row + "".join(rows[2:]))
        with pytest.raises(ValueError, match=f"{name}.csv: {message}"):
            read_trace_csv(bad)


def per_cell_trace_csv(path, param_names, z_trace, is_accepted, log_accept_ratios):
    """The trace layout written one cell at a time, repr(float(v)) a float."""
    t, c, _ = z_trace.shape
    with open(path, "w") as fh:
        fh.write(",".join(["chain", "draw", *param_names, "is_accepted", "log_accept_ratio"])
                 + "\n")
        for ci in range(c):
            for ti in range(t):
                cells = [str(ci), str(ti)] + [repr(float(v)) for v in z_trace[ti, ci]]
                cells.append("1" if is_accepted[ti, ci] else "0")
                cells.append(repr(float(log_accept_ratios[ti, ci])))
                fh.write(",".join(cells) + "\n")


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_trace_csv_bytes_match_a_per_cell_writer(tmp_path, dtype):
    rng = np.random.default_rng(31)
    z = rng.normal(size=(12, 11, 3)) * 10.0 ** rng.integers(-8, 8, size=(12, 11, 3))
    z[0, 0] = [-0.0, 5e-324, 1e300]
    z[1, 2] = [-1e300, 0.1, 1.0]
    ratios = rng.normal(size=(12, 11))
    ratios[[2, 5, 7], [0, 10, 3]] = -np.inf
    ratios[3, 4] = -0.0
    ratios[4, 4] = 5e-324
    acc = ratios > 0.0
    with np.errstate(over="ignore"):
        z = z.astype(dtype)  # 1e300 becomes inf in float32
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_trace_csv(new, ["a", "b", "c"], z, acc, ratios)
    per_cell_trace_csv(old, ["a", "b", "c"], z, acc, ratios)
    assert new.read_bytes() == old.read_bytes()
    assert b"-inf" in new.read_bytes() and b",-0.0," in new.read_bytes()


def test_bench_csv_round_trip(tmp_path):
    rows = [
        {"chains": 1, "wall_seconds": 0.5, "draws_per_second": 128.0},
        {"chains": 64, "wall_seconds": float("nan"), "draws_per_second": float("nan")},
    ]
    path = tmp_path / "b.csv"
    write_bench_csv(path, rows)
    back = read_bench_csv(path)
    assert back[0] == rows[0]
    assert back[1]["chains"] == 64
    assert np.isnan(back[1]["wall_seconds"])  # failed row survives the trip

    with pytest.raises(ValueError, match="not a bench CSV"):
        read_bench_csv(SMALL_CSV)


@pytest.mark.parametrize("row", ["1,0.5", "1,0.5,2.0,3", "x,0.5,2.0"])
def test_bench_csv_with_a_malformed_row_names_its_line(tmp_path, row):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"chains,wall_seconds,draws_per_second\n1,0.5,2.0\n\n{row}\n")
    with pytest.raises(ValueError, match=re.escape(f"{bad}: line 4 is not a bench row: {row}")):
        read_bench_csv(bad)


def test_build_target_selectors():
    key = key_from_seed(0)
    assert isinstance(build_target("gaussian:12", "double", key), GaussianTarget)
    t = build_target("synthetic:50,3,0.5", "single", key)
    assert isinstance(t, ModelTarget) and t.precision == "single"
    t2 = build_target(f"german-credit:{SMALL_CSV}", "double", key)
    assert t2.dataset.num_rows == 32

    for bad in ("gaussian", "gaussian:x", "synthetic:10", "mystery:4"):
        with pytest.raises(UsageError):
            build_target(bad, "double", key)
    with pytest.raises(UsageError):
        build_dataset("gaussian:4", key)  # no dataset behind the harness


def test_initial_states_deterministic():
    key = key_from_seed(5)
    a = initial_states(key, 6, 3)
    b = initial_states(key, 6, 3)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (6, 3)
    assert np.abs(a).max() < 4.0  # 0.5 sigma start keeps chains near the mode
