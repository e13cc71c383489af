"""Readers for the files the CLI writes, a cache check for chain batches,
the gradient-only evaluation the sampler's interior leapfrog steps run, and
plain reference copies of the statistics fold. The package only writes
these files and never reads them back, so the readers live with the tests
that do."""

import numpy as np

from manychain.diagnostics import ROUNDOFF_ABS_LIMIT, ROUNDOFF_QUARTER_TOL


def read_trace_csv(path):
    """Returns (param_names, z (T, C, P), is_accepted (T, C), ratios (T, C)).
    A malformed row raises ValueError naming the file and its line."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header[:2] != ["chain", "draw"] or header[-2:] != ["is_accepted", "log_accept_ratio"]:
            raise ValueError(f"{path}: not a trace CSV")
        names = header[2:-2]
        # (line number, fields) of every non-blank row
        rows = [(n, line.rstrip("\n").split(",")) for n, line in enumerate(fh, 2) if line.strip()]
    if not rows:
        raise ValueError(f"{path}: trace CSV has no rows")
    p = len(names)
    for n, r in rows:
        # chain and draw indices, P parameters, a 0 or 1 accept flag, a ratio
        if len(r) != p + 4 or not (r[0].isdigit() and r[1].isdigit() and r[-2] in ("0", "1")):
            raise ValueError(f"{path}: line {n} is not a row of {p} parameters: {','.join(r)}")
    c = max(int(r[0]) for _, r in rows) + 1
    t = max(int(r[1]) for _, r in rows) + 1
    z = np.empty((t, c, p))
    acc = np.empty((t, c), dtype=bool)
    ratios = np.empty((t, c))
    seen = np.zeros((t, c), dtype=bool)
    for n, r in rows:
        ci, ti = int(r[0]), int(r[1])
        if seen[ti, ci]:
            raise ValueError(f"{path}: line {n} repeats chain {ci}, draw {ti}")
        seen[ti, ci] = True
        try:
            z[ti, ci] = [float(v) for v in r[2 : 2 + p]]
            ratios[ti, ci] = float(r[3 + p])
        except ValueError as e:
            raise ValueError(f"{path}: line {n}: {e}") from None
        acc[ti, ci] = r[2 + p] == "1"
    if not seen.all():
        ti, ci = np.argwhere(~seen)[0]
        raise ValueError(f"{path}: no row for chain {ci}, draw {ti}")
    return names, z, acc, ratios


def read_bench_csv(path):
    out = []
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != "chains,wall_seconds,draws_per_second":
            raise ValueError(f"{path}: not a bench CSV")
        for n, line in enumerate(fh, 2):
            if not line.strip():
                continue
            try:
                c, w, d = line.rstrip("\n").split(",")
                row = {"chains": int(c), "wall_seconds": float(w), "draws_per_second": float(d)}
            except ValueError:
                raise ValueError(f"{path}: line {n} is not a bench row: {line.rstrip()}") from None
            out.append(row)
    return out


def check_cache(batch, target):
    """Recompute value/grad at the batch's states and compare them exactly
    with its cache."""
    fresh = target.value_and_grad(batch.z)
    if not all(np.array_equal(f, c) for f, c in zip(fresh, (batch.value, batch.grad))):
        raise AssertionError("cached value/grad out of sync with states")


def grad_only(target, z):
    """The gradient alone, as interior leapfrog steps evaluate it: the hook
    target.evaluate(zb, False, True) on a (P,) state or (C, P) batch cast to
    the target's dtype; a (P,) state's gradient comes back unbatched."""
    z = np.asarray(z, dtype=target.dtype)
    zb = z[None, :] if z.ndim == 1 else z
    with np.errstate(over="ignore", invalid="ignore"):
        grad = target.evaluate(zb, False, True)[1]
    return grad[0] if z.ndim == 1 else grad


# The statistics fold as it was written before it moved to in-place and
# single-mask arithmetic; tests require the package's versions to give the
# same bits on every input, including infinite and NaN ratios.


def reference_roundoff_grid_hits(log_accept_ratios) -> int:
    r = np.asarray(log_accept_ratios, dtype=np.float64).ravel()
    moderate = np.isfinite(r) & (np.abs(r) < ROUNDOFF_ABS_LIMIT)
    q = 4.0 * r[moderate]
    return int((np.abs(q - np.round(q)) < ROUNDOFF_QUARTER_TOL).sum())


def reference_accept_probs_from_ratios(log_accept_ratios) -> np.ndarray:
    r = np.asarray(log_accept_ratios, dtype=np.float64)
    return np.clip(np.exp(np.minimum(r, 0.0)), 1e-10, 1.0)


def reference_harmonic_accept(log_accept_ratios) -> float:
    p = reference_accept_probs_from_ratios(log_accept_ratios)
    return float(p.size / (1.0 / p).sum())


def reference_welford_update(count, mean, m2, x):
    """(count, mean, m2) after folding in x."""
    x = np.asarray(x, dtype=np.float64)
    n = count + 1
    delta = x - mean
    mean = mean + delta / n
    m2 = m2 + delta * (x - mean)
    return n, mean, m2


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: NaN payloads and signed zeros count."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
