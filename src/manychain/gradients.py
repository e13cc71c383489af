"""The independent numerical check of a target's analytic gradient.

Targets carry their own analytic gradients (value_and_grad), derived by
chain rule through the exp reparameterization of the scales; this module is
the seam where a gradient can be validated against central finite
differences before anyone trusts it inside a trajectory.
"""

from __future__ import annotations

import numpy as np


def finite_difference_check(target, z, h: float = 1e-5) -> float:
    """The largest relative error, over the coordinates of z, of the
    analytic gradient against central differences: inf where either is not
    finite.

    Double precision only: in single precision the differences drown in
    rounding noise and the check would certify nothing.
    """
    if target.precision != "double":
        raise ValueError("finite_difference_check requires a double-precision target")
    if not (h > 0.0):
        raise ValueError(f"finite-difference step must be positive, got {h}")
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError(f"expected a single (P,) state, got shape {z.shape}")

    _, analytic = target.value_and_grad(z)
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.empty_like(analytic)
    # a step that overflows the density gives a non-finite derivative, and a
    # non-finite derivative on either side certifies nothing: infinite error
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(z.size):
            step = np.zeros_like(z)
            step[i] = h
            numeric[i] = (target.log_prob(z + step) - target.log_prob(z - step)) / (2.0 * h)
        abs_error = np.abs(analytic - numeric)
        denom = np.maximum(np.abs(analytic), np.abs(numeric))
        rel_error = np.where(denom > 0.0, abs_error / np.where(denom > 0.0, denom, 1.0), 0.0)
    rel_error[~(np.isfinite(analytic) & np.isfinite(numeric))] = np.inf
    return float(rel_error.max())
