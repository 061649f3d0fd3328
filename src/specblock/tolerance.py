"""Global tolerance policy.

Exact statements of the underlying analysis (strict inequalities, membership
of resolvent sets, ...) are realised as tolerance-guarded comparisons.  The
base scale defaults to 1e-10 and can be overridden through the SPECBLOCK_TOL
environment variable; ``matrix_tol`` and ``scalar_tol`` scale it to the data.
The fixed tolerances below do not follow SPECBLOCK_TOL; every computation and
report that uses one reads it from here.
"""

from __future__ import annotations

import os

import numpy as np

DEFAULT_BASE_TOL = 1e-10

SLACK = 1e-9                # distance bound, window margins, decay bound
GRAPH_TOL = 1e-8            # sigma_min(U) above it: a graph; also U's pinv cut
INDETERMINATE_TOL = 1e-10   # sigma_min(U) below it: not a graph
RIESZ_TOL = 1e-8            # Gram eigenvalues against [1/(1 + ||K||^2), 1]
PAIR_TOL = 1e-8             # smallest norm a vector can be aligned from
ORTH_TOL = 1e-8             # orthonormality defect of a trial basis
GRAPH_RESIDUAL_TOL = 1e-8   # ||K U - V|| of an angular operator
EIGVEC_RESIDUAL_REL = 1e-6  # eigenvector residual / ||M|| in the Riesz check
SOQ_MARGIN_REL = 1e-6       # enclosure intersection margin / max(1, |Re z|)
PHASE_ZERO_TOL = 1e-12      # smallest modulus that fixes an eigenvector phase
HERMITIAN_REL = 1e-12       # |H - H*| / max|entry| of a Hermitian matrix
PINV_REL = 1e-12            # default singular value cut / sigma_max of pinv
REAL_AXIS_REL = 1e-12       # |Im z| / max(1, |z|) snapped onto the real axis
ZERO_DECAY = 1e-12          # projection-decay norms that count as zero
BARI_DIP = 1e-15            # dip of Bari partial sums still nondecreasing


def base_tol() -> float:
    """Base tolerance, read from SPECBLOCK_TOL when set."""
    value = os.environ.get("SPECBLOCK_TOL")
    if value is None:
        return DEFAULT_BASE_TOL
    try:
        tol = float(value)
    except ValueError as exc:
        raise ValueError(f"SPECBLOCK_TOL is not a number: {value!r}") from exc
    if not tol > 0.0:
        raise ValueError("SPECBLOCK_TOL must be a positive number")
    return tol


def matrix_tol(mat) -> float:
    """Comparison tolerance for a matrix: base_tol * dim * max|entry|."""
    arr = np.asarray(mat)
    if arr.size == 0:
        return base_tol()
    dim = max(arr.shape)
    return base_tol() * dim * float(np.max(np.abs(arr)))


def scalar_tol(*values: float) -> float:
    """Comparison tolerance for scalar hypothesis checks, scaled to the data."""
    scale = 1.0
    for value in values:
        v = abs(float(value))
        if np.isfinite(v) and v > scale:
            scale = v
    return base_tol() * scale
