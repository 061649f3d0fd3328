"""Global tolerance policy.

Exact statements of the underlying analysis (strict inequalities, membership
of resolvent sets, ...) are realised as tolerance-guarded comparisons.
``matrix_tol`` and ``scalar_tol`` scale the base tolerance BASE_TOL to the
data, and ``scalar_tols`` is the one array form of ``scalar_tol``; the fixed
tolerances below are used as they stand.  Every computation and report that
uses a tolerance reads it from here, and no setting outside the input
changes one.
"""

from __future__ import annotations

import math

import numpy as np

BASE_TOL = 1e-10            # scaled by matrix_tol and scalar_tol
SLACK = 1e-9                # distance bound, window margins, decay bound
GRAPH_TOL = 1e-8            # sigma_min(U) above it: a graph
INDETERMINATE_TOL = 1e-10   # sigma_min(U) below it: not a graph
PAIR_TOL = 1e-8             # smallest norm a vector can be aligned from
ORTH_TOL = 1e-8             # orthonormality defect of a trial basis
EIGVEC_RESIDUAL_REL = 1e-6  # Riccati residual / (||M|| (1 + ||K||)^2) of a graph
SOQ_MARGIN_REL = 1e-6       # enclosure intersection margin / max(1, |Re z|)
PHASE_ZERO_TOL = 1e-12      # smallest modulus that fixes an eigenvector phase
HERMITIAN_REL = 1e-12       # |H - H*| / max|entry| of a Hermitian matrix
PINV_REL = 1e-12            # singular value cut / sigma_max of pinv
REAL_AXIS_REL = 1e-12       # |Im z| / max(1, |z|) snapped onto the real axis
ZERO_DECAY = 1e-12          # projection-decay norms that count as zero


def matrix_tol(mat) -> float:
    """Comparison tolerance for a matrix: BASE_TOL * dim * max|entry|."""
    arr = np.asarray(mat)
    if arr.size == 0:
        return BASE_TOL
    dim = max(arr.shape)
    return BASE_TOL * dim * float(np.max(np.abs(arr)))


def _scale(values) -> float:
    """max(1, |v|) over the finite ``values``."""
    scale = 1.0
    for value in values:
        v = abs(float(value))
        if math.isfinite(v) and v > scale:
            scale = v
    return scale


def scalar_tol(*values: float) -> float:
    """Comparison tolerance for scalar hypothesis checks, scaled to the data."""
    return BASE_TOL * _scale(values)


def scalar_tols(values, *scalars: float) -> np.ndarray:
    """scalar_tol(v, *scalars) at each element v of the array ``values``."""
    sizes = np.abs(values)
    return BASE_TOL * np.maximum(np.where(sizes < np.inf, sizes, 0.0),
                                 _scale(scalars))
