"""Dense linear algebra kernel on real and complex matrices.

Hermitian eigendecomposition with a reproducible phase convention, spectral
projectors, an SVD pseudo-inverse, and a general eigensolver used for
companion-linearized quadratic eigenproblems.  LAPACK (through numpy)
supplies the factorizations; this module owns validation, ordering and phase
normalization so that results are deterministic for fixed input.

The dtype follows the data.  ``as_matrix`` and ``require_hermitian``
return float64 for input with real entries and complex128 otherwise, and
complex input with an all-zero imaginary part is validated in float64.  A
Hermitian eigensolve or SVD whose input has an all-zero imaginary part runs
the real LAPACK driver on the real part (``_solver_input``), and the
eigenvectors it returns are float64 under the same phase convention: for
real vectors the rule is a sign flip.  The real driver's results may differ
from the complex driver's in the last digits.  ``pseudo_inverse`` and
``general_eig`` still return complex128.

``hermitian_part_eig_by_components`` solves a matrix whose nonzero pattern
falls apart into decoupled blocks one block at a time, and any other matrix
as ``hermitian_part_eig`` does.

``require_hermitian`` and ``hermitian_eigvals`` also take a stack (k, n, n)
of matrices, such as one matrix per shift of a scan.  Each matrix is checked
on its own scale and solved by the LAPACK routine it would get alone, and the
results equal k single calls bit for bit; the stack saves the per-call
overhead, which dominates at n <= 16.  A stack is validated and solved in
chunks of at most STACK_BYTES of complex128 matrices (``stack_chunks``):
without that cap, a stack of large matrices costs a multiple of their memory
in temporaries and runs slower than a loop once it spills the cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, NumericError
from .tolerance import HERMITIAN_REL, PHASE_ZERO_TOL, PINV_REL

# Budget of one validated chunk of a stack: at n = 200 it holds one complex
# matrix, so scans over blocks that large keep the memory of a loop.
STACK_BYTES = 1 << 20

__all__ = [
    "Interval",
    "SpectralDecomposition",
    "as_matrix",
    "require_hermitian",
    "stack_chunks",
    "hermitian_eig",
    "hermitian_part_eig",
    "hermitian_part_eig_by_components",
    "hermitian_eigvals",
    "spectral_projector",
    "pseudo_inverse",
    "general_eig",
    "spectral_distance",
    "operator_norm",
    "orthonormality_defect",
]

@dataclass(frozen=True)
class Interval:
    """Real interval with independently open or closed endpoints."""

    lo: float
    hi: float
    open_lo: bool = False
    open_hi: bool = False

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ArgumentError("interval endpoints must not be NaN")
        if self.lo > self.hi:
            raise ArgumentError(
                f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    def contains(self, x: float) -> bool:
        return bool(self.mask(x))

    def mask(self, x):
        """Membership of ``x``, elementwise when ``x`` is an array."""
        above_lo = x > self.lo if self.open_lo else x >= self.lo
        below_hi = x < self.hi if self.open_hi else x <= self.hi
        return above_lo & below_hi

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def __str__(self):
        left = "(" if self.open_lo else "["
        right = ")" if self.open_hi else "]"
        return f"{left}{self.lo:.12g}, {self.hi:.12g}{right}"


def _finite(x, ndims: tuple, square: bool) -> np.ndarray:
    """``x`` as a finite array of one of the ``ndims``, square in its last
    two axes if asked: float64 when its entries are real numbers, complex128
    otherwise."""
    arr = np.asarray(x)
    if arr.dtype != np.float64 and arr.dtype != np.complex128:
        arr = arr.astype(np.float64 if arr.dtype.kind in "biuf"
                         else np.complex128)
    if arr.ndim not in ndims:
        raise ArgumentError(f"expected a 2-D array, got ndim = {arr.ndim}")
    if arr.size and not np.isfinite(arr).all():
        raise ArgumentError("matrix entries must be finite (no NaN/Inf)")
    if square and arr.shape[-2] != arr.shape[-1]:
        raise ArgumentError(
            f"expected a square matrix, got shape {arr.shape[-2:]}")
    return arr


def as_matrix(x, square: bool = False) -> np.ndarray:
    """Validate ``x`` as a finite 2-D array: float64 when its entries are
    real numbers, complex128 otherwise."""
    return _finite(x, (2,), square)


def require_hermitian(mat) -> np.ndarray:
    """Check Hermiticity within HERMITIAN_REL * max|entry| and return the
    exact Hermitian part, in the dtype as_matrix gives the input.

    The returned matrix is (H + H*)/2, so downstream code can rely on exact
    symmetry.  A stack (k, n, n) is checked matrix by matrix, each against
    its own max|entry|, and the stack of Hermitian parts is returned.
    """
    arr = _finite(mat, (2, 3), True)
    if arr.size == 0:
        return arr.copy()
    real = arr.dtype == np.float64 or not arr.imag.any()
    part = arr.real if real else arr
    axes = None if arr.ndim == 2 else (-2, -1)
    tol = HERMITIAN_REL * np.abs(part).max(axis=axes)
    if real:  # one float64 temporary, freed before the result exists
        diff = part - part.swapaxes(-2, -1)
        defect = np.abs(diff, out=diff).max(axis=axes)
        del diff
    else:
        defect = np.abs(arr - arr.conj().swapaxes(-2, -1)).max(axis=axes)
    over = np.ravel(defect > tol)
    if over.any():
        first = over.argmax()
        raise ArgumentError(
            f"matrix is not Hermitian: defect {np.ravel(defect)[first]:.3e} "
            f"exceeds tol {np.ravel(tol)[first]:.3e}")
    if arr.dtype == np.float64:
        sym = arr + arr.swapaxes(-2, -1)
        sym *= 0.5
        return sym
    return 0.5 * (arr + arr.conj().swapaxes(-2, -1))


def stack_chunks(count: int, dim: int) -> list[slice]:
    """Consecutive slices of a stack of ``count`` matrices of order ``dim``,
    each holding at most STACK_BYTES of complex128 entries and at least one
    matrix; an empty stack gets one empty slice."""
    per = max(1, STACK_BYTES // max(1, 16 * dim * dim))
    return [slice(start, start + per) for start in range(0, max(count, 1), per)]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` ascend; ``vectors`` holds matching orthonormal
    eigenvectors as columns, phase-normalized so the first nonvanishing
    component of every column is real positive; they are float64 when the
    solved matrix was real.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.size)

    def window_mask(self, window: Interval) -> np.ndarray:
        return np.asarray(window.mask(self.eigenvalues), dtype=bool)


def _normalize_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first component above PHASE_ZERO_TOL is
    real positive; columns without one are returned unchanged.  Columns are
    unit vectors, so every column has a component well above the threshold.

    Real columns keep their dtype and change sign at most.  For complex
    columns the factor conj(p)/|p| is formed exactly as a numpy complex
    scalar divided by a real one would be, (conj(p) + 0i) * (1/|p|), so the
    result does not depend on whether columns are rotated one at a time or
    together.
    """
    vectors = np.asarray(vectors)
    if vectors.size == 0:
        return np.array(vectors, copy=True)
    big = np.abs(vectors) > PHASE_ZERO_TOL
    found = big.any(axis=0)
    pivots = vectors[big.argmax(axis=0), np.arange(vectors.shape[1])]
    if not np.iscomplexobj(vectors):
        return vectors * np.where(found & (pivots < 0.0), -1.0, 1.0)
    pivots[~found] = 1.0
    recip = 1.0 / np.hypot(pivots.real, pivots.imag)
    re, im = pivots.real, -pivots.imag
    factors = np.empty_like(pivots)
    factors.real = (re + im * 0.0) * recip
    factors.imag = (im - re * 0.0) * recip
    out = vectors * factors
    out[:, ~found] = vectors[:, ~found]
    return out


def _solver_input(mat: np.ndarray) -> np.ndarray:
    """``mat`` as float64 when its imaginary part is all zero (-0.0
    included), so LAPACK runs its real driver; ``mat`` itself otherwise."""
    return mat if np.count_nonzero(mat.imag) else mat.real


def _eigvalsh(herm: np.ndarray) -> np.ndarray:
    try:
        return np.asarray(np.linalg.eigvalsh(herm), dtype=float)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Hermitian eigensolve failed: {exc}") from exc


def hermitian_part_eig(herm: np.ndarray) -> SpectralDecomposition:
    """Full eigendecomposition of ``herm``, which must already be the exact
    Hermitian part require_hermitian returned, such as a stored block of a
    BlockOperatorMatrix; it is not validated again.  hermitian_eig validates
    its input and then solves it here.  A real ``herm`` gets float64
    vectors."""
    try:
        eigvals, eigvecs = np.linalg.eigh(_solver_input(herm))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Hermitian eigensolve failed: {exc}") from exc
    return SpectralDecomposition(eigenvalues=np.asarray(eigvals, dtype=float),
                                 vectors=_normalize_phases(eigvecs))


def _pattern_labels(herm: np.ndarray) -> np.ndarray | None:
    """The connected component of each index in the graph of the nonzero
    pattern of the square ``herm`` (i ~ j when herm[i, j] != 0), labelled by
    its smallest index; None when the pattern is connected.

    Every label starts at its own index, drops to the least label among
    itself and its neighbours, then jumps to the label of that label, until
    no label moves.  A label only falls and always names an index of the
    same component, and at the fixed point neighbours share their label.
    """
    n = herm.shape[0]
    pattern = herm != 0
    if n < 2 or pattern.all():
        return None
    pattern[np.diag_indices(n)] = True
    rows, cols = np.nonzero(pattern)
    starts = np.searchsorted(rows, np.arange(n))
    labels = np.arange(n)
    while True:
        hooked = np.minimum.reduceat(labels[cols], starts)
        hooked = hooked[hooked]
        if np.array_equal(hooked, labels):
            break
        labels = hooked
    return labels if labels.any() else None


def hermitian_part_eig_by_components(herm: np.ndarray) -> SpectralDecomposition:
    """hermitian_part_eig for an exact Hermitian part whose nonzero pattern
    may fall apart into decoupled diagonal blocks, such as a pointwise 2x2
    multiplication operator stored as one dense matrix.

    A connected pattern goes to hermitian_part_eig, so the result is its
    result bit for bit.  Otherwise each connected component of the pattern
    is solved on its own, all components of one size by one stacked LAPACK
    call, and each eigenvector is zero off its component.  The eigenvalues
    are sorted stably and the vectors phase-normalized as hermitian_part_eig
    does; both may differ from the dense solve's in the last digits, and
    eigenvalues shared by two components get eigenvectors confined to one.
    """
    labels = _pattern_labels(herm)
    if labels is None:
        return hermitian_part_eig(herm)
    solver_input = _solver_input(herm)
    n = herm.shape[0]
    # Indices grouped by component, ascending within each; firsts[k] is where
    # component k starts in members.  (np.unique would import numpy.ma.)
    members = np.argsort(labels, kind="stable")
    firsts = np.flatnonzero(np.diff(labels[members], prepend=-1))
    sizes = np.diff(firsts, append=n)
    values = np.empty(n)
    solved = []
    for size in sorted(set(sizes.tolist())):
        # idx[k] holds the indices of the k-th component of this size, in
        # ascending order; its eigenvalues take the slots idx[k] of values.
        idx = members[firsts[sizes == size][:, None] + np.arange(size)]
        try:
            eigvals, eigvecs = np.linalg.eigh(
                solver_input[idx[:, :, None], idx[:, None, :]])
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"Hermitian eigensolve failed: {exc}") from exc
        values[idx] = eigvals
        solved.append((idx, eigvecs))
    order = np.argsort(values, kind="stable")
    column = np.empty(n, dtype=np.intp)
    column[order] = np.arange(n)
    vectors = np.zeros((n, n), dtype=solver_input.dtype)
    for idx, eigvecs in solved:
        vectors[idx[:, :, None], column[idx][:, None, :]] = eigvecs
    return SpectralDecomposition(eigenvalues=values[order],
                                 vectors=_normalize_phases(vectors))


def hermitian_eig(mat) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian matrix.

    Raises ArgumentError for non-Hermitian input and NumericError if the
    underlying iteration fails to converge.  Real-valued input is solved by
    the real driver and gets float64 vectors.
    """
    herm = require_hermitian(mat)
    if herm.ndim != 2:
        raise ArgumentError(f"expected a 2-D array, got ndim = {herm.ndim}")
    return hermitian_part_eig(herm)


def hermitian_eigvals(mat) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, without eigenvectors.

    Validates like hermitian_eig.  The values come from a different LAPACK
    path than hermitian_eig's and may differ from them in the last digits.
    A stack (k, n, n) gives the (k, n) array whose row i is
    hermitian_eigvals(mat[i]); each chunk of ``stack_chunks`` is validated
    at once and solved by one LAPACK call per routine (real or complex).
    """
    arr = np.asarray(mat)
    if arr.ndim != 3:
        return _eigvalsh(_solver_input(require_hermitian(arr)))
    vals = np.empty(arr.shape[:2])
    for part in stack_chunks(*arr.shape[:2]):
        herm = require_hermitian(arr[part])
        cplx = (herm.imag != 0.0).any(axis=(1, 2))
        for mask, solver_input in ((cplx, herm), (~cplx, herm.real)):
            if mask.all():
                vals[part] = _eigvalsh(solver_input)
            elif mask.any():
                vals[part][mask] = _eigvalsh(solver_input[mask])
    return vals


def spectral_projector(dec: SpectralDecomposition, window: Interval) -> np.ndarray:
    """Orthogonal projector onto the span of eigenvectors with eigenvalue in ``window``."""
    cols = dec.vectors[:, dec.window_mask(window)]
    return cols @ cols.conj().T


def pseudo_inverse(mat) -> np.ndarray:
    """Moore-Penrose inverse; singular values below PINV_REL * sigma_max are
    dropped."""
    arr = as_matrix(mat)
    if arr.size == 0:
        return np.zeros((arr.shape[1], arr.shape[0]), dtype=np.complex128)
    u, s, vh = np.linalg.svd(_solver_input(arr), full_matrices=False)
    keep = s > PINV_REL * s[0] if s[0] > 0.0 else np.zeros(s.shape, dtype=bool)
    if not np.any(keep):
        return np.zeros((arr.shape[1], arr.shape[0]), dtype=np.complex128)
    pinv = (vh[keep].conj().T / s[keep]) @ u[:, keep].conj().T
    return pinv.astype(np.complex128, copy=False)


def general_eig(mat, return_vectors: bool = False):
    """Eigenvalues of a general square complex matrix, with multiplicity.

    Ordered by ascending real part, ties broken by ascending imaginary part.
    With ``return_vectors`` the matching (unit, phase-normalized) eigenvector
    columns are returned as well.
    """
    arr = as_matrix(mat, square=True)
    try:
        eigvals, eigvecs = np.linalg.eig(arr.astype(np.complex128, copy=False))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"general eigensolve failed: {exc}") from exc
    order = np.lexsort((eigvals.imag, eigvals.real))
    eigvals = eigvals[order]
    if not return_vectors:
        return eigvals
    return eigvals, _normalize_phases(eigvecs[:, order])


def spectral_distance(x, spectrum) -> float:
    """dist[x, spectrum] for a finite eigenvalue list; +inf for an empty list."""
    spec = np.atleast_1d(np.asarray(spectrum))
    if spec.size == 0:
        return float("inf")
    return float(np.min(np.abs(spec - x)))


def operator_norm(mat) -> float:
    """Largest singular value."""
    arr = as_matrix(mat)
    if arr.size == 0:
        return 0.0
    return float(np.linalg.norm(_solver_input(arr), 2))


def orthonormality_defect(cols) -> float:
    """‖Q*Q - I‖ for a set of columns; 0 means exactly orthonormal."""
    arr = as_matrix(cols)
    gram = arr.conj().T @ arr
    return float(np.linalg.norm(gram - np.eye(arr.shape[1]), 2)) if arr.size else 0.0
