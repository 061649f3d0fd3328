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

A ``SpectralDecomposition`` keeps the eigenvectors as the solver returned
them and phase-normalizes them on the first read of ``vectors``, so a caller
that reads only eigenvalues pays for no normalization; the result is the
same bits the eager normalization gave.

``require_hermitian`` validates one 2-D matrix from outside the program and
returns its exact Hermitian part; matrices built from such parts and real
scalars go straight to the ``hermitian_part_*`` solvers, which check
finiteness only.  ``hermitian_part_eigvals`` also takes a stack (k, n, n),
such as one matrix per shift of a scan, and equals k single calls bit for
bit without their per-call overhead, which dominates at n <= 16.  Callers
solve long stacks in chunks of at most STACK_BYTES of complex128 matrices
(``stack_chunks``): larger stacks cost a multiple of their memory in
temporaries and run slower than a loop once they spill the cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, NumericError
from .tolerance import HERMITIAN_REL, PHASE_ZERO_TOL, PINV_REL

# Budget of one chunk of a stacked solve: at n = 200 it holds one complex
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
    "hermitian_part_eigvals",
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
        rows, cols = ("n", "n") if square else ("m", "n")
        shapes = {2: f"a matrix ({rows}, {cols})",
                  3: f"a stack (k, {rows}, {cols}) of matrices"}
        raise ArgumentError(
            f"expected {' or '.join(shapes[d] for d in ndims)}, "
            f"got ndim = {arr.ndim}")
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
    symmetry.
    """
    arr = as_matrix(mat, square=True)
    if arr.size == 0:
        return arr.copy()
    real = arr.dtype == np.float64 or not arr.imag.any()
    part = arr.real if real else arr
    tol = HERMITIAN_REL * np.abs(part).max()
    if real:  # one float64 temporary, freed before the result exists
        diff = part - part.T
        defect = np.abs(diff, out=diff).max()
        del diff
    else:
        defect = np.abs(arr - arr.conj().T).max()
    if defect > tol:
        raise ArgumentError(
            f"matrix is not Hermitian: defect {defect:.3e} "
            f"exceeds tol {tol:.3e}")
    if arr.dtype == np.float64:
        sym = arr + arr.T
        sym *= 0.5
        return sym
    return 0.5 * (arr + arr.conj().T)


def stack_chunks(count: int, dim: int) -> list[slice]:
    """Consecutive slices of a stack of ``count`` matrices of order ``dim``,
    each holding at most STACK_BYTES of complex128 entries and at least one
    matrix; an empty stack gets one empty slice."""
    per = max(1, STACK_BYTES // max(1, 16 * dim * dim))
    return [slice(start, start + per) for start in range(0, max(count, 1), per)]


class SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` ascend; ``vectors`` holds matching orthonormal
    eigenvectors as columns, phase-normalized so the first nonvanishing
    component of every column is real positive; they are float64 when the
    solved matrix was real.  The solver's columns are kept as they came and
    normalized on the first read of ``vectors``, which forms them once.
    """

    __slots__ = ("eigenvalues", "_raw", "_vectors", "_read_only")

    def __init__(self, eigenvalues: np.ndarray, raw_vectors: np.ndarray):
        """``raw_vectors`` are the solver's columns, which the first read of
        ``vectors`` normalizes in place when they are real."""
        self.eigenvalues = eigenvalues
        self._raw = raw_vectors
        self._vectors = None
        self._read_only = False

    @property
    def vectors(self) -> np.ndarray:
        if self._vectors is None:
            vectors = _normalize_phases(self._raw)
            if self._read_only:
                vectors.flags.writeable = False
            self._vectors, self._raw = vectors, None
        return self._vectors

    def freeze(self) -> SpectralDecomposition:
        """Make the eigenvalues read-only, and the vectors too, now or when
        they are formed; returns the decomposition."""
        self.eigenvalues.flags.writeable = False
        self._read_only = True
        if self._vectors is not None:
            self._vectors.flags.writeable = False
        return self

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.size)

    def window_mask(self, window: Interval) -> np.ndarray:
        return np.asarray(window.mask(self.eigenvalues), dtype=bool)


def _normalize_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first component above PHASE_ZERO_TOL is
    real positive; columns without one are returned unchanged.  Columns are
    unit vectors, so every column has a component well above the threshold.

    Real columns change sign at most, in place: the result is ``vectors``,
    which callers take fresh from a solver, and no |v| is formed.  For
    complex columns the factor conj(p)/|p| is formed exactly as a numpy
    complex scalar divided by a real one would be, (conj(p) + 0i) * (1/|p|),
    so the result does not depend on whether columns are rotated one at a
    time or together.
    """
    vectors = np.asarray(vectors)
    if vectors.size == 0:
        return np.array(vectors, copy=True)
    cols = np.arange(vectors.shape[1])
    if not np.iscomplexobj(vectors):  # |v| > t iff v > t or v < -t
        big = np.greater(vectors, PHASE_ZERO_TOL)
        big |= np.less(vectors, -PHASE_ZERO_TOL)
        rows = big.argmax(axis=0)
        flip = big[rows, cols] & (vectors[rows, cols] < 0.0)
        return np.multiply(vectors, np.where(flip, -1.0, 1.0), out=vectors)
    big = np.abs(vectors) > PHASE_ZERO_TOL
    found = big.any(axis=0)
    pivots = vectors[big.argmax(axis=0), cols]
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
    if not np.iscomplexobj(mat) or np.count_nonzero(mat.imag):
        return mat
    return mat.real


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
    return SpectralDecomposition(np.asarray(eigvals, dtype=float), eigvecs)


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
    return SpectralDecomposition(values[order], vectors)


def hermitian_eig(mat) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian matrix.

    Raises ArgumentError for non-Hermitian input and NumericError if the
    underlying iteration fails to converge.  Real-valued input is solved by
    the real driver and gets float64 vectors.
    """
    return hermitian_part_eig(require_hermitian(mat))


def hermitian_part_eigvals(herm) -> np.ndarray:
    """Ascending eigenvalues of an exact Hermitian part as require_hermitian
    returns it, or the (k, n) rows of a stack of them, each matrix solved by
    the LAPACK routine (real or complex) it would get alone; only finiteness
    is checked.  They may differ from hermitian_part_eig's in the last
    digits."""
    herm = _finite(herm, (2, 3), True)
    if herm.ndim == 2 or herm.dtype == np.float64:
        return _eigvalsh(_solver_input(herm))
    vals = np.empty(herm.shape[:2])
    cplx = (herm.imag != 0.0).any(axis=(1, 2))
    for mask, solver_input in ((cplx, herm), (~cplx, herm.real)):
        if mask.any():
            vals[mask] = _eigvalsh(solver_input[mask])
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
    columns are returned as well; without, no eigenvectors are computed.
    """
    arr = as_matrix(mat, square=True).astype(np.complex128, copy=False)
    try:
        eigvals, eigvecs = (np.linalg.eig(arr) if return_vectors
                            else (np.linalg.eigvals(arr), None))
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
