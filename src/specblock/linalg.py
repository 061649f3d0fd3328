"""Dense linear algebra kernel on real and complex matrices.

Hermitian eigendecomposition, spectral projectors, an SVD pseudo-inverse,
and a general eigensolver used for companion-linearized quadratic
eigenproblems.  LAPACK (through numpy) supplies the factorizations, and
this module is the program's one door to it: every Hermitian eigensolve,
SVD and general eigensolve of the package is called here, and a LAPACK
failure leaves it as NumericError.  Eigenvectors are the columns LAPACK
returned, with whatever unit phase it gave them: every quantity the program
reports depends on spectral subspaces, not on the phase of a column, and
LAPACK is deterministic for fixed input, so results are too.

The dtype follows the data.  ``as_matrix`` and ``require_hermitian``
return float64 for input with real entries and complex128 otherwise, and
complex input with an all-zero imaginary part is validated in float64.  A
Hermitian eigensolve or SVD whose input has an all-zero imaginary part runs
the real LAPACK driver on the real part, and the eigenvectors it returns
are float64.  The real driver's results may differ from the complex
driver's in the last digits.  ``pseudo_inverse`` and ``general_eig`` still
return complex128.

``require_hermitian`` validates one 2-D matrix from outside the program and
returns its exact Hermitian part; matrices built from such parts and real
scalars go straight to the ``hermitian_part_*`` solvers, which check
finiteness at most.  Both take a matrix or a stack (k, n, n), such as one
matrix per shift of a scan or one per block of a batch, and solve each
matrix of a stack by the driver it would get alone, bit for bit as k single
calls and without their per-call overhead, which dominates at n <= 16.
Callers solve long stacks in chunks of at most STACK_BYTES of complex128
matrices (``stack_chunks``): larger stacks cost a multiple of their memory
in temporaries and run slower than a loop once they spill the cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, NumericError
from .tolerance import HERMITIAN_REL, PINV_REL

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
    "hermitian_part_eigvals",
    "spectral_projector",
    "thin_svd",
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
    eigenvectors as columns, as the solver returned them: float64 when the
    solved matrix was real, and each column fixed only up to a unit factor.
    """

    __slots__ = ("eigenvalues", "vectors")

    def __init__(self, eigenvalues: np.ndarray, vectors: np.ndarray):
        self.eigenvalues = eigenvalues
        self.vectors = vectors

    def freeze(self) -> SpectralDecomposition:
        """Make the eigenvalues and the vectors read-only; returns the
        decomposition."""
        self.eigenvalues.flags.writeable = False
        self.vectors.flags.writeable = False
        return self

    def window_mask(self, window: Interval) -> np.ndarray:
        return np.asarray(window.mask(self.eigenvalues), dtype=bool)


def _solver_input(mat: np.ndarray) -> np.ndarray:
    """``mat`` as float64 when its imaginary part is all zero (-0.0
    included), so LAPACK runs its real driver; ``mat`` itself otherwise."""
    if not np.iscomplexobj(mat) or np.count_nonzero(mat.imag):
        return mat
    return mat.real


def _lapack(task: str, solve, *args, **kwargs):
    """``solve(*args, **kwargs)``, a numpy.linalg routine, with its
    LinAlgError raised as NumericError ("<task> failed: ...")."""
    try:
        return solve(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"{task} failed: {exc}") from exc


def _hermitian_solve(solve, herm: np.ndarray) -> list[tuple]:
    """``solve`` (np.linalg.eigh or eigvalsh) of the matrix or stack ``herm``
    as (rows, result) pairs covering it: each matrix goes to the driver it
    gets alone (_solver_input), so a stack that mixes real and complex
    matrices is solved as two stacks, ``rows`` selecting each one's."""
    if herm.ndim == 2 or not np.iscomplexobj(herm):
        groups = [(slice(None), _solver_input(herm))]
    else:
        cplx = herm.imag.any(axis=(1, 2))
        groups = [(rows, part[rows]) for rows, part
                  in ((~cplx, herm.real), (cplx, herm)) if rows.any()]
    return [(rows, _lapack("Hermitian eigensolve", solve, part))
            for rows, part in groups]


def hermitian_part_eig(herm: np.ndarray):
    """Full eigendecomposition of ``herm``, which must already be the exact
    Hermitian part require_hermitian returned, such as a stored block of a
    BlockOperatorMatrix; it is not validated again.  hermitian_eig validates
    its input and then solves it here.  A real ``herm`` gets float64
    vectors.  A stack (k, n, n) gives the list of the k decompositions, each
    equal bit for bit to the one its matrix gets alone."""
    solved = _hermitian_solve(np.linalg.eigh, herm)
    if herm.ndim == 2:
        return SpectralDecomposition(*solved[0][1])
    decs = [None] * herm.shape[0]
    for rows, (vals, vecs) in solved:
        for k, index in enumerate(np.arange(len(decs))[rows]):
            decs[index] = SpectralDecomposition(vals[k], vecs[k])
    return decs


def hermitian_eig(mat) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian matrix.

    Raises ArgumentError for non-Hermitian input and NumericError if the
    underlying iteration fails to converge.  Real-valued input is solved by
    the real driver and gets float64 vectors.
    """
    return hermitian_part_eig(require_hermitian(mat))


def hermitian_part_eigvals(herm) -> np.ndarray:
    """Ascending eigenvalues of an exact Hermitian part as require_hermitian
    returns it, or the (k, n) rows of a stack of them, each matrix solved as
    it would be alone; only finiteness is checked.  They may differ from
    hermitian_part_eig's in the last digits."""
    herm = _finite(herm, (2, 3), True)
    vals = np.empty(herm.shape[:-1])
    for rows, got in _hermitian_solve(np.linalg.eigvalsh, herm):
        vals[rows] = got
    return vals


def thin_svd(mat) -> tuple:
    """numpy's thin SVD (P, s, Q*) of the 2-D ``mat``, in float64 when its
    imaginary part is all zero; NumericError when LAPACK fails."""
    return _lapack("singular value decomposition", np.linalg.svd,
                   _solver_input(mat), full_matrices=False)


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
    u, s, vh = thin_svd(arr)
    keep = s > PINV_REL * s[0] if s[0] > 0.0 else np.zeros(s.shape, dtype=bool)
    if not np.any(keep):
        return np.zeros((arr.shape[1], arr.shape[0]), dtype=np.complex128)
    pinv = (vh[keep].conj().T / s[keep]) @ u[:, keep].conj().T
    return pinv.astype(np.complex128, copy=False)


def general_eig(mat, return_vectors: bool = False):
    """Eigenvalues of a general square complex matrix, with multiplicity.

    Ordered by ascending real part, ties broken by ascending imaginary part.
    With ``return_vectors`` the matching unit eigenvector columns are
    returned as well, as LAPACK gave them; without, no eigenvectors are
    computed.
    """
    arr = as_matrix(mat, square=True).astype(np.complex128, copy=False)
    eigvals, eigvecs = (_lapack("general eigensolve", np.linalg.eig, arr)
                        if return_vectors else
                        (_lapack("general eigensolve", np.linalg.eigvals, arr),
                         None))
    order = np.lexsort((eigvals.imag, eigvals.real))
    eigvals = eigvals[order]
    if not return_vectors:
        return eigvals
    return eigvals, eigvecs[:, order]


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
    return float(_lapack("singular value decomposition", np.linalg.norm,
                         _solver_input(arr), 2))


def orthonormality_defect(cols) -> float:
    """‖Q*Q - I‖ for a set of columns; 0 means exactly orthonormal."""
    arr = as_matrix(cols)
    gram = arr.conj().T @ arr
    return float(np.linalg.norm(gram - np.eye(arr.shape[1]), 2)) if arr.size else 0.0
