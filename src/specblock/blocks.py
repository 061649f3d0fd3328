"""Block operator matrices [[A, B], [B*, C]] and their Schur complements.

The diagonal blocks A and C are Hermitian; B couples the second component
space into the first.  Everything here is finite-dimensional: the domain
conditions of the unbounded theory hold automatically and are recorded, not
checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ArgumentError, LandmarkError, SingularShiftError
from .linalg import (
    SpectralDecomposition,
    as_matrix,
    diagonal_similarity,
    hermitian_eig,  # noqa: F401  (bench/test_bench.py reads blocks.hermitian_eig)
    hermitian_eigvals,
    hermitian_part_eig,
    hermitian_part_eig_by_components,
    require_hermitian,
    spectral_distance,
    stack_chunks,
)
from .tolerance import BASE_TOL, matrix_tol

__all__ = [
    "BlockOperatorMatrix",
    "RelativeBound",
    "SpectralLandmarks",
    "assemble",
    "schur_complement",
    "resolvent_block",
    "minimal_b_for_a",
    "relative_bound_margin",
    "best_relative_bound",
    "landmarks",
]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _frozen_eig(dec: SpectralDecomposition) -> SpectralDecomposition:
    _frozen(dec.eigenvalues)
    _frozen(dec.vectors)
    return dec


@dataclass(frozen=True)
class BlockOperatorMatrix:
    """Hermitian 2x2 block matrix with diagonal blocks A (n1), C (n2) and coupling B.

    The blocks are stored as read-only arrays that share no memory with the
    caller's, so the decompositions below are computed at most once per
    block, on first use, and stay valid for the life of the block.  A and C
    are validated here and stored as their exact Hermitian parts, which
    eig_a and eig_c solve without checking them again.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        a = require_hermitian(self.A)
        c = require_hermitian(self.C)
        b = as_matrix(self.B)
        if np.may_share_memory(b, self.B):
            b = b.copy()
        if b.shape != (a.shape[0], c.shape[0]):
            raise ArgumentError(
                f"coupling block has shape {b.shape}, expected "
                f"({a.shape[0]}, {c.shape[0]})")
        object.__setattr__(self, "A", _frozen(a))
        object.__setattr__(self, "B", _frozen(b))
        object.__setattr__(self, "C", _frozen(c))

    @property
    def n1(self) -> int:
        return self.A.shape[0]

    @property
    def n2(self) -> int:
        return self.C.shape[0]

    @cached_property
    def eig_a(self) -> SpectralDecomposition:
        """Eigendecomposition of A."""
        return _frozen_eig(hermitian_part_eig(self.A))

    @cached_property
    def a_clusters(self) -> np.ndarray:
        """Cluster label of each eigenvalue of A, ascending from 0: neighbours
        at most matrix_tol(A) apart share a label and one eigenprojector."""
        spec = self.eig_a.eigenvalues
        gaps = np.diff(spec, prepend=spec[:1]) > matrix_tol(self.A)
        return _frozen(np.cumsum(gaps))

    @cached_property
    def eig_c(self) -> SpectralDecomposition:
        """Eigendecomposition of C.

        A C whose nonzero pattern falls apart into decoupled blocks, such as
        the pointwise 2x2 multiplication block of the MHD discretization, is
        solved block by block (hermitian_part_eig_by_components): its
        eigenvectors are zero off their block, and its eigenvalues may
        differ from the dense solve's in the last digits.  Any other C is
        solved densely by hermitian_part_eig.
        """
        return _frozen_eig(hermitian_part_eig_by_components(self.C))

    @property
    def c(self) -> float:
        """c = max sigma(C), the top of the spectrum of C."""
        return float(self.eig_c.eigenvalues[-1])

    @cached_property
    def real_form(self) -> bool:
        """A and C are real and B is purely real or purely imaginary (B = R or
        B = iR with R real); -0.0 counts as zero."""
        return not (np.count_nonzero(self.A.imag)
                    or np.count_nonzero(self.C.imag)
                    or (np.count_nonzero(self.B.real)
                        and np.count_nonzero(self.B.imag)))

    @cached_property
    def eig_m(self) -> SpectralDecomposition:
        """Eigendecomposition of the assembled matrix.

        For a real-form block with B = iR purely imaginary, M = D M' D*
        with D = diag(I, iI) and the real symmetric M' = [[A, -R], [-R^T, C]];
        M' is solved instead and each eigenvector w maps to [w1; i w2].  A
        real B makes M itself real, which hermitian_part_eig solves as such.

        Neither M nor M' is validated: A and C are stored as exact Hermitian
        parts and the off-diagonal blocks are B and B* (or -R and -R^T), so
        the matrix solved equals its adjoint entry for entry, and
        require_hermitian would return (M + M*) / 2 = M, the same matrix bit
        for bit wherever 2 M does not overflow.
        """
        r = self.B.imag
        if (not self.real_form or np.count_nonzero(self.B.real)
                or not np.count_nonzero(r)):
            return _frozen_eig(hermitian_part_eig(assemble(self)))
        similar = np.block([[self.A.real, -r], [-r.T, self.C.real]])
        diagonal = np.concatenate([np.ones(self.n1), np.full(self.n2, 1j)])
        return _frozen_eig(diagonal_similarity(hermitian_part_eig(similar),
                                               diagonal))

    @cached_property
    def coupling_in_c_basis(self) -> np.ndarray:
        """A factor W with W diag(d) W* = (B V_C) diag(d) (B V_C)* for real d.

        W = B V_C, the coupling in the eigenbasis of C, in complex128.  A
        real-form block has real eigenvectors V_C, and W is the float64
        R Re(V_C) for B = R or B = iR: the factor i cancels in W diag(d) W*.
        """
        if not self.real_form:
            return _frozen(self.B @ self.eig_c.vectors)
        r = self.B.imag if np.count_nonzero(self.B.imag) else self.B.real
        return _frozen(r @ self.eig_c.vectors.real)

    @cached_property
    def _gram(self) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            gram = self.B @ self.B.conj().T
        if gram.size and not np.all(np.isfinite(gram)):
            raise ArgumentError(
                "the coupling Gram matrix B B* overflows: entries of B are "
                "too large for double precision")
        return _frozen(gram)

    def coupling_gram(self) -> np.ndarray:
        """B B*, the Hermitian form behind ‖B*x‖²."""
        return self._gram

    def assembled_tol(self) -> float:
        """matrix_tol of the assembled matrix, without assembling it."""
        parts = [float(np.max(np.abs(x))) for x in (self.A, self.B, self.C)
                 if x.size]
        if not parts:
            return BASE_TOL
        return BASE_TOL * (self.n1 + self.n2) * max(parts)


@dataclass(frozen=True)
class RelativeBound:
    """Constants (a, b) certifying B B* ⪯ a A + b I in the Hermitian order."""

    a: float
    b: float

    def __post_init__(self):
        if self.a < 0.0 or self.b < 0.0:
            raise ArgumentError("relative-bound constants must be nonnegative")


@dataclass(frozen=True)
class SpectralLandmarks:
    """max sigma(C), the mid-gap point above it, kappa, and the spectrum above c.

    ``rungs`` = min(len(lambda_above_c), n1 - kappa) counts the rungs of the
    variational ladder; ``first_above`` indexes lambda_above_c[0] in eig(M).
    """

    c: float
    c_tilde: float
    kappa: int
    lambda_above_c: np.ndarray
    rungs: int
    first_above: int


def assemble(block: BlockOperatorMatrix) -> np.ndarray:
    """Full (n1+n2)-dimensional Hermitian matrix [[A, B], [B*, C]]."""
    return np.block([[block.A, block.B], [block.B.conj().T, block.C]])


def schur_complement(block: BlockOperatorMatrix, lam,
                     tol: float | None = None) -> np.ndarray:
    """First Schur complement A - lam I - B (C - lam I)^{-1} B* at a real shift.

    The shift must keep its distance from sigma(C); zero eigenvalues of the
    result detect spectrum of the assembled matrix away from sigma(C).  The
    inverse is applied in the eigenbasis of C:
    B (C - lam I)^{-1} B* = W diag(1/(gamma_i - lam)) W* with W the
    block's coupling_in_c_basis.  For a real-form block W and A are real and
    the result is float64, otherwise complex128; the real arithmetic may
    differ from the complex one in the last digits.

    ``lam`` may be a 1-D array of shifts: the result is then the stack
    (k, n1, n1) of the Schur complements, each equal bit for bit to the one
    at that scalar shift, and every shift is checked for singularity.
    """
    shifts = np.asarray(lam, dtype=float)
    if shifts.ndim > 1:
        raise ArgumentError("shifts must be a scalar or a 1-D array")
    lams = shifts.reshape(-1)
    spec_c = block.eig_c.eigenvalues
    if tol is None:
        tol = matrix_tol(block.C)
    if spec_c.size:
        near = np.min(np.abs(spec_c - lams[:, None]), axis=1) <= tol
        if near.any():
            raise SingularShiftError(
                f"shift {float(lams[near.argmax()]):.12g} is within {tol:.3e} "
                "of sigma(C)")
    w = block.coupling_in_c_basis
    a = block.A.real if w.dtype == np.float64 else block.A
    gaps = spec_c - lams[:, None]
    s = (a - lams[:, None, None] * np.eye(block.n1)
         - (w / gaps[:, None, :]) @ w.conj().T)
    s = 0.5 * (s + s.conj().swapaxes(-2, -1))
    return s if shifts.ndim else s[0]


def resolvent_block(block: BlockOperatorMatrix, alpha: float) -> np.ndarray:
    """Resolvent of the assembled matrix at ``alpha``, built Schur-block by block.

    Assembles [[S⁻¹, -S⁻¹F], [-(C-αI)⁻¹B*S⁻¹, (C-αI)⁻¹ + (C-αI)⁻¹B*S⁻¹F]]
    with S = S(alpha) and F = B(C-αI)⁻¹ rather than inverting directly;
    (C-αI)⁻¹ comes from the eigendecomposition of C.
    """
    alpha = float(alpha)
    tol = block.assembled_tol()
    if spectral_distance(alpha, block.eig_m.eigenvalues) <= tol:
        raise SingularShiftError(
            f"shift {alpha:.12g} is within {tol:.3e} of the assembled spectrum")
    s = schur_complement(block, alpha, tol=tol)
    if float(np.min(np.abs(hermitian_eigvals(s)))) <= matrix_tol(s):
        raise SingularShiftError("Schur complement is singular at this shift")
    s_inv = np.linalg.inv(s)
    vecs = block.eig_c.vectors
    c_inv = (vecs / (block.eig_c.eigenvalues - alpha)) @ vecs.conj().T
    b_star = block.B.conj().T
    f = block.B @ c_inv  # B (C - alpha I)^{-1}
    top_right = -s_inv @ f
    bottom_left = -c_inv @ (b_star @ s_inv)
    bottom_right = c_inv + c_inv @ (b_star @ s_inv @ f)
    return np.block([[s_inv, top_right], [bottom_left, bottom_right]])


def _gram_gap(block: BlockOperatorMatrix, a) -> np.ndarray:
    """B B* - a A; an array ``a`` of shape (k, 1, 1) gives the stack."""
    return block.coupling_gram() - a * block.A


def minimal_b_for_a(block: BlockOperatorMatrix, a: float) -> RelativeBound:
    """Least b ≥ 0 with B B* ⪯ a A + b I, i.e. max(0, lambda_max(BB* - aA))."""
    if a < 0.0:
        raise ArgumentError("a must be nonnegative")
    if block.n1 == 0:
        return RelativeBound(float(a), 0.0)
    lam_max = float(hermitian_eigvals(_gram_gap(block, a))[-1])
    return RelativeBound(float(a), max(0.0, lam_max))


def relative_bound_margin(block: BlockOperatorMatrix,
                          rb: RelativeBound) -> float:
    """lambda_min(aA + bI - BB*).

    Nonnegative (up to round-off) iff (a, b) is a valid relative bound; near
    zero iff b is minimal for this a.
    """
    mat = rb.a * block.A + rb.b * np.eye(block.n1) - block.coupling_gram()
    return float(hermitian_eigvals(mat)[0])


def best_relative_bound(block: BlockOperatorMatrix) -> RelativeBound:
    """The pair (a, b) with the tightest inclusion window over 21 points of
    [0, a_max], found without solving the points that cannot win.

    a_max = lambda_max(BB*) / max(lambda_min(A), tol).  Point a gets
    minimal_b_for_a's b(a) = max(0, lambda_max(BB* - aA)) and the window
    width 2 sqrt(disc(a)) at mu = min sigma(A), where
    disc(a) = ((mu - c)/2)^2 + a(a + c) + b(a).  Points with disc < 0 are
    skipped, ties go to the smallest a, and with no valid point the result
    is the pair at a = 0.  An empty A or a zero coupling gives (0, 0).

    disc is convex in a: lambda_max of the affine family BB* - aA is
    convex, and so are max(0, .) of it and a(a + c).  The grid is solved
    left to right in the chunks of stack_chunks (one chunk up to n1 = 55),
    and the scan stops after the chunk in which disc rises by more than
    4 eps_s from one point to a valid next point k, with
    eps_s = (n1 + 4) eps S and
    S = lambda_max(BB*) + a_max max|sigma(A)| + ((mu - c)/2)^2
        + a_max (a_max + |c|),
    a bound on every term of every disc on the grid.  Each computed disc is
    within (n1 + 3) eps S of the exact one: n1 eps S for the eigensolve
    (LAPACK's backward error, taken as n1 eps ||BB* - aA||) and under
    3 eps S for forming BB* - aA and the sums.  So the exact rise into k
    exceeds (2 n1 + 10) eps S.  The steps of the grid agree to a relative
    21 eps, so by convexity every later exact disc exceeds disc(k) by more
    than 2 (n1 + 3) eps S, and every later computed disc is above the
    computed disc(k) the scan has already seen.  The result is therefore
    the full scan's (a, b) bit for bit.  If S overflows, the scan is full.
    """
    if block.n1 == 0:
        return RelativeBound(0.0, 0.0)
    lam_bbs = float(hermitian_eigvals(block.coupling_gram())[-1])
    if lam_bbs <= 0.0:
        return RelativeBound(0.0, 0.0)
    spec_a = block.eig_a.eigenvalues
    mu = float(spec_a[0])
    c = block.c
    denom = max(mu, matrix_tol(block.A), BASE_TOL)
    a_max = lam_bbs / denom
    grid = np.linspace(0.0, a_max, 21)
    offset = ((mu - c) / 2.0) ** 2
    scale = (lam_bbs + a_max * max(-mu, float(spec_a[-1])) + offset
             + a_max * (a_max + abs(c)))
    stop_rise = 4.0 * (block.n1 + 4) * np.finfo(float).eps * scale
    tops = np.empty(grid.size)
    best, best_width, prev = 0, np.inf, np.nan
    for part in stack_chunks(grid.size, block.n1):
        a = grid[part]
        top = hermitian_eigvals(_gram_gap(block, a[:, None, None]))[:, -1]
        tops[part] = top
        # disc overflows to inf at extreme scales; such a point cannot win.
        with np.errstate(over="ignore", invalid="ignore"):
            disc = offset + a * (a + c) + np.where(top > 0.0, top, 0.0)
            valid = disc >= 0.0
            width = 2.0 * np.sqrt(np.where(valid, disc, np.inf))
            rises = np.diff(disc, prepend=prev)
        i = int(np.argmin(width))
        if width[i] < best_width:
            best, best_width = part.start + i, width[i]
        if np.any(valid & (rises > stop_rise)):
            break
        prev = disc[-1]
    return RelativeBound(float(grid[best]), max(0.0, float(tops[best])))


def landmarks(block: BlockOperatorMatrix) -> SpectralLandmarks:
    """Locate c = max sigma(C), the first gap above it, and count kappa there.

    c_tilde is fixed deterministically as the midpoint of c and the smallest
    assembled eigenvalue above c; kappa counts the negative eigenvalues of the
    Schur complement at c_tilde.
    """
    c = block.c
    spec_m = block.eig_m.eigenvalues
    above = spec_m[spec_m > c + block.assembled_tol()]
    if above.size == 0:
        raise LandmarkError("no spectrum of the assembled matrix above max sigma(C)")
    c_tilde = 0.5 * (c + float(above[0]))
    s = schur_complement(block, c_tilde)
    kappa = int(np.sum(hermitian_eigvals(s) < -matrix_tol(s)))
    return SpectralLandmarks(
        c=c, c_tilde=c_tilde, kappa=kappa,
        lambda_above_c=np.array(above, dtype=float),
        rungs=min(int(above.size), block.n1 - kappa),
        first_above=int(spec_m.size - above.size))
