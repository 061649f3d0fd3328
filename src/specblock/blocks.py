"""Block operator matrices [[A, B], [B*, C]] and their Schur complements.

The diagonal blocks A and C are Hermitian; B couples the second component
space into the first.  A block computes each decomposition it needs once
and caches it; ``fill_spectra`` fills those caches for many blocks at once
from stacked solves, to the same bits.  Everything here is
finite-dimensional: the domain conditions of the unbounded theory hold
automatically and are recorded, not checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import (ArgumentError, LandmarkError, NumericError,
                     SingularShiftError)
from .linalg import (
    SpectralDecomposition,
    as_matrix,
    hermitian_eig,  # noqa: F401  (bench/test_bench.py reads blocks.hermitian_eig)
    hermitian_part_eig,
    hermitian_part_eigvals,
    require_hermitian,
    spectral_distance,
    stack_chunks,
)
from .tolerance import BASE_TOL, matrix_tol

if TYPE_CHECKING:
    from .enclosures import Ladder
    from .subspaces import GraphSubspace

__all__ = [
    "BlockOperatorMatrix",
    "RelativeBound",
    "SpectralLandmarks",
    "assemble",
    "fill_spectra",
    "schur_complement",
    "resolvent_block",
    "minimal_b_for_a",
    "relative_bound_margin",
    "best_relative_bound",
]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _stored(mat: np.ndarray, given) -> np.ndarray:
    """``mat``, validated from the caller's ``given``, as a read-only
    contiguous array that shares no memory with it: float64 when its
    imaginary part is all zero (-0.0 included), complex128 otherwise."""
    if np.iscomplexobj(mat) and not np.count_nonzero(mat.imag):
        mat = mat.real
    mat = np.ascontiguousarray(mat)
    if np.may_share_memory(mat, given):
        mat = mat.copy()
    return _frozen(mat)


@dataclass(frozen=True)
class BlockOperatorMatrix:
    """Hermitian 2x2 block matrix with diagonal blocks A (n1), C (n2) and coupling B.

    The blocks are stored as read-only arrays that share no memory with the
    caller's, so the decompositions below are computed at most once per
    block, on first use, and stay valid for the life of the block.  A and C
    are validated here and stored as their exact Hermitian parts, which
    eig_a and eig_c solve without checking them again.

    Each block is stored as float64 when its imaginary part is all zero and
    as complex128 otherwise, decided here once; every product, solve and
    decomposition below takes its dtype from the stored blocks.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        a = require_hermitian(self.A)
        c = require_hermitian(self.C)
        b = as_matrix(self.B)
        if b.shape != (a.shape[0], c.shape[0]):
            raise ArgumentError(
                f"coupling block has shape {b.shape}, expected "
                f"({a.shape[0]}, {c.shape[0]})")
        object.__setattr__(self, "A", _stored(a, self.A))
        object.__setattr__(self, "B", _stored(b, self.B))
        object.__setattr__(self, "C", _stored(c, self.C))

    @property
    def n1(self) -> int:
        return self.A.shape[0]

    @property
    def n2(self) -> int:
        return self.C.shape[0]

    @cached_property
    def eig_a(self) -> SpectralDecomposition:
        """Eigendecomposition of A."""
        return hermitian_part_eig(self.A).freeze()

    @cached_property
    def a_clusters(self) -> np.ndarray:
        """Cluster label of each eigenvalue of A, ascending from 0: neighbours
        at most matrix_tol(A) apart share a label and one eigenprojector."""
        spec = self.eig_a.eigenvalues
        gaps = np.diff(spec, prepend=spec[:1]) > matrix_tol(self.A)
        return _frozen(np.cumsum(gaps))

    @cached_property
    def a_points(self) -> np.ndarray:
        """sigma(A) as points, which the ladder is built over:
        the lowest eigenvalue of each a_clusters label, ascending."""
        labels = self.a_clusters
        return _frozen(self.eig_a.eigenvalues[np.diff(labels, prepend=-1) > 0])

    def ladder(self, rb: RelativeBound) -> Ladder:
        """The enclosures.Ladder over a_points at c and ``rb``, built once
        per rb and kept beside the cached spectra."""
        from .enclosures import Ladder  # enclosures imports blocks
        ladders = self.__dict__.setdefault("_ladders", {})
        if rb not in ladders:
            ladders[rb] = Ladder.build(self.a_points, self.c, rb)
        return ladders[rb]

    @cached_property
    def eig_c(self) -> SpectralDecomposition:
        """Eigendecomposition of C, solved densely by hermitian_part_eig.

        A block built by mhd.discretize is given it in the cache instead:
        discretize solves its pointwise 2x2 C on the index pairs it built,
        so each eigenvector is zero off its pair.
        """
        return hermitian_part_eig(self.C).freeze()

    @property
    def c(self) -> float:
        """c = max sigma(C), the top of the spectrum of C."""
        return float(self.eig_c.eigenvalues[-1])

    @cached_property
    def eig_m(self) -> SpectralDecomposition:
        """Eigendecomposition of the assembled matrix, with float64
        eigenvectors when A, B and C are all stored as float64.

        M is not validated: A and C are stored as exact Hermitian parts and
        the off-diagonal blocks are B and B*, so M equals its adjoint entry
        for entry, and require_hermitian would return (M + M*) / 2 = M, the
        same matrix bit for bit wherever 2 M does not overflow.
        """
        return hermitian_part_eig(assemble(self)).freeze()

    @cached_property
    def landmarks(self) -> SpectralLandmarks:
        """c = max sigma(C), the first gap above it, and kappa there.

        c_tilde is fixed deterministically as the midpoint of c and the
        smallest assembled eigenvalue above c; kappa counts the negative
        eigenvalues of the Schur complement at c_tilde by their sign alone.
        On (c, inf), S'(lambda) <= -I, so every eigenvalue curve of S falls
        at slope <= -1 and vanishes exactly at eigenvalues of M: a curve at
        s != 0 at c_tilde meets an eigenvalue of M, or c, within |s| of
        c_tilde.  Every eigenvalue of S(c_tilde) thus lies at least
        dist(c_tilde, {c} ∪ sigma(M)) from 0, and its sign needs no
        tolerance.
        Raises LandmarkError when no eigenvalue of M lies above c, and
        SingularShiftError from schur_complement; an error is not cached.
        """
        c = self.c
        spec_m = self.eig_m.eigenvalues
        above = spec_m[spec_m > c + self.assembled_tol]
        if above.size == 0:
            raise LandmarkError(
                "no spectrum of the assembled matrix above max sigma(C)")
        c_tilde = 0.5 * (c + float(above[0]))
        s = schur_complement(self, c_tilde)
        kappa = int(np.sum(hermitian_part_eigvals(s) < 0.0))
        return SpectralLandmarks(
            c=c, c_tilde=c_tilde, kappa=kappa,
            lambda_above_c=_frozen(np.array(above, dtype=float)),
            rungs=min(int(above.size), self.n1 - kappa),
            first_above=int(spec_m.size - above.size))

    @cached_property
    def graph_subspace(self) -> GraphSubspace:
        """The spectral subspace of M above c~, whose angular operator K_c the
        angular and basis checks read; an error is not cached."""
        from .subspaces import spectral_subspace  # subspaces imports blocks
        return spectral_subspace(self, self.landmarks.c_tilde)

    @cached_property
    def riccati_residual(self) -> float:
        """basis.riesz_check of graph_subspace, the invariance residual the
        angular and basis checks at c~ read; an error is not cached."""
        from . import basis  # basis imports blocks
        return basis.riesz_check(self, self.graph_subspace)

    @cached_property
    def coupling_in_c_basis(self) -> np.ndarray:
        """W = B V_C, the coupling in the eigenbasis of C: float64 when B
        and C are stored as float64 (V_C is then real), complex128
        otherwise."""
        return _frozen(self.B @ self.eig_c.vectors)

    @cached_property
    def coupling_gram(self) -> np.ndarray:
        """B B*, the Hermitian form behind ‖B*x‖², stored as the exact
        Hermitian part (G + G*)/2 of the product G, as require_hermitian
        returns it: B B* - a A and a A + b I - B B* are solved unchecked."""
        with np.errstate(over="ignore", invalid="ignore"):
            # (G + G*)/2 as require_hermitian forms it, in place: a second
            # n1 x n1 result would raise the peak memory of the MHD jobs.
            gram = self.B @ self.B.conj().T
            gram += gram.conj().T
            gram *= 0.5
        if gram.size and not np.all(np.isfinite(gram)):
            raise ArgumentError(
                "the coupling Gram matrix B B* overflows: entries of B are "
                "too large for double precision")
        return _frozen(gram)

    @cached_property
    def coupling_top(self) -> float:
        """lambda_max(B B*), one values solve per block; 0.0 for empty A."""
        if self.n1 == 0:
            return 0.0
        return float(hermitian_part_eigvals(self.coupling_gram)[-1])

    @cached_property
    def assembled_tol(self) -> float:
        """matrix_tol of the assembled matrix, without assembling it, from
        one scan of the blocks per block."""
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
    """Full (n1+n2)-dimensional Hermitian matrix [[A, B], [B*, C]], complex
    when one of the blocks is stored as complex."""
    n1 = block.n1
    full = np.empty((n1 + block.n2,) * 2,
                    dtype=np.result_type(block.A, block.B, block.C))
    full[:n1, :n1] = block.A
    full[:n1, n1:] = block.B
    full[n1:, :n1] = block.B.conj().T
    full[n1:, n1:] = block.C
    return full


def _gram_to_solve(block: BlockOperatorMatrix) -> np.ndarray | None:
    """B B*, or None where coupling_top solves nothing (an empty A) or
    raises (B B* overflows)."""
    if block.n1 == 0:
        return None
    try:
        return block.coupling_gram
    except ArgumentError:
        return None


# The matrix each cached property solves, or None where fill_spectra leaves
# the property to itself (_gram_to_solve).
_SOLVED_BY = {
    "eig_a": lambda block: block.A,
    "eig_c": lambda block: block.C,
    "eig_m": assemble,
    "coupling_top": _gram_to_solve,
}


def fill_spectra(blocks, names) -> None:
    """Fill the cached properties ``names``, among eig_a, eig_c, eig_m and
    coupling_top, of each of ``blocks`` from stacked solves.

    Each value is, bit for bit, the one the property would compute: the
    matrices the property solves are grouped by shape, and each group goes
    to hermitian_part_eig, or for coupling_top to hermitian_part_eigvals, in
    the chunks of stack_chunks; those solve each matrix of a stack as they
    solve it alone.  A property already computed, such as the eig_c that
    mhd.discretize gives its block, is left as it is.  So is a property that
    _SOLVED_BY leaves to itself, and every property of a chunk whose solve
    fails: when read, it solves alone and raises the error.
    """
    for name in names:
        groups: dict[tuple, list] = {}
        for block in blocks:
            if name in block.__dict__:  # where cached_property keeps a value
                continue
            mat = _SOLVED_BY[name](block)
            if mat is not None:
                groups.setdefault(mat.shape, []).append((block, mat))
        for shape, members in groups.items():
            for part in stack_chunks(len(members), shape[0]):
                chunk = members[part]
                stack = np.stack([mat for _, mat in chunk])
                try:
                    values = (
                        hermitian_part_eigvals(stack)[:, -1].tolist()
                        if name == "coupling_top" else
                        [dec.freeze() for dec in hermitian_part_eig(stack)])
                except NumericError:
                    continue
                for (block, _), value in zip(chunk, values):
                    block.__dict__[name] = value


def schur_complement(block: BlockOperatorMatrix, lam,
                     tol: float | None = None) -> np.ndarray:
    """First Schur complement A - lam I - B (C - lam I)^{-1} B* at a real shift.

    The shift must keep its distance from sigma(C); zero eigenvalues of the
    result detect spectrum of the assembled matrix away from sigma(C).  The
    inverse is applied in the eigenbasis of C:
    B (C - lam I)^{-1} B* = W diag(1/(gamma_i - lam)) W* with W the
    block's coupling_in_c_basis.  The result is float64 when A and W are,
    and complex128 otherwise: the dtype follows the stored blocks, and a
    complex A keeps its imaginary part whatever the dtype of W.  It is the
    exact Hermitian part (S + S*)/2, which hermitian_part_eigvals solves.

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
    gaps = spec_c - lams[:, None]
    s = (block.A - lams[:, None, None] * np.eye(block.n1)
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
    tol = block.assembled_tol
    if spectral_distance(alpha, block.eig_m.eigenvalues) <= tol:
        raise SingularShiftError(
            f"shift {alpha:.12g} is within {tol:.3e} of the assembled spectrum")
    s = schur_complement(block, alpha, tol=tol)
    if float(np.min(np.abs(hermitian_part_eigvals(s)))) <= matrix_tol(s):
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
    """B B* - a A, ArgumentError if it overflows; an array ``a`` of shape
    (k, 1, 1) gives the stack."""
    with np.errstate(over="ignore", invalid="ignore"):
        gap = block.coupling_gram - a * block.A
    if not np.all(np.isfinite(gap)):
        raise ArgumentError("B B* - a A overflows double precision")
    return gap


def minimal_b_for_a(block: BlockOperatorMatrix, a: float) -> RelativeBound:
    """Least b ≥ 0 with B B* ⪯ a A + b I, i.e. max(0, lambda_max(BB* - aA));
    a = 0 reads the block's coupling_top, since BB* - 0 A is BB*."""
    if a < 0.0:
        raise ArgumentError("a must be nonnegative")
    top = block.coupling_top if a == 0.0 else np.max(
        hermitian_part_eigvals(_gram_gap(block, a)), initial=0.0)
    return RelativeBound(float(a), max(0.0, float(top)))


def relative_bound_margin(block: BlockOperatorMatrix,
                          rb: RelativeBound) -> float:
    """lambda_min(aA + bI - BB*), +inf for an empty A.

    Nonnegative (up to round-off) iff (a, b) is a valid relative bound; near
    zero iff b is minimal for this a.  Raises ArgumentError when
    aA + bI - BB* overflows double precision.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mat = rb.a * block.A + rb.b * np.eye(block.n1) - block.coupling_gram
    if not np.all(np.isfinite(mat)):
        raise ArgumentError("a A + b I - B B* overflows double precision")
    return float(np.min(hermitian_part_eigvals(mat), initial=np.inf))


def best_relative_bound(block: BlockOperatorMatrix) -> RelativeBound:
    """The pair (a, b) with the tightest inclusion window over 21 points of
    [0, a_max], found without solving the points that cannot win.

    a_max = lambda_max(BB*) / max(lambda_min(A), tol).  Point a gets
    minimal_b_for_a's b(a) = max(0, lambda_max(BB* - aA)) and the window
    width 2 sqrt(disc(a)) at mu = min sigma(A), where
    disc(a) = ((mu - c)/2)^2 + a(a + c) + b(a).  Points with disc < 0 are
    skipped, ties go to the smallest a, and with no valid point the result
    is the pair at a = 0, as it is when a_max overflows double precision.
    An empty A or a zero coupling gives (0, 0).

    disc is convex in a: lambda_max of the affine family BB* - aA is
    convex, and so are max(0, .) of it and a(a + c).  Point 0 reads its
    top from the block's coupling_top, since BB* - 0 A is BB*; points 1 to
    20 are solved left to right in the chunks of stack_chunks (one chunk up
    to n1 = 57), and the scan stops after the chunk in which disc rises by
    more than 4 eps_s from one point to a valid next point k, with
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
    computed disc(k) the scan has already seen.  The result is therefore,
    bit for bit, the (a, b) of the full scan that reads point 0 the same
    way.  If S overflows, the scan is full.
    """
    lam_bbs = block.coupling_top
    if lam_bbs <= 0.0:  # an empty A included
        return RelativeBound(0.0, 0.0)
    spec_a = block.eig_a.eigenvalues
    mu = float(spec_a[0])
    c = block.c
    denom = max(mu, matrix_tol(block.A), BASE_TOL)
    a_max = lam_bbs / denom
    if not np.isfinite(a_max):
        return RelativeBound(0.0, lam_bbs)
    grid = np.linspace(0.0, a_max, 21)
    half = (mu - c) / 2.0
    offset = half * half  # inf, not OverflowError, at extreme scales
    scale = (lam_bbs + a_max * max(-mu, float(spec_a[-1])) + offset
             + a_max * (a_max + abs(c)))
    stop_rise = 4.0 * (block.n1 + 4) * np.finfo(float).eps * scale
    tops = np.empty(grid.size)
    tops[0] = lam_bbs
    best, best_width, prev = 0, np.inf, np.nan
    parts = [slice(0, 1)] + [slice(part.start + 1, part.stop + 1)
                             for part in stack_chunks(grid.size - 1, block.n1)]
    for part in parts:
        a = grid[part]
        if part.start:
            tops[part] = hermitian_part_eigvals(
                _gram_gap(block, a[:, None, None]))[:, -1]
        top = tops[part]
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

