"""Basis diagnostics for first components of eigenvectors above max sigma(C).

The residual of the Riccati equation of the angular operator, whose graph
is invariant exactly when it vanishes, and one walk over the rungs above c
that compares eigenprojectors of A with spectral projectors of the Schur
complement (read from the eigenvectors of the assembled matrix) and takes
the Bari term of each rung against the aligned eigenvector of A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockOperatorMatrix, RelativeBound
from .errors import (
    ArgumentError,
    DegenerateGapError,
    PairingError,
    UnderflowError,
)
from .linalg import operator_norm
from .subspaces import GraphSubspace
from .tolerance import PAIR_TOL

__all__ = [
    "DecayRecord",
    "DecayReport",
    "riesz_check",
    "projector_distance",
    "projection_decay",
    "aligned_term",
]


@dataclass(frozen=True)
class DecayRecord:
    """Projection-decay data and the Bari term for one eigenvalue above c.

    ``bound`` is the explicit chain (gamma / dist[circle, sigma(A)]) *
    delta/(1 - delta), infinite when delta >= 1.  ``a_points_inside`` counts
    spectrum of A strictly inside the comparison circle; the chain assumes
    exactly one.  ``term`` is ||y_{kappa+n} - x_n||^2 (aligned_term), None
    when x_n cannot be aligned.
    """

    n: int
    lam: float
    mu: float
    gamma: float
    delta: float
    proj_diff_norm: float
    bound: float
    circle_dist_a: float
    a_points_inside: int
    term: float | None


@dataclass(frozen=True)
class DecayReport:
    """The records of projection_decay, one per rung, in rung order.

    ``m_constant`` is the largest gamma_n / dist[circle, sigma(A)];
    ``gap_sum`` accumulates 1/(mu_{k+1} - mu_k)^2 over the leading
    kappa + n_max gaps of sigma(A); ``unaligned`` is the PairingError text of
    the first rung whose x_n cannot be aligned, None when every rung aligns.
    """

    records: tuple
    m_constant: float
    gap_sum: float
    unaligned: str | None

    @property
    def norms(self) -> list[float]:
        return [r.proj_diff_norm for r in self.records]


def _assembled_product(block: BlockOperatorMatrix, first: np.ndarray,
                       second: np.ndarray) -> np.ndarray:
    """M W for the assembled M and W = [first; second], from the stored
    blocks: [A W1 + B W2; B* W1 + C W2]."""
    top = block.A @ first + block.B @ second
    bottom = block.B.conj().T @ first + block.C @ second
    return np.vstack((top, bottom))


def riesz_check(block: BlockOperatorMatrix, subspace: GraphSubspace) -> float:
    """The relative Riccati residual of a graph subspace,
    rho = ||(K A - C K + K B K - B*) P||_F / (||M|| (1 + ||K||)^2), with K
    its angular operator and P the orthonormal basis of Dom(K).

    The graph of K is M-invariant exactly when K solves K A - C K + K B K
    - B* = 0 on Dom(K) (Tretter, Spectral Theory of Block Operator
    Matrices, 2008); the angular operator and Riesz checks judge rho.  For
    the orthonormal columns W = [U; V], R = M W - W diag(w* M w) and
    U = P diag(s) Q*, KU = V turns the Riccati operator times U into
    K R1 - R2, so rho is read from R without forming K A or K B K.  R is
    divided by ||M|| = max|eigenvalue| before any norm, so rho has degree 0
    in the scale of M, and M = 0 gives 0.  Raises NotAGraphError when the
    subspace has no angular operator.
    """
    k_op = subspace.angular
    scale = float(np.max(np.abs(block.eig_m.eigenvalues)))
    if scale == 0.0:
        return 0.0  # M = 0: every subspace is invariant
    stacked = subspace.stacked()
    mw = _assembled_product(block, subspace.basis_first, subspace.basis_second)
    rayleighs = np.real(np.sum(stacked.conj() * mw, axis=0))
    r = (mw - stacked * rayleighs) / scale
    _, s, qh = subspace.first_svd
    riccati = ((k_op.K @ r[:block.n1] - r[block.n1:]) @ qh.conj().T) / s
    return float(np.linalg.norm(riccati)) / (1.0 + k_op.norm) ** 2


def _isolation_radius(value: float, spectrum: np.ndarray) -> float:
    """Half the distance from value to the rest of the spectrum (one copy removed)."""
    idx = int(np.argmin(np.abs(spectrum - value)))
    rest = np.delete(spectrum, idx)
    if rest.size == 0:
        return float("inf")
    return 0.5 * float(np.min(np.abs(rest - value)))


def projector_distance(u: np.ndarray, v: np.ndarray) -> float:
    """‖E - F‖ for the orthogonal projectors E = UU* and F = VV* onto the
    spans of the orthonormal columns ``u`` and ``v``, without forming them.

    For subspaces of equal dimension r, ‖E - F‖ = ‖(I - F)E‖ = sin of the
    largest principal angle (Golub-Van Loan, Matrix Computations, 2.5.3),
    and ‖(I - F)E‖ = ‖(I - F)U‖ = ‖U - V(V*U)‖ because U is an isometry:
    a vector norm for r = 1 and the largest singular value of an n x r
    matrix otherwise.  Subspaces of different dimensions are at distance
    exactly 1 (Kato, Perturbation Theory, I 6.8).  The residual U - V(V*U)
    keeps small angles accurate, which sqrt(1 - sigma_min(V*U)^2) would
    lose to cancellation.
    """
    if u.shape[1] != v.shape[1]:
        return 1.0
    resid = u - v @ (v.conj().T @ u)
    if u.shape[1] == 1:
        return float(np.linalg.norm(resid))
    return operator_norm(resid)


def projection_decay(block: BlockOperatorMatrix, n_max: int,
                     rb: RelativeBound) -> DecayReport:
    """Compare eigenprojectors of A with Schur-complement spectral projectors,
    and take the Bari term of each rung, in one walk over the rungs.

    For each of the first ``n_max`` eigenvalues lambda_n above c: the
    isolation radius gamma_n, the spectral projector F_n of the Schur
    complement S(lambda_n) onto (-gamma_n, gamma_n), the eigenprojector E of
    A at mu_{kappa+n}, the operator norm of their difference, the
    circle-maximized delta_n, and the Bari term ||y_{kappa+n} - x_n||^2 of
    x_n against its aligned projection y onto the range of E.  The circle is
    sampled at 128 equally spaced angles.  The rungs are those of
    block.landmarks; n_max outside 1..rungs raises ArgumentError.  Raises
    DegenerateGapError when gamma_n < assembled_tol, PairingError when the
    first component of the eigenvector at lambda_n falls below PAIR_TOL, and
    UnderflowError when the denominator dist[z, sigma(A)] (lambda_n - c) of
    delta_n is 0 on the circle.  An x_n that aligned_term cannot align
    raises nothing: its term is None and the report keeps the first such
    text.

    F_n is the projector onto span{x_n}, the normalized first component of
    the eigenvector of M at lambda_n, so S(lambda_n) is neither formed nor
    solved.  Off sigma(C), S'(lambda) = -I - B (C - lambda)^{-2} B* <= -I,
    so every eigenvalue curve of S falls at slope <= -1.  A curve at
    s != 0 in (-gamma_n, gamma_n) at lambda_n would therefore vanish within
    |s| of lambda_n (followed to the left it rises at least as fast, to +inf
    at a pole of C or on through it), at a second eigenvalue of M closer
    than gamma_n, half the gap to lambda_n's neighbours.  So the window
    holds only ker S(lambda_n) = span{x_n}: gamma_n >= assembled_tol > 0
    makes lambda_n simple, and F_n has rank 1.  ‖E - F_n‖ comes from the
    bases alone (projector_distance): the cluster columns U of A and x_n give
    ‖U - x_n(x_n* U)‖ when U is one column and exactly 1 otherwise.
    """
    marks = block.landmarks
    if not 1 <= n_max <= marks.rungs:
        raise ArgumentError(
            f"n_max = {n_max} is outside 1..{marks.rungs}, the rungs above c")
    spec_a = block.eig_a.eigenvalues
    labels = block.a_clusters
    spec_m = block.eig_m.eigenvalues
    tol_full = block.assembled_tol
    angles = 2.0 * np.pi * np.arange(128) / 128
    records = []
    m_constant = 0.0
    unaligned = None
    for n in range(1, n_max + 1):
        lam = float(marks.lambda_above_c[n - 1])
        gamma = _isolation_radius(lam, spec_m)
        if gamma < tol_full:
            raise DegenerateGapError(
                f"eigenvalue {lam:.12g} collides with a neighbour "
                f"(gamma = {gamma:.3e})")
        k = marks.kappa + n - 1
        mu = float(spec_a[k])
        x = block.eig_m.vectors[:block.n1, marks.first_above + n - 1]
        x_norm = float(np.linalg.norm(x))
        if x_norm < PAIR_TOL:
            raise PairingError(
                f"eigenvector at {lam:.12g} has vanishing first component")
        x = x / x_norm
        cols = block.eig_a.vectors[:, labels == labels[k]]
        diff_norm = projector_distance(cols, x[:, None])
        try:
            term, _ = aligned_term(x, cols)
        except PairingError as exc:
            term = None
            unaligned = unaligned or str(exc)
        zs = lam + gamma * np.exp(1j * angles)
        dists = np.abs(zs[:, None] - spec_a[None, :]).min(axis=1)
        with np.errstate(over="ignore"):  # delta = inf at extreme scales
            denom = dists * (lam - marks.c)
            if not denom.all():
                raise UnderflowError(
                    f"delta_{n} is undefined: dist[z, sigma(A)] (lambda - c) "
                    f"is 0 on the circle around {lam:.12g}; the product "
                    "underflows, or the circle meets sigma(A)")
            delta = float(np.max(rb.a / (lam - marks.c)
                                 + np.abs(rb.a * zs + rb.b) / denom))
        circle_dist_a = float(np.min(np.abs(np.abs(lam - spec_a) - gamma)))
        inside = int(np.sum(np.abs(spec_a - lam) < gamma))
        ratio = gamma / circle_dist_a if circle_dist_a > 0 else float("inf")
        m_constant = max(m_constant, ratio)
        bound = ratio * delta / (1.0 - delta) if delta < 1.0 else float("inf")
        records.append(DecayRecord(
            n=n, lam=lam, mu=mu, gamma=gamma, delta=delta,
            proj_diff_norm=diff_norm, bound=bound,
            circle_dist_a=circle_dist_a, a_points_inside=inside, term=term))
    gaps = np.diff(spec_a)[:min(spec_a.size - 1, marks.kappa + n_max)]
    with np.errstate(divide="ignore", over="ignore"):
        gap_sum = float(np.sum(1.0 / gaps ** 2)) if gaps.size else 0.0
    return DecayReport(records=tuple(records), m_constant=m_constant,
                       gap_sum=gap_sum, unaligned=unaligned)


def aligned_term(x: np.ndarray, cols: np.ndarray) -> tuple[float, float]:
    """‖y - x‖² and ‖Ex‖ for a unit vector x and its aligned y = Ex/‖Ex‖,
    where E = UU* projects onto the span of the orthonormal columns U.

    With c = U*x, ‖Ex‖ = ‖c‖ and y = Uc/‖c‖, so no n x n projector is
    formed.  The term is the norm of the vector y - x: the closed form
    2 - 2‖c‖ cancels when y is close to x.  The alignment absorbs any phase
    of x, so the term is invariant under x -> e^{i theta} x.  Raises
    PairingError when ‖Ex‖ falls below PAIR_TOL.
    """
    coeffs = cols.conj().T @ x
    overlap = float(np.linalg.norm(coeffs))
    if overlap < PAIR_TOL:
        raise PairingError(
            f"projected component has norm {overlap:.3e}; cannot align")
    y = (cols @ coeffs) / overlap
    return float(np.linalg.norm(y - x) ** 2), overlap
