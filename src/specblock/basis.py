"""Basis diagnostics for first components of eigenvectors above max sigma(C).

Riesz frame bounds through the Gram matrix, the projection-decay comparison
between eigenprojectors of A and spectral projectors of the Schur complement,
and Bari partial sums against aligned eigenvectors of A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import (
    BlockOperatorMatrix,
    RelativeBound,
    SpectralLandmarks,
    assemble,
    best_relative_bound,
    schur_complement,
)
from .errors import ArgumentError, DegenerateGapError, PairingError
from .linalg import (
    Interval,
    hermitian_eig,
    hermitian_eigvals,
    spectral_projector,
)
from .subspaces import AngularOperator, GraphSubspace
from .tolerance import matrix_tol

__all__ = [
    "BasisReport",
    "DecayRecord",
    "DecayReport",
    "BariRecord",
    "BariReport",
    "riesz_check",
    "projection_decay",
    "aligned_term",
    "bari_sum",
]


@dataclass(frozen=True)
class BasisReport:
    """Gram-matrix frame bounds for the first components of eigenvectors."""

    gram_min: float
    gram_max: float
    k_norm: float
    riesz_lower: float
    passed: bool


@dataclass(frozen=True)
class DecayRecord:
    """Projection-decay data for one eigenvalue above c.

    ``bound`` is the explicit chain (gamma / dist[circle, sigma(A)]) *
    delta/(1 - delta), infinite when delta >= 1.  ``a_points_inside`` counts
    spectrum of A strictly inside the comparison circle; the chain assumes
    exactly one.
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


@dataclass(frozen=True)
class DecayReport:
    records: tuple
    m_constant: float


@dataclass(frozen=True)
class BariRecord:
    n: int
    lam: float
    mu: float
    term: float
    overlap: float
    simple: bool


@dataclass(frozen=True)
class BariReport:
    records: tuple
    partial_sums: np.ndarray
    gap_sum: float
    converged: bool


def riesz_check(block: BlockOperatorMatrix, subspace: GraphSubspace,
                k_op: AngularOperator, tol: float = 1e-8,
                residual_tol: float = 1e-6) -> BasisReport:
    """Frame bounds of the first components against [1/(1 + ‖K‖²), 1].

    The subspace columns must be orthonormal eigenvectors of the assembled
    matrix with eigenvalues above max sigma(C); anything else is an input
    error.
    """
    stacked = subspace.stacked()
    if stacked.shape[1] == 0:
        raise ArgumentError("subspace must contain at least one eigenvector")
    c = float(block.eig_c.eigenvalues[-1])
    # ‖M‖ = max|eigenvalue| for Hermitian M
    scale = max(float(np.max(np.abs(block.eig_m.eigenvalues))), 1.0)
    mw = assemble(block) @ stacked
    rayleighs = np.real(np.sum(stacked.conj() * mw, axis=0))
    residuals = np.linalg.norm(mw - stacked * rayleighs, axis=0)
    for j, (rayleigh, residual) in enumerate(zip(rayleighs, residuals)):
        if residual > residual_tol * scale:
            raise ArgumentError(
                f"column {j} is not an eigenvector (residual {residual:.3e})")
        if rayleigh <= c:
            raise ArgumentError(
                f"column {j} has eigenvalue {rayleigh:.6g} <= c = {c:.6g}")
    gram = subspace.basis_first.conj().T @ subspace.basis_first
    gram_eigs = hermitian_eigvals(gram)
    gram_min = float(gram_eigs[0])
    gram_max = float(gram_eigs[-1])
    riesz_lower = 1.0 / (1.0 + k_op.norm ** 2)
    passed = gram_min >= riesz_lower - tol and gram_max <= 1.0 + tol
    return BasisReport(gram_min=gram_min, gram_max=gram_max, k_norm=k_op.norm,
                       riesz_lower=riesz_lower, passed=bool(passed))


def _isolation_radius(value: float, spectrum: np.ndarray) -> float:
    """Half the distance from value to the rest of the spectrum (one copy removed)."""
    idx = int(np.argmin(np.abs(spectrum - value)))
    rest = np.delete(spectrum, idx)
    if rest.size == 0:
        return float("inf")
    return 0.5 * float(np.min(np.abs(rest - value)))


def _cluster_projector(dec, value: float, tol: float) -> np.ndarray:
    mask = np.abs(dec.eigenvalues - value) <= tol
    cols = dec.vectors[:, mask]
    return cols @ cols.conj().T


def projection_decay(block: BlockOperatorMatrix, marks: SpectralLandmarks,
                     n_max: int, rb: RelativeBound | None = None,
                     circle_points: int = 64) -> DecayReport:
    """Compare eigenprojectors of A with Schur-complement spectral projectors.

    For each of the first ``n_max`` eigenvalues above c: the isolation radius
    gamma_n, the projector of the Schur complement at lambda_n onto
    (-gamma_n, gamma_n), the eigenprojector of A at mu_{kappa+n}, the operator
    norm of their difference, and the circle-maximized delta_n.  The circle is
    sampled at 2 * circle_points angles (a refinement of the circle_points
    grid, so the reported maximum dominates the coarse one).
    """
    if n_max < 1:
        raise ArgumentError("n_max must be at least 1")
    if marks.lambda_above_c.size < n_max:
        raise ArgumentError(
            f"only {marks.lambda_above_c.size} eigenvalues above c, "
            f"need {n_max}")
    dec_a = block.eig_a
    spec_a = dec_a.eigenvalues
    if spec_a.size < marks.kappa + n_max:
        raise ArgumentError("not enough eigenvalues of A for the requested range")
    if rb is None:
        rb = best_relative_bound(block)
    spec_m = block.eig_m.eigenvalues
    tol_full = block.assembled_tol()
    tol_a = matrix_tol(block.A)
    angles = 2.0 * np.pi * np.arange(2 * circle_points) / (2 * circle_points)
    records = []
    m_constant = 0.0
    for n in range(1, n_max + 1):
        lam = float(marks.lambda_above_c[n - 1])
        gamma = _isolation_radius(lam, spec_m)
        if gamma < tol_full:
            raise DegenerateGapError(
                f"eigenvalue {lam:.12g} collides with a neighbour "
                f"(gamma = {gamma:.3e})")
        mu = float(spec_a[marks.kappa + n - 1])
        s = schur_complement(block, lam)
        f_proj = spectral_projector(
            hermitian_eig(s), Interval(-gamma, gamma, open_lo=True, open_hi=True))
        e_proj = _cluster_projector(dec_a, mu, tol_a)
        # E - F is Hermitian, so its norm is its largest |eigenvalue|
        diff_norm = float(np.max(np.abs(hermitian_eigvals(e_proj - f_proj))))
        zs = lam + gamma * np.exp(1j * angles)
        dists = np.abs(zs[:, None] - spec_a[None, :]).min(axis=1)
        delta = float(np.max(
            rb.a / (lam - marks.c)
            + np.abs(rb.a * zs + rb.b) / (dists * (lam - marks.c))))
        circle_dist_a = float(np.min(np.abs(np.abs(lam - spec_a) - gamma)))
        inside = int(np.sum(np.abs(spec_a - lam) < gamma))
        ratio = gamma / circle_dist_a if circle_dist_a > 0 else float("inf")
        m_constant = max(m_constant, ratio)
        bound = ratio * delta / (1.0 - delta) if delta < 1.0 else float("inf")
        records.append(DecayRecord(
            n=n, lam=lam, mu=mu, gamma=gamma, delta=delta,
            proj_diff_norm=diff_norm, bound=bound,
            circle_dist_a=circle_dist_a, a_points_inside=inside))
    return DecayReport(records=tuple(records), m_constant=m_constant)


def aligned_term(x: np.ndarray, projector: np.ndarray,
                 pair_tol: float = 1e-8) -> tuple[float, float]:
    """‖y - x‖² for the aligned unit vector y = Px/‖Px‖ of a unit vector x.

    The alignment absorbs any phase of x, so the term is invariant under
    x -> e^{i theta} x.  Raises PairingError when ‖Px‖ falls below pair_tol.
    """
    px = projector @ x
    overlap = float(np.linalg.norm(px))
    if overlap < pair_tol:
        raise PairingError(
            f"projected component has norm {overlap:.3e}; cannot align")
    y = px / overlap
    return float(np.linalg.norm(y - x) ** 2), overlap


def bari_sum(block: BlockOperatorMatrix, marks: SpectralLandmarks, n_max: int,
             pair_tol: float = 1e-8) -> BariReport:
    """Partial sums of ‖y_{kappa+n} - x_n‖² with aligned eigenvectors of A.

    x_n is the normalized first component of the n-th eigenvector above c;
    y_{kappa+n} is its aligned projection onto the eigenspace of A at
    mu_{kappa+n}.  ``gap_sum`` accumulates 1/(mu_{k+1} - mu_k)² over the
    leading gaps of sigma(A); ``converged`` flags that the last three
    increments each dropped below 1e-3 of the first.
    """
    if n_max < 1:
        raise ArgumentError("n_max must be at least 1")
    if marks.lambda_above_c.size < n_max:
        raise ArgumentError(
            f"only {marks.lambda_above_c.size} eigenvalues above c, "
            f"need {n_max}")
    dec_a = block.eig_a
    spec_a = dec_a.eigenvalues
    if spec_a.size < marks.kappa + n_max:
        raise ArgumentError("not enough eigenvalues of A for the requested range")
    dec_m = block.eig_m
    tol_full = block.assembled_tol()
    tol_a = matrix_tol(block.A)
    above_idx = np.nonzero(dec_m.eigenvalues > marks.c + tol_full)[0]
    n1 = block.n1
    records = []
    terms = []
    for n in range(1, n_max + 1):
        idx = int(above_idx[n - 1])
        lam = float(dec_m.eigenvalues[idx])
        vec = dec_m.vectors[:, idx]
        x = vec[:n1]
        x_norm = float(np.linalg.norm(x))
        if x_norm < pair_tol:
            raise PairingError(
                f"eigenvector at {lam:.12g} has vanishing first component")
        x = x / x_norm
        mu = float(spec_a[marks.kappa + n - 1])
        e_proj = _cluster_projector(dec_a, mu, tol_a)
        term, overlap = aligned_term(x, e_proj, pair_tol=pair_tol)
        simple = bool(np.sum(np.abs(spec_a - mu) <= tol_a) == 1
                      and _isolation_radius(mu, spec_a) > tol_a)
        records.append(BariRecord(n=n, lam=lam, mu=mu, term=term,
                                  overlap=overlap, simple=simple))
        terms.append(term)
    partial_sums = np.cumsum(terms)
    gap_count = min(spec_a.size - 1, marks.kappa + n_max)
    gaps = np.diff(spec_a)[:gap_count]
    with np.errstate(divide="ignore"):
        gap_sum = float(np.sum(1.0 / gaps ** 2)) if gaps.size else 0.0
    if len(terms) >= 4:
        first = terms[0]
        converged = all(t <= 1e-3 * first + 1e-30 for t in terms[-3:])
    else:
        converged = False
    return BariReport(records=tuple(records), partial_sums=partial_sums,
                      gap_sum=gap_sum, converged=bool(converged))
