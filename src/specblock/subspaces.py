"""Graph invariant subspaces and angular operators.

Spectral subspaces of the assembled matrix for half-lines (alpha, inf), the
graph test on their first components, the angular operator K with domain
basis / norm / codimension, the delta sufficient condition for graph
subspaces, and the diagonal-shift construction that pushes spectrum of A
above a target.  The graph test and the angular operator read one thin SVD
of the first-component block, computed once per subspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blocks import BlockOperatorMatrix, RelativeBound
from .errors import ArgumentError, HypothesisError, NotAGraphError
from .linalg import (
    Interval,
    hermitian_part_eigvals,
    spectral_distance,
    spectral_projector,
    thin_svd,
)
from .tolerance import GRAPH_TOL, INDETERMINATE_TOL, scalar_tol

__all__ = [
    "GRAPH",
    "NOT_GRAPH",
    "INDETERMINATE",
    "GraphSubspace",
    "GraphTest",
    "AngularOperator",
    "spectral_subspace",
    "graph_test",
    "angular_operator",
    "delta_condition",
    "shifted_matrix",
]

GRAPH = "graph"
NOT_GRAPH = "not-graph"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class GraphSubspace:
    """Orthonormal basis of a subspace, split into component blocks.

    The stacked columns [basis_first; basis_second] are orthonormal.
    """

    basis_first: np.ndarray
    basis_second: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis_first.shape[1]

    @cached_property
    def first_svd(self):
        """Thin SVD U = P diag(s) Q* of the first-component block U, computed
        once as linalg.thin_svd's (P, s, Q*): in float64 when U has an
        all-zero imaginary part."""
        return thin_svd(self.basis_first)

    @cached_property
    def angular(self) -> AngularOperator:
        """angular_operator(self), computed once; an error is not cached."""
        return angular_operator(self)

    def stacked(self) -> np.ndarray:
        return np.vstack((self.basis_first, self.basis_second))


@dataclass(frozen=True)
class GraphTest:
    """Verdict of the graph test and the smallest singular value it read."""

    verdict: str
    sigma_min: float


@dataclass(frozen=True)
class AngularOperator:
    """Operator K whose graph realizes a spectral subspace.

    ``domain`` is an orthonormal basis (n1 x dim) of Dom(K) = range of the
    first-component block; ``norm`` is the largest singular value of K, which
    vanishes off its domain, read from the factors angular_operator already
    holds; ``codim`` is the codimension of Dom(K) in the first component
    space.
    """

    K: np.ndarray
    domain: np.ndarray
    norm: float
    codim: int


def spectral_subspace(block: BlockOperatorMatrix, alpha: float) -> GraphSubspace:
    """Orthonormal basis of the subspace spanned by eigenvalues above alpha."""
    alpha = float(alpha)
    tol = block.assembled_tol
    dec = block.eig_m
    if spectral_distance(alpha, dec.eigenvalues) <= tol:
        raise ArgumentError(
            f"alpha = {alpha:.12g} is within {tol:.3e} of an eigenvalue of "
            "the assembled matrix")
    cols = dec.vectors[:, dec.eigenvalues > alpha]
    return GraphSubspace(basis_first=cols[:block.n1], basis_second=cols[block.n1:])


def graph_test(subspace: GraphSubspace) -> GraphTest:
    """Decide whether the subspace is the graph of an operator on its first block.

    The subspace is a graph iff the first-component block has full column
    rank, read as sigma_min > GRAPH_TOL; sigma_min in [INDETERMINATE_TOL,
    GRAPH_TOL] is reported as indeterminate rather than classified.
    """
    n1, m = subspace.basis_first.shape
    if m == 0:
        return GraphTest(verdict=GRAPH, sigma_min=float("inf"))
    sigma_min = float(subspace.first_svd[1][-1]) if m <= n1 else 0.0
    if sigma_min > GRAPH_TOL:
        verdict = GRAPH
    elif sigma_min < INDETERMINATE_TOL:
        verdict = NOT_GRAPH
    else:
        verdict = INDETERMINATE
    return GraphTest(verdict=verdict, sigma_min=sigma_min)


def angular_operator(subspace: GraphSubspace) -> AngularOperator:
    """Angular operator K = V U⁺ of a (possibly partial-domain) graph subspace.

    U must pass the graph test: a rank drop means the subspace contains a
    vector with vanishing first component and no angular operator exists.
    The domain of K is range(U), of codimension n1 - dim(subspace).  With
    U = P diag(s) Q* from the subspace's SVD, K = X P* with
    X = V Q diag(s)⁻¹: the graph test keeps every s above GRAPH_TOL, so
    nothing is truncated, and P is the domain basis.  So ‖K‖ = ‖X‖, read
    without a second SVD as t sqrt(lambda_max(Y*Y)), or of YY* when that is
    smaller, with Y = X/t and t = max|X_ij|: accurate to O(m eps) relative
    at every scale, where sqrt(1 - s²)/s would lose ‖K‖ to cancellation
    once ‖K‖² nears eps.
    """
    v = subspace.basis_second
    n1, m = subspace.basis_first.shape
    p, s, qh = subspace.first_svd
    if graph_test(subspace).verdict != GRAPH:
        raise NotAGraphError(
            "subspace contains a vector with vanishing first component "
            f"(first-block rank {int(np.sum(s > GRAPH_TOL))} < subspace "
            f"dimension {m})")
    x = (v @ qh.conj().T) / s
    t = float(np.max(np.abs(x), initial=0.0))
    y = x / (t or 1.0)  # so its Gram matrix neither underflows nor overflows
    gram = y @ y.conj().T if y.shape[0] < y.shape[1] else y.conj().T @ y
    norm = t * math.sqrt(np.max(hermitian_part_eigvals(gram), initial=0.0))
    return AngularOperator(K=x @ p.conj().T, domain=p, norm=norm, codim=n1 - m)


def delta_condition(alpha: float, c: float, spec_a,
                    rb: RelativeBound) -> float:
    """delta = a/(alpha - c) + |a alpha + b| / (dist[alpha, sigma(A)] (alpha - c)).

    A value below 1/2 guarantees the subspace above alpha is a graph with a
    bounded angular operator.  alpha must lie strictly above c and away from
    sigma(A).
    """
    alpha, c = float(alpha), float(c)
    if alpha - c <= scalar_tol(alpha, c):
        raise HypothesisError("alpha must lie strictly above c")
    d_a = spectral_distance(alpha, spec_a)
    if d_a <= scalar_tol(alpha):
        raise HypothesisError("alpha must keep its distance from sigma(A)")
    return rb.a / (alpha - c) + abs(rb.a * alpha + rb.b) / (d_a * (alpha - c))


def shifted_matrix(block: BlockOperatorMatrix, mu: float) -> BlockOperatorMatrix:
    """Replace A by A + t E((-inf, mu)), t = mu - min sigma(A).

    The shifted diagonal block dominates mu I, so the gap (c, mu) is free of
    spectrum of the shifted assembly.
    """
    mu = float(mu)
    dec = block.eig_a
    lam_min = float(dec.eigenvalues[0])
    if mu - lam_min <= scalar_tol(mu, lam_min):
        raise ArgumentError("mu must exceed min sigma(A)")
    t = mu - lam_min
    below = spectral_projector(
        dec, Interval(float("-inf"), mu, open_lo=True, open_hi=True))
    shifted = block.A + t * below
    return BlockOperatorMatrix(A=0.5 * (shifted + shifted.conj().T),
                               B=block.B, C=block.C)

