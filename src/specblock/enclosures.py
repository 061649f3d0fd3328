"""Spectral enclosures for block operator matrices.

Distance bound, inclusion/exclusion windows around eigenvalues of A,
certified resolvent intervals, subspace-dimension counts, variational
two-sided bounds, and second-order-spectrum enclosures on trial subspaces.
The windows, pairs and brackets read sigma(A) as one point per cluster
(``BlockOperatorMatrix.a_points``); ``window_owners`` assigns the windows.
Every unmet hypothesis, a window that overflows double precision included,
raises HypothesisError, which the check builders report as not applicable.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .blocks import BlockOperatorMatrix, RelativeBound, assemble
from .errors import ArgumentError, HypothesisError, NumericError
from .linalg import (
    Interval,
    as_matrix,
    general_eig,
    orthonormality_defect,
)
from .report import holds
from .tolerance import (BASE_TOL, ORTH_TOL, REAL_AXIS_REL, SOQ_MARGIN_REL,
                        scalar_tol)

__all__ = [
    "EnclosureReport",
    "QepEnclosure",
    "dist_bound",
    "eigenvalue_window",
    "exclusion_window",
    "resolvent_interval",
    "subspace_dim_check",
    "variational_bounds",
    "soq_enclosure",
    "window_owners",
    "soq_bracket",
    "resolvent_pairs",
    "soq_gaps",
    "soq_misses",
]


@dataclass(frozen=True)
class EnclosureReport:
    """dist[lam, sigma(A)] versus its certified bound at each point lam, and
    where the hypothesis dist[lam, sigma(C)] > a holds."""

    dist_to_A: np.ndarray
    bound: np.ndarray
    dist_to_C: np.ndarray
    applies: np.ndarray
    a: float

    def at(self, i: int) -> tuple[float, float]:
        """(dist_to_A, bound) at point i; HypothesisError where the
        hypothesis fails."""
        if not self.applies[i]:
            raise HypothesisError(f"dist[lam, sigma(C)] = {self.dist_to_C[i]:.6g}"
                                  f" does not exceed a = {self.a:.6g}")
        return float(self.dist_to_A[i]), float(self.bound[i])


@dataclass(frozen=True)
class QepEnclosure:
    """One second-order-spectrum point with its admission status and interval."""

    z: complex
    interval: Interval | None
    admitted: bool


def dist_bound(lams, spec_a, spec_c, rb: RelativeBound) -> EnclosureReport:
    """dist[lam, sigma(A)] and its bound |a lam + b| / (dist[lam, sigma(C)] - a)
    at each point of ``lams``, a scalar or a 1-D array.

    The bound requires dist[lam, sigma(C)] > a + scalar_tol(a, dist), and
    ``applies`` says where that holds.  The arithmetic is elementwise, so each
    point gets the bits it would get alone.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))

    def dist(spec):  # spectral_distance at each point; +inf for no spectrum
        return np.min(np.abs(np.ravel(spec) - lams[:, None]), axis=1,
                      initial=np.inf)

    d_c = dist(spec_c)
    # scalar_tol(a, d_c) at each point: rb.a >= 0, and an infinite d_c
    # does not count
    tol = BASE_TOL * np.maximum(max(1.0, rb.a),
                                np.where(np.isfinite(d_c), d_c, 1.0))
    with np.errstate(all="ignore"):  # not read where the bound does not apply
        bound = np.abs(rb.a * lams + rb.b) / (d_c - rb.a)
    return EnclosureReport(dist_to_A=dist(spec_a), bound=bound,
                           dist_to_C=d_c, applies=~(d_c <= rb.a + tol), a=rb.a)


def _window(lo: float, hi: float, kind: str, is_open: bool) -> Interval:
    """[lo, hi], open when ``is_open``; an overflowed one certifies nothing."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise HypothesisError(f"the {kind} window overflows double precision")
    return Interval(lo, hi, open_lo=is_open, open_hi=is_open)


def eigenvalue_window(mu: float, c: float, rb: RelativeBound) -> Interval:
    """Closed inclusion window [alpha-, alpha+] around mu in sigma(A).

    alpha± = (mu + c + 2a)/2 ± sqrt(((mu - c)/2)² + a(a + c) + b).
    """
    mu, c = float(mu), float(c)
    half = (mu - c) / 2.0
    disc = half * half + rb.a * (rb.a + c) + rb.b
    if disc < 0.0:
        if disc < -scalar_tol(mu, c, rb.a, rb.b):
            raise HypothesisError(
                "negative discriminant in the inclusion window; the relative "
                "bound does not certify mu >= min sigma(A)")
        disc = 0.0
    root = math.sqrt(disc)
    mid = (mu + c + 2.0 * rb.a) / 2.0
    return _window(mid - root, mid + root, "inclusion", is_open=False)


def exclusion_window(mu: float, c: float, rb: RelativeBound) -> Interval:
    """Open spectral-free window (beta-, beta+) below mu in sigma(A).

    beta± = (mu + c)/2 ± sqrt(((mu - c)/2)² - (a mu + b)), subject to the
    strict discriminant hypothesis (mu - c)² > 4 a mu + 4 b.
    """
    mu, c = float(mu), float(c)
    diff = mu - c
    lhs = diff * diff
    rhs = 4.0 * (rb.a * mu + rb.b)
    if lhs <= rhs + scalar_tol(lhs, rhs):
        raise HypothesisError("(mu - c)^2 does not exceed 4 a mu + 4 b")
    half = diff / 2.0
    root = math.sqrt(half * half - (rb.a * mu + rb.b))
    mid = (mu + c) / 2.0
    return _window(mid - root, mid + root, "exclusion", is_open=True)


def resolvent_interval(mu1: float, mu2: float, c: float,
                       rb: RelativeBound) -> Interval:
    """Certified spectral-free open interval (alpha1+, beta2+) between
    mu1 < mu2.

    Needs a + c < mu1 < mu2, beta2- < (mu1 + mu2)/2 and alpha1+ < beta2+;
    the caller is responsible for (mu1, mu2) being free of sigma(A).  Any
    failed hypothesis raises HypothesisError with the reason.
    """
    mu1, mu2, c = float(mu1), float(mu2), float(c)
    if not mu1 < mu2:
        raise HypothesisError("mu1 must be below mu2")
    if mu1 - (rb.a + c) <= scalar_tol(mu1, rb.a, c):
        raise HypothesisError("mu1 must exceed a + c")
    upper = eigenvalue_window(mu1, c, rb)
    try:
        lower = exclusion_window(mu2, c, rb)
    except HypothesisError as exc:
        raise HypothesisError(f"exclusion window at mu2: {exc}") from exc
    if not lower.lo < (mu1 + mu2) / 2.0:
        raise HypothesisError(
            "beta2- must lie below the midpoint of (mu1, mu2)")
    if not upper.hi < lower.hi:
        raise HypothesisError("alpha1+ must lie below beta2+")
    return Interval(upper.hi, lower.hi, open_lo=True, open_hi=True)


def subspace_dim_check(block: BlockOperatorMatrix, b2p: float,
                       a3p: float) -> tuple[int, int]:
    """Count spectrum of the assembled matrix and of A inside [b2p, a3p].

    With both bracketing pairs satisfying the resolvent-interval hypotheses
    the two counts agree.
    """
    if not b2p < a3p:
        raise ArgumentError("need b2p < a3p")
    spec_m = block.eig_m.eigenvalues
    spec_a = block.eig_a.eigenvalues
    count_m = int(np.sum((spec_m >= b2p) & (spec_m <= a3p)))
    count_a = int(np.sum((spec_a >= b2p) & (spec_a <= a3p)))
    return count_m, count_a


def variational_bounds(spec_a, c: float, rb: RelativeBound, kappa: int,
                       n_max: int | None = None) -> list[Interval]:
    """Two-sided bounds [mu_{kappa+n}, upper_n] for the eigenvalues above c.

    upper_n = (mu_{kappa+n} + c)/2 + sqrt(((mu_{kappa+n} - c)/2)² +
    a mu_{kappa+n} + b).  Raises HypothesisError when a discriminant is
    negative beyond round-off or an upper bound overflows double precision.
    """
    spec_a = np.sort(np.asarray(spec_a, dtype=float))
    if kappa < 0:
        raise ArgumentError("kappa must be nonnegative")
    available = spec_a.size - kappa
    if n_max is None:
        n_max = available
    if n_max > available:
        raise ArgumentError(
            f"requested {n_max} bounds but only {available} eigenvalues of A "
            f"remain above index kappa = {kappa}")
    out = []
    for n in range(1, n_max + 1):
        mu = float(spec_a[kappa + n - 1])
        half = (mu - c) / 2.0
        disc = half * half + rb.a * mu + rb.b
        if disc < 0.0:
            if disc < -scalar_tol(mu, c, rb.a, rb.b):
                raise HypothesisError(
                    "negative discriminant in the variational upper bound")
            disc = 0.0
        hi = (mu + c) / 2.0 + math.sqrt(disc)
        if not math.isfinite(hi):
            raise HypothesisError(
                "the variational upper bound overflows double precision")
        out.append(Interval(mu, max(hi, mu)))
    return out


def window_owners(bottoms, tops, lams) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the clusters whose inclusion and exclusion windows apply
    at each point of ``lams``, given the ascending cluster ``bottoms`` and
    ``tops`` of sigma(A); -1 where none applies.

    Inclusion: the highest cluster with bottom <= lam, when it is the last
    or lam is at most the midpoint of the gap above it.  Exclusion: the
    lowest cluster with top >= lam, when it is the first or lam exceeds the
    midpoint of the gap below it.  Each midpoint is widened by scalar_tol of
    the gap's ends.  A lam inside a cluster's span gets both of its windows.
    """
    bottoms, tops, lams = (np.asarray(x, dtype=float)
                           for x in (bottoms, tops, lams))
    lo, hi = tops[:-1], bottoms[1:]  # the gaps between clusters
    mid = 0.5 * (lo + hi) + BASE_TOL * np.maximum(
        1.0, np.maximum(np.abs(lo), np.abs(hi)))  # scalar_tol(lo, hi)
    last = bottoms.size - 1
    incl = np.searchsorted(bottoms, lams, side="right") - 1
    incl_ok = (incl >= 0) & (lams <= np.append(mid, np.inf)[incl])
    excl = np.searchsorted(tops, lams, side="left")
    excl_ok = (excl <= last) & (
        lams > np.insert(mid, 0, -np.inf)[np.minimum(excl, last)])
    return np.where(incl_ok, incl, -1), np.where(excl_ok, excl, -1)


def resolvent_pairs(spec, c: float, rb: RelativeBound) -> list[tuple[float, float]]:
    """The consecutive points (mu1, mu2) of sorted ``spec`` whose
    resolvent-interval hypotheses hold, in ascending order."""
    spec = np.sort(np.asarray(spec, dtype=float)).tolist()
    pairs = []
    for mu1, mu2 in zip(spec, spec[1:]):
        with suppress(HypothesisError):
            resolvent_interval(mu1, mu2, c, rb)
            pairs.append((mu1, mu2))
    return pairs


def soq_bracket(spec_a, c: float, rb: RelativeBound):
    """Disc geometry (a1p, b4m, b4p) from the first and last valid pair windows.

    Needs at least two consecutive pairs of the points ``spec_a`` of sigma(A),
    a block's a_points, passing the resolvent-interval hypotheses.  b4m falls
    back onto b4p whenever the lower exclusion endpoint sits left of a1p (the
    usual case for separated spectra), keeping the disc over (a1p, b4p).
    Returns None when fewer than two pairs validate.
    """
    pairs = resolvent_pairs(spec_a, c, rb)
    if len(pairs) < 2:
        return None
    a1p = eigenvalue_window(pairs[0][0], c, rb).hi
    ex = exclusion_window(pairs[-1][1], c, rb)
    b4m = ex.lo if ex.lo > a1p else ex.hi
    return float(a1p), float(b4m), float(ex.hi)


def _merge_conjugates(values: np.ndarray) -> list[complex]:
    """Keep the Im >= 0 representative of each conjugate pair.

    Nominally real points are snapped onto the axis first so a stray
    -1e-17j cannot drop a real eigenvalue.
    """
    kept = []
    for z in values:
        z = complex(z)
        if abs(z.imag) <= REAL_AXIS_REL * max(1.0, abs(z)):
            z = complex(z.real, 0.0)
        if z.imag >= 0.0:
            kept.append(z)
    return kept


def soq_enclosure(block: BlockOperatorMatrix, subspace, a1p: float,
                  b4m: float, b4p: float) -> list[QepEnclosure]:
    """Second-order-spectrum enclosures on a trial subspace.

    Solves z²u - 2z S1 u + S2 u = 0 with S1, S2 the compressions of the
    assembled matrix and its square, via the companion form
    [[0, I], [-S2, 2 S1]].  Points inside the open disc with centre
    (a1p + b4p)/2 and radius (b4m - a1p)/2 are admitted and produce the
    interval [Re z - |Im z|²/(b4p - Re z), Re z + |Im z|²/(Re z - a1p)].
    """
    q = as_matrix(subspace)
    full = assemble(block)
    if q.shape[0] != full.shape[0]:
        raise ArgumentError(
            f"subspace lives in dimension {q.shape[0]}, expected {full.shape[0]}")
    if q.shape[1] == 0:
        raise ArgumentError("subspace must have at least one column")
    if orthonormality_defect(q) > ORTH_TOL:
        raise ArgumentError("subspace columns must be orthonormal")
    a1p, b4m, b4p = float(a1p), float(b4m), float(b4p)
    if not (a1p < b4m <= b4p):
        raise ArgumentError("need a1p < b4m <= b4p")
    m = q.shape[1]
    mq = full @ q
    s1 = q.conj().T @ mq
    s2 = mq.conj().T @ mq  # equals q* M² q since M is Hermitian
    s1 = 0.5 * (s1 + s1.conj().T)
    s2 = 0.5 * (s2 + s2.conj().T)
    companion = np.block([
        [np.zeros((m, m), dtype=complex), np.eye(m, dtype=complex)],
        [-s2, 2.0 * s1]])
    center = 0.5 * (a1p + b4p)
    radius = 0.5 * (b4m - a1p)
    out = []
    for z in _merge_conjugates(general_eig(companion)):
        admitted = bool(abs(z - center) < radius)
        interval = None
        if admitted:
            re, im = z.real, z.imag
            if not a1p < re < b4p:
                raise NumericError(
                    "admitted second-order point has real part outside "
                    "(a1p, b4p); the disc geometry excludes this")
            interval = Interval(re - im * im / (b4p - re),
                                re + im * im / (re - a1p))
        out.append(QepEnclosure(z=z, interval=interval, admitted=admitted))
    return out


def soq_gaps(enclosures, spectrum) -> tuple:
    """The comparison of the admitted enclosures with ``spectrum``, one
    element each: the distance from the interval to its nearest point (0 for
    a point inside) against 0, at scale max(1, |Re z|).  Judged with
    SOQ_MARGIN_REL of slack, a point within SOQ_MARGIN_REL * max(1, |Re z|)
    of an endpoint meets the interval."""
    spectrum = np.asarray(spectrum, dtype=float)
    gaps, scales = [], []
    for encl in enclosures:
        if encl.admitted:
            iv = encl.interval
            edge = np.minimum(np.abs(spectrum - iv.lo), np.abs(spectrum - iv.hi))
            gaps.append(float(np.min(np.where(iv.mask(spectrum), 0.0, edge),
                                     initial=np.inf)))
            scales.append(max(1.0, abs(encl.z.real)))
    return gaps, 0.0, "<=", scales


def soq_misses(enclosures, spectrum) -> list[QepEnclosure]:
    """The admitted enclosures whose interval meets no point of ``spectrum``
    (see ``soq_gaps``); points that were not admitted never miss."""
    admitted = [encl for encl in enclosures if encl.admitted]
    met = holds(soq_gaps(enclosures, spectrum), SOQ_MARGIN_REL)
    return [encl for encl, hit in zip(admitted, met) if not hit]
