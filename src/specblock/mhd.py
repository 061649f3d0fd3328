"""Magnetohydrodynamics application.

Finite-difference discretization of the plasma-oscillation block operator on
the weighted space L²_rho(0,1)³, the closed-form relative-bound constants
(a, b) and spectral top c of the multiplication block, essential-spectrum
band ranges, and the end-to-end report pipeline.

The first component carries the Sturm-Liouville part with Dirichlet ends and
is discretized with conservative three-point differences on N interior
points; the second and third components are multiplication operators sampled
on the same grid.  All blocks are conjugated by W^{1/2}, W = diag(rho_i h),
which turns the weighted inner product into the standard one.  The coupling's
centered stencil is truncated at the ends, and the eigenvalues above c
converge at first order in h: halving h from N = 127 to 2047 gives observed
orders log2|d_k / d_(k+1)| of 1.02, 1.01, 1.006 for the lowest one (linear
rho, sinusoidal va², g = 0.3) and 1.04, 1.02, 1.01 on the constant profile;
the next three start between 1.3 and 1.9 and fall toward 1 as N grows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .blocks import (
    BlockOperatorMatrix,
    RelativeBound,
    minimal_b_for_a,
    relative_bound_margin,
)
from .checks import DIST_ANCHOR, VAR_ANCHOR, angular_at_c_tilde, basis
from .enclosures import dist_bound, variational_bounds
from .errors import ArgumentError, HypothesisError, ProfileError
from .linalg import Interval, hermitian_eigvals
from .report import NOT_APPLICABLE, Check, aggregate, judge
from .tolerance import ZERO_DECAY, scalar_tol

__all__ = [
    "PlasmaProfile",
    "MhdDiscretization",
    "BUILTIN_FIELDS",
    "check_grid_n",
    "constant_profile",
    "profile_from_functions",
    "discretize",
    "constants",
    "essential_bands",
    "trial_space",
    "run_report",
]

# Built-in coefficient shapes for tests and problem files.
BUILTIN_FIELDS = {
    "constant": lambda x: np.ones_like(x),
    "linear": lambda x: 1.0 + x,
    "sinusoidal": lambda x: 1.0 + 0.5 * np.sin(np.pi * x),
}


def check_grid_n(grid_n: int) -> None:
    """Raise ProfileError unless a profile grid of grid_n points is long enough."""
    if grid_n < 3:
        raise ProfileError("profile grid needs at least 3 points")


@dataclass(frozen=True)
class PlasmaProfile:
    """Sampled plasma coefficients on a uniform grid over [0, 1] (ends included).

    rho is the equilibrium density, va2/vs2 the squared Alfvén and sound
    speeds, kperp/kpar the wave-vector coordinates, g the gravitational
    constant.  rho must be positive and va2 + vs2 positive everywhere.
    """

    rho: np.ndarray
    va2: np.ndarray
    vs2: np.ndarray
    kperp: np.ndarray
    kpar: np.ndarray
    g: float = 0.0

    def __post_init__(self):
        fields = {}
        length = None
        for name in ("rho", "va2", "vs2", "kperp", "kpar"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise ProfileError(f"{name} must be a 1-D sample array")
            if length is None:
                length = arr.size
            elif arr.size != length:
                raise ProfileError("all profile fields must share one grid")
            if arr.size and not np.all(np.isfinite(arr)):
                raise ProfileError(f"{name} contains non-finite samples")
            fields[name] = arr
        check_grid_n(length)
        if not np.isfinite(self.g):
            raise ProfileError("g must be finite")
        if np.min(fields["rho"]) <= 0.0:
            raise ProfileError("rho must be positive everywhere")
        if np.min(fields["va2"] + fields["vs2"]) <= 0.0:
            raise ProfileError("va2 + vs2 must be positive everywhere")
        for name, arr in fields.items():
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "g", float(self.g))

    @property
    def grid_n(self) -> int:
        return self.rho.size

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.grid_n)

    @property
    def k2(self) -> np.ndarray:
        return self.kperp ** 2 + self.kpar ** 2

    def at(self, name: str, xq: np.ndarray) -> np.ndarray:
        """Linearly interpolated field values at query points in [0, 1]."""
        return np.interp(xq, self.x, getattr(self, name))


def constant_profile(grid_n: int = 129, rho: float = 1.0, va2: float = 1.0,
                     vs2: float = 1.0, kperp: float = 1.0, kpar: float = 1.0,
                     g: float = 0.0) -> PlasmaProfile:
    """Uniform plasma slab, the workhorse test profile."""
    ones = np.ones(grid_n)
    return PlasmaProfile(rho * ones, va2 * ones, vs2 * ones,
                         kperp * ones, kpar * ones, g)


def profile_from_functions(rho, va2, vs2, kperp, kpar, g: float = 0.0,
                           grid_n: int = 129) -> PlasmaProfile:
    """Sample callables (or constants) on a uniform grid."""
    x = np.linspace(0.0, 1.0, grid_n)

    def evaluate(f):
        if callable(f):
            return np.asarray(f(x), dtype=float) * np.ones_like(x)
        return float(f) * np.ones_like(x)

    return PlasmaProfile(evaluate(rho), evaluate(va2), evaluate(vs2),
                         evaluate(kperp), evaluate(kpar), g)


@dataclass(frozen=True)
class MhdDiscretization:
    """Discretized blocks plus the grid and the profile they were built from."""

    N: int
    block: BlockOperatorMatrix
    x: np.ndarray
    h: float
    profile: PlasmaProfile


def _coupling_matrix(rho_i, coeff_i, mult_i, g, h):
    """-R, for iR the matrix of (rho^{-1} D rho coeff + i g) (mult ·) after
    the rho-similarity: the coupling in the real similar form (discretize).

    D = -i d/dx is realized by centered differences; the stencil is truncated
    at the ends (zero extension), an O(h) boundary effect on a block that
    carries no boundary condition of its own and a candidate cause of the
    first-order convergence of the eigenvalues above c.
    """
    n = rho_i.size
    prod = rho_i * coeff_i * mult_i
    mat = np.zeros((n, n))
    idx = np.arange(n - 1)
    mat[idx, idx + 1] = prod[1:] / (2.0 * h * np.sqrt(rho_i[:-1] * rho_i[1:]))
    mat[idx + 1, idx] = -prod[:-1] / (2.0 * h * np.sqrt(rho_i[1:] * rho_i[:-1]))
    mat[np.arange(n), np.arange(n)] = -g * mult_i
    return mat


def discretize(profile: PlasmaProfile, n_interior: int) -> MhdDiscretization:
    """Conservative finite-difference discretization on N interior points.

    A acts as -((rho w u')')/rho + k² va² u with w = va² + vs² and Dirichlet
    ends, using midpoint-averaged coefficients; C is the pointwise 2x2
    multiplication block; B couples through the centered first derivative,
    whose stencil is cut off at the two ends (_coupling_matrix).  The
    lower-left block of the assembly is B* exactly, and all blocks are
    expressed in the rho-weighted similarity so the result is Hermitian.
    The eigenvalues above c converge at first order in h, not second (see
    the module docstring for the measured orders).

    The discretized coupling is iR with R real.  The block is emitted in the
    real similar form (A, -R, C) = D*(A, iR, C)D with the diagonal unitary
    D = diag(I, iI), so it is stored, solved and multiplied in float64.  D
    changes no eigenvalue of M, A, C or the Schur complements, no norm or
    singular value of the coupling or the angular operator (K becomes
    -iK), and only the phases of eigenvector components; every reported
    quantity depends on none of these phases, so reports keep their values
    up to round-off.
    """
    if n_interior < 8:
        raise ArgumentError("need at least 8 interior points")
    n = int(n_interior)
    h = 1.0 / (n + 1)
    xi = h * np.arange(1, n + 1)
    xmid = h * (np.arange(0, n + 1) + 0.5)

    rho_i = profile.at("rho", xi)
    va2_i = profile.at("va2", xi)
    vs2_i = profile.at("vs2", xi)
    kperp_i = profile.at("kperp", xi)
    kpar_i = profile.at("kpar", xi)
    k2_i = kperp_i ** 2 + kpar_i ** 2
    w_mid = profile.at("rho", xmid) * (profile.at("va2", xmid)
                                       + profile.at("vs2", xmid))

    # Sturm-Liouville block, built directly in symmetric (weighted) form.
    a_mat = np.zeros((n, n))
    diag = (w_mid[1:] + w_mid[:-1]) / (rho_i * h * h) + k2_i * va2_i
    a_mat[np.arange(n), np.arange(n)] = diag
    idx = np.arange(n - 1)
    off = -w_mid[1:n] / (h * h * np.sqrt(rho_i[:-1] * rho_i[1:]))
    a_mat[idx, idx + 1] = off
    a_mat[idx + 1, idx] = off

    b_perp = _coupling_matrix(rho_i, va2_i + vs2_i, kperp_i, profile.g, h)
    b_par = _coupling_matrix(rho_i, vs2_i, kpar_i, profile.g, h)
    b_mat = np.hstack([b_perp, b_par])

    c11 = k2_i * va2_i + kperp_i ** 2 * vs2_i
    c12 = kperp_i * kpar_i * vs2_i
    c22 = kpar_i ** 2 * vs2_i
    c_mat = np.block([[np.diag(c11), np.diag(c12)],
                      [np.diag(c12), np.diag(c22)]])

    block = BlockOperatorMatrix(A=a_mat, B=b_mat, C=c_mat)
    return MhdDiscretization(N=n, block=block, x=xi, h=h, profile=profile)


def constants(profile: PlasmaProfile) -> tuple[float, float, float]:
    """Closed-form (a, b, c) evaluated on the profile's sample grid.

    c tops the pointwise 2x2 multiplication block; a and b realize the
    relative bound of the coupling against the Sturm-Liouville block, with
    the flux derivative taken by centered differences (one-sided ends).
    """
    w = profile.va2 + profile.vs2
    k2 = profile.k2
    disc = (k2 * w / 2.0) ** 2 - k2 * profile.kpar ** 2 * profile.va2 * profile.vs2
    min_disc = float(np.min(disc)) if disc.size else 0.0
    if min_disc < -scalar_tol(float(np.max(np.abs(disc))) if disc.size else 1.0):
        raise ProfileError("negative discriminant in the c closed form")
    c = float(np.max(k2 * w / 2.0 + np.sqrt(np.maximum(disc, 0.0))))
    a = float(np.max((w ** 2 * profile.kperp ** 2
                      + profile.vs2 ** 2 * profile.kpar ** 2) / w))
    flux = profile.rho * (w * profile.kperp + profile.vs2 * profile.kpar)
    dflux = np.gradient(flux, profile.x, edge_order=2)
    g = profile.g
    with np.errstate(over="ignore"):  # g ** 2 would raise OverflowError
        b_core = float(np.max(k2 * (g * g) - (g / profile.rho) * dflux))
    b = max(b_core - a * float(np.min(k2 * profile.va2)), 0.0)
    return a, b, c


def essential_bands(profile: PlasmaProfile, squared: bool = True) -> list[Interval]:
    """Ranges of the two coefficient functions filling the essential spectrum.

    ``squared`` selects wave-number squares in the two functions (the
    dimensionally consistent reading); the literal linear-in-k variant sits
    behind squared=False.  Neither is asserted as the correct one.
    """
    w = profile.va2 + profile.vs2
    if squared:
        f1 = profile.va2 * profile.kpar ** 2
        f2 = profile.va2 * profile.vs2 * profile.kperp ** 2 / w
    else:
        f1 = profile.va2 * profile.kpar
        f2 = profile.va2 * profile.vs2 * profile.kperp / w
    return [Interval(float(np.min(f1)), float(np.max(f1))),
            Interval(float(np.min(f2)), float(np.max(f2)))]


def trial_space(disc: MhdDiscretization, m: int) -> np.ndarray:
    """Orthonormal low-mode Galerkin trial space for second-order enclosures.

    Sine modes feed the Dirichlet first component, cosine modes (constant
    included) the second and third components, interleaved by frequency and
    orthonormalized.  This matches the derivative coupling: the lower
    components of eigenvectors are cosine-like when the first is sine-like.
    """
    if m < 1:
        raise ArgumentError("trial space needs at least one column")
    n = disc.N
    if m > 3 * n:
        raise ArgumentError(f"trial dimension {m} exceeds the space ({3 * n})")
    cols = []
    freq = 0
    while len(cols) < m:
        if freq >= 1:
            vec = np.zeros(3 * n)
            vec[:n] = np.sin(freq * np.pi * disc.x)
            cols.append(vec)
        for offset in (n, 2 * n):
            if len(cols) < m:
                vec = np.zeros(3 * n)
                vec[offset:offset + n] = np.cos(freq * np.pi * disc.x)
                cols.append(vec)
        freq += 1
    q, _ = np.linalg.qr(np.array(cols).T)
    return q.astype(complex)


def _projection_decay(decay: Check) -> Check:
    """basis/decay, read at finite N as ||E - F_n|| -> 0: the norms also
    decrease strictly, or all vanish (a decoupled problem)."""
    if decay.status == NOT_APPLICABLE:
        return replace(decay, name="mhd/projection-decay")
    norms = decay.outputs["norms"]
    decreasing = (max(norms) <= ZERO_DECAY
                  or all(b < a for a, b in zip(norms, norms[1:])))
    return aggregate("mhd/projection-decay", decay.anchor, decay.outputs,
                     [decay], [(decreasing, True, "==", None)],
                     inputs=decay.inputs)


def run_report(disc: MhdDiscretization, n_max: int,
               squared_bands: bool = True) -> list[Check]:
    """Full pipeline on a discretization: constants, landmarks, variational
    bounds, angular operator at (c, inf), Riesz check, projection decay on
    up to n_max rungs, Bari terms.

    Returns one Check per stage.  The relative bound, landmark, distance and
    variational checks use the relative slack 10/N, since the closed-form
    constants belong to the continuum operator; the last four stages are
    ``checks.angular_at_c_tilde`` and ``checks.basis`` with the closed-form
    (a, b).  ``specblock mhd`` and the selftest both run it.
    """
    checks: list[Check] = []
    block = disc.block
    slack = 10.0 / disc.N

    a_const, b_const, c_const = constants(disc.profile)
    rb = RelativeBound(a_const, b_const)
    margin = relative_bound_margin(block, rb)
    b_disc = minimal_b_for_a(block, a_const).b
    gram_top = float(hermitian_eigvals(block.coupling_gram())[-1])
    checks.append(judge(
        "mhd/relative-bound", "||B* x||^2 <= a <A x, x> + b ||x||^2",
        {"a": a_const, "b": b_const, "N": disc.N},
        {"lambda_min(aA + bI - BB*)": margin, "discrete_minimal_b": b_disc},
        relative_slack=(slack, [(margin, 0.0, ">=", max(1.0, gram_top))])))

    bands = essential_bands(disc.profile, squared=squared_bands)
    checks.append(judge(
        "mhd/essential-bands",
        "ranges of va^2 kpar(^2) and va^2 vs^2 kperp(^2)/(va^2 + vs^2)",
        {"squared_variant": squared_bands},
        {"band1": [bands[0].lo, bands[0].hi],
         "band2": [bands[1].lo, bands[1].hi]}))

    marks = block.landmarks
    checks.append(judge(
        "mhd/landmarks",
        "c = max sigma(C); (c, c~] in the resolvent set; "
        "kappa = dim L_(-inf,0)(S(c~))",
        {"c_closed_form": c_const},
        {"c_discrete": marks.c, "c_tilde": marks.c_tilde, "kappa": marks.kappa,
         "eigenvalues_above_c": int(marks.lambda_above_c.size)},
        relative_slack=(slack, [(abs(marks.c - c_const), 0.0, "<=",
                                 max(1.0, abs(c_const)))])))

    spec_a = block.eig_a.eigenvalues
    spec_c = block.eig_c.eigenvalues
    excess, bounds = [], []
    for lam in marks.lambda_above_c:
        try:
            rep = dist_bound(float(lam), spec_a, spec_c, rb)
        except HypothesisError:
            continue
        excess.append(rep.dist_to_A - rep.bound)
        bounds.append(max(1.0, rep.bound))
    checks.append(judge(
        "mhd/dist-bound", DIST_ANCHOR,
        {"a": a_const, "b": b_const, "checked": len(excess)},
        {"worst_excess": max(excess, default=-float("inf"))},
        applies=bool(excess),
        relative_slack=(slack, [(excess, 0.0, "<=", bounds)])))

    intervals = variational_bounds(spec_a, marks.c, rb, marks.kappa, marks.rungs)
    lows = np.array([iv.lo for iv in intervals])
    highs = np.array([iv.hi for iv in intervals])
    ladder = marks.lambda_above_c[:len(intervals)]
    checks.append(judge(
        "mhd/variational-bounds", VAR_ANCHOR, {"n_checked": marks.rungs},
        {"first_upper": intervals[0].hi if intervals else None},
        applies=marks.rungs > 0,
        relative_slack=(slack, [
            (ladder, lows, ">=", np.maximum(1.0, np.abs(lows))),
            (ladder, highs, "<=", np.maximum(1.0, np.abs(highs)))])))

    resolved = max(2, disc.N // 4)
    gaps = np.diff(spec_a)[:resolved]
    checks.append(judge(
        "mhd/gap-growth", "dist[mu_n, sigma(A) \\ {mu_n}] -> inf",
        {"resolved_range": int(gaps.size)},
        {"first_gap": float(gaps[0]) if gaps.size else None,
         "last_gap": float(gaps[-1]) if gaps.size else None},
        [(np.diff(gaps), 0.0, ">", None)]))

    renamed = {"angular/c-tilde": "mhd/angular-operator",
               "basis/riesz": "mhd/riesz-bounds", "basis/bari": "mhd/bari-sums"}
    for check in [angular_at_c_tilde(block, rb), *basis(block, rb, n_max)]:
        checks.append(_projection_decay(check) if check.name == "basis/decay"
                      else replace(check, name=renamed[check.name]))
    return checks
