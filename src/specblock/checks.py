"""The enclosure checks of ``specblock enclose``, one builder per family.

Each builder takes a block and the relative bound (a, b) in force and returns
the checks of one family.  ``cli.cmd_enclose`` concatenates them in ENCLOSE
order; the selftest aggregates the same checks over its random instances.
"""

from __future__ import annotations

import numpy as np

from .blocks import BlockOperatorMatrix, RelativeBound, landmarks
from .enclosures import (
    dist_bound,
    eigenvalue_window,
    exclusion_reference,
    exclusion_window,
    inclusion_reference,
    resolvent_interval,
    resolvent_pairs,
    subspace_dim_check,
    variational_bounds,
)
from .errors import HypothesisError, LandmarkError, SingularShiftError
from .report import NOT_APPLICABLE, Check, not_applicable, verdict
from .tolerance import SLACK

DIST_ANCHOR = ("dist[lambda, sigma(A)] <= |a lambda + b| / "
               "(dist[lambda, sigma(C)] - a)")
INCL_ANCHOR = ("alpha± = (mu + c + 2a)/2 ± "
               "sqrt(((mu - c)/2)^2 + a(a + c) + b)")
EXCL_ANCHOR = "beta± = (mu + c)/2 ± sqrt(((mu - c)/2)^2 - (a mu + b))"
RES_ANCHOR = "mu1 <= alpha1+ < beta2+ <= mu2 and (alpha1+, beta2+) in rho(M)"
VAR_ANCHOR = ("mu_{kappa+n} <= lambda_n <= (mu_{kappa+n} + c)/2 + "
              "sqrt(((mu_{kappa+n} - c)/2)^2 + a mu_{kappa+n} + b)")
DIM_ANCHOR = "dim L_[beta2+, alpha3+](M) = dim L_[beta2+, alpha3+](A)"


def _above_c_plus_a(block: BlockOperatorMatrix, rb: RelativeBound) -> list[float]:
    """The eigenvalues of M above c + a: the distance bound and windows apply."""
    spec_m = block.eig_m.eigenvalues
    c = float(block.eig_c.eigenvalues[-1])
    return [float(lam) for lam in spec_m[spec_m > c + rb.a + SLACK]]


def _cluster_points(block: BlockOperatorMatrix) -> list[float]:
    """sigma(A) up to round-off: each cluster is represented by its lowest point."""
    _, first = np.unique(block.a_clusters, return_index=True)
    return [float(block.eig_a.eigenvalues[i]) for i in first]


def distance_bounds(block: BlockOperatorMatrix, rb: RelativeBound) -> list[Check]:
    """One distance-bound check per eigenvalue of M above c + a."""
    spec_a = block.eig_a.eigenvalues
    spec_c = block.eig_c.eigenvalues
    checks = []
    for lam in _above_c_plus_a(block, rb):
        name = f"dist-bound/lambda={lam:.6g}"
        try:
            rep = dist_bound(lam, spec_a, spec_c, rb)
        except HypothesisError as exc:
            checks.append(not_applicable(name, DIST_ANCHOR, str(exc)))
            continue
        checks.append(Check(
            name=name, anchor=DIST_ANCHOR,
            inputs={"lambda": lam, "a": rb.a, "b": rb.b},
            outputs={"dist_to_A": rep.dist_to_A, "bound": rep.bound},
            status=verdict(rep.satisfied),
            tolerances={"slack": SLACK}))
    return checks


def windows(block: BlockOperatorMatrix, rb: RelativeBound) -> list[Check]:
    """The inclusion and the exclusion window of each cluster of sigma(A),
    interleaved, with the eigenvalues of M above c + a each one applies to."""
    spec_a = block.eig_a.eigenvalues
    c = float(block.eig_c.eigenvalues[-1])
    labels = block.a_clusters
    mus = _cluster_points(block)
    incl_lams = [[] for _ in mus]
    excl_lams = [[] for _ in mus]
    for lam in _above_c_plus_a(block, rb):
        mu = inclusion_reference(spec_a, lam)
        if mu is not None:
            incl_lams[labels[np.searchsorted(spec_a, mu)]].append(lam)
        mu = exclusion_reference(spec_a, lam)
        if mu is not None:
            excl_lams[labels[np.searchsorted(spec_a, mu)]].append(lam)

    checks = []
    for mu, incl, excl in zip(mus, incl_lams, excl_lams):
        win = eigenvalue_window(mu, c, rb)
        status = verdict(all(win.lo - SLACK <= lam <= win.hi + SLACK
                             for lam in incl)) if incl else NOT_APPLICABLE
        checks.append(Check(
            name=f"inclusion-window/mu={mu:.6g}", anchor=INCL_ANCHOR,
            inputs={"mu": mu, "c": c, "a": rb.a, "b": rb.b},
            outputs={"lo": win.lo, "hi": win.hi, "applicable": incl},
            status=status, tolerances={"margin": SLACK}))

        exw = exclusion_window(mu, c, rb)
        if not exw.hypothesis_ok:
            checks.append(not_applicable(f"exclusion-window/mu={mu:.6g}",
                                         EXCL_ANCHOR, exw.reason))
            continue
        intruding = [lam for lam in excl
                     if exw.lo + SLACK < lam < exw.hi - SLACK]
        checks.append(Check(
            name=f"exclusion-window/mu={mu:.6g}", anchor=EXCL_ANCHOR,
            inputs={"mu": mu, "c": c, "a": rb.a, "b": rb.b},
            outputs={"lo": exw.lo, "hi": exw.hi,
                     "applicable": excl, "intruding": intruding},
            status=verdict(not intruding) if excl else NOT_APPLICABLE,
            tolerances={"margin": SLACK}))
    return checks


def resolvent_intervals(block: BlockOperatorMatrix,
                        rb: RelativeBound) -> list[Check]:
    """One resolvent-interval check per consecutive pair of cluster points."""
    spec_m = block.eig_m.eigenvalues
    c = float(block.eig_c.eigenvalues[-1])
    mus = _cluster_points(block)
    checks = []
    for mu1, mu2 in zip(mus, mus[1:]):
        win = resolvent_interval(mu1, mu2, c, rb)
        name = f"resolvent-interval/mu1={mu1:.6g}"
        if not win.hypothesis_ok:
            checks.append(not_applicable(name, RES_ANCHOR, win.reason))
            continue
        inside = [float(lam) for lam in spec_m
                  if win.lo + SLACK < lam < win.hi - SLACK]
        checks.append(Check(
            name=name, anchor=RES_ANCHOR,
            inputs={"mu1": mu1, "mu2": mu2},
            outputs={"lo": win.lo, "hi": win.hi, "eigenvalues_inside": inside},
            status=verdict(not inside),
            tolerances={"margin": SLACK}))
    return checks


def variational_ladder(block: BlockOperatorMatrix,
                       rb: RelativeBound) -> list[Check]:
    """The two-sided variational bounds on every rung of the ladder above c."""
    name = "variational-bounds/ladder"
    try:
        marks = landmarks(block)
    except (LandmarkError, SingularShiftError) as exc:
        return [not_applicable(name, VAR_ANCHOR, str(exc))]
    intervals = variational_bounds(block.eig_a.eigenvalues, marks.c, rb,
                                   marks.kappa, marks.rungs)
    escapes = [float(lam) for lam, iv in zip(marks.lambda_above_c, intervals)
               if not iv.lo - SLACK <= lam <= iv.hi + SLACK]
    return [Check(
        name=name, anchor=VAR_ANCHOR,
        inputs={"kappa": marks.kappa, "n": marks.rungs},
        outputs={"escapes": escapes,
                 "intervals": [[iv.lo, iv.hi] for iv in intervals]},
        status=verdict(not escapes),
        tolerances={"margin": SLACK})]


def dim_bracket(block: BlockOperatorMatrix, rb: RelativeBound) -> list[Check]:
    """The dimension count between the first and last valid resolvent pair."""
    name = "dim-check/bracket"
    c = float(block.eig_c.eigenvalues[-1])
    pairs = resolvent_pairs(_cluster_points(block), c, rb)
    if len(pairs) < 2:
        return [not_applicable(name, DIM_ANCHOR,
                               "fewer than two valid pair windows")]
    b2p = exclusion_window(pairs[0][1], c, rb).hi
    a3p = eigenvalue_window(pairs[-1][0], c, rb).hi
    if not b2p < a3p:
        return [not_applicable(name, DIM_ANCHOR,
                               "bracket endpoints out of order")]
    count_m, count_a = subspace_dim_check(block, b2p, a3p)
    return [Check(
        name=name, anchor=DIM_ANCHOR,
        inputs={"b2p": b2p, "a3p": a3p},
        outputs={"count_M": count_m, "count_A": count_a},
        status=verdict(count_m == count_a),
        tolerances={})]


# The families in the order ``specblock enclose`` reports them.
ENCLOSE = (distance_bounds, windows, resolvent_intervals, variational_ladder,
           dim_bracket)
