"""The checks of the block commands, one builder per family.

Each builder takes a block and what the command resolved for it (the relative
bound (a, b) in force, a cut point, a rung count, a trial space) and returns
the checks of one family.  ``cli.cmd_enclose`` concatenates the ENCLOSE
builders in that order; ``cli.cmd_angular``, ``cmd_basis`` and ``cmd_soq``
return ``angular``, ``basis`` (``riesz`` and ``decay_and_bari``) and ``soq``.
The window, resolvent-interval and dimension families read the block's one
ladder at the relative bound (``BlockOperatorMatrix.ladder``), as the soq
disc does, and solve no window of their own.
The selftest aggregates the same checks over its random instances, and
``mhd.run_report`` reports ``angular_at_c_tilde`` (the angular checks at c~
as one) and ``basis`` under MHD names, its other checks on the anchors here.
"""

from __future__ import annotations

import numpy as np

from .basis import DecayRecord, DecayReport, projection_decay, riesz_check
from .blocks import BlockOperatorMatrix, RelativeBound
from .enclosures import (
    dist_bound,
    soq_enclosure,
    soq_gaps,
    soq_misses,
    subspace_dim_check,
    variational_bounds,
    window_owners,
)
from .errors import ArgumentError, HypothesisError, UnderflowError
from .report import FAIL, PASS, Check, holds, judge, not_applicable
from .subspaces import GRAPH, delta_condition, graph_test, spectral_subspace
from .tolerance import EIGVEC_RESIDUAL_REL, GRAPH_TOL, SLACK, SOQ_MARGIN_REL

DIST_ANCHOR = ("dist[lambda, sigma(A)] <= |a lambda + b| / "
               "(dist[lambda, sigma(C)] - a)")
INCL_ANCHOR = ("alpha± = (mu + c + 2a)/2 ± "
               "sqrt(((mu - c)/2)^2 + a(a + c) + b)")
EXCL_ANCHOR = "beta± = (mu + c)/2 ± sqrt(((mu - c)/2)^2 - (a mu + b))"
RES_ANCHOR = "mu1 <= alpha1+ < beta2+ <= mu2 and (alpha1+, beta2+) in rho(M)"
VAR_ANCHOR = ("mu_{kappa+n} <= lambda_n <= (mu_{kappa+n} + c)/2 + "
              "sqrt(((mu_{kappa+n} - c)/2)^2 + a mu_{kappa+n} + b)")
DIM_ANCHOR = "dim L_[beta2+, alpha3+](M) = dim L_[beta2+, alpha3+](A)"
SUBSPACE_ANCHOR = "L_(alpha, inf)(M) = {(x, K x)}"
DELTA_ANCHOR = ("delta = a/(alpha - c) + |a alpha + b| / "
                "(dist[alpha, sigma(A)] (alpha - c)) < 1/2")
GRAPH_ANCHOR = "L_(alpha, inf)(M) is the graph of an operator"
OP_ANCHOR = ("K = V U+; codim(Dom(K)) = n1 - dim; ||K|| from the restriction; "
             "K A - C K + K B K - B* = 0 on Dom(K)")
CODIM_ANCHOR = "codim(Dom(K_c)) = kappa"
LANDMARKS_ANCHOR = "c = max sigma(C); kappa at c~"
RIESZ_ANCHOR = ("(1 + ||K_c||^2)^{-1} sum |beta_n|^2 <= "
                "||sum beta_n x_n||^2 <= sum |beta_n|^2")
DECAY_ANCHOR = "||E({mu_{kappa+n}}) - F_n(Delta_n)|| -> 0"
BARI_ANCHOR = ("sum ||y_{kappa+n} - x_n||^2 < inf with "
               "sum 1/(mu_{n+1} - mu_n)^2 < inf")
SOQ_ANCHOR = ("sigma(M) ∩ [Re z - |Im z|^2/(b4p - Re z), "
              "Re z + |Im z|^2/(Re z - a1p)] nonempty for admitted z")


NO_RUNG = "no rung claimed"


def _claimed(decay: DecayReport) -> list[DecayRecord]:
    """The rungs the decay bound covers: delta_n < 1 and exactly one point of
    sigma(A) inside the circle (DecayRecord); the others claim nothing."""
    return [r for r in decay.records if r.delta < 1.0 and r.a_points_inside == 1]


def decay_bounds(decay: DecayReport) -> list[tuple]:
    """||E - F_n|| <= bound_n on the claimed rungs, as a comparison (judged
    with SLACK of slack)."""
    claimed = _claimed(decay)
    return [([r.proj_diff_norm for r in claimed], [r.bound for r in claimed],
             "<=", 1.0)]


def bari_bounds(decay: DecayReport) -> list[tuple]:
    """||y_{kappa+n} - x_n||^2 <= (2 bound_n)^2 on the claimed rungs, as a
    comparison (judged with SLACK of slack): for the unit x_n and its aligned
    y = Ex/||Ex||, ||y - x|| <= 2||(I - E)x|| <= 2||E - F_n|| <= 2 bound_n."""
    claimed = _claimed(decay)
    return [([r.term for r in claimed],
             np.square([2.0 * r.bound for r in claimed]), "<=", 1.0)]


def _above_c_plus_a(block: BlockOperatorMatrix, rb: RelativeBound) -> list[float]:
    """The eigenvalues of M above c + a: the distance bound and windows apply."""
    spec_m = block.eig_m.eigenvalues
    return [float(lam) for lam in spec_m[spec_m > block.c + rb.a + SLACK]]


def distance_bounds(block: BlockOperatorMatrix, rb: RelativeBound) -> list[Check]:
    """One distance-bound check per eigenvalue of M above c + a."""
    lams = _above_c_plus_a(block, rb)
    rep = dist_bound(lams, block.eig_a.eigenvalues, block.eig_c.eigenvalues, rb)
    checks = []
    for i, lam in enumerate(lams):
        name = f"dist-bound/lambda={lam:.6g}"
        try:
            dist_to_a, bound = rep.at(i)
        except HypothesisError as exc:
            checks.append(not_applicable(name, DIST_ANCHOR, str(exc)))
            continue
        checks.append(judge(
            name, DIST_ANCHOR, {"lambda": lam, "a": rb.a, "b": rb.b},
            {"dist_to_A": dist_to_a, "bound": bound},
            slack=(SLACK, [(dist_to_a, bound, "<=", 1.0)])))
    return checks


def windows(block: BlockOperatorMatrix, rb: RelativeBound) -> list[Check]:
    """The inclusion and the exclusion window of each point of the block's
    ladder at rb, interleaved, with the eigenvalues of M above c + a that
    ``enclosures.window_owners`` gives each one."""
    ladder = block.ladder(rb)
    spec_a, labels = block.eig_a.eigenvalues, block.a_clusters
    tops = spec_a[np.diff(labels, append=labels[-1:] + 1) > 0]
    lams = np.array(_above_c_plus_a(block, rb))
    incl_lams, excl_lams = ([lams[owner == k].tolist()
                             for k in range(len(ladder.points))]
                            for owner in window_owners(block.a_points, tops, lams))

    checks = []
    for mu, incl, excl, win, exw in zip(ladder.points, incl_lams, excl_lams,
                                        ladder.inclusion, ladder.exclusion):
        inputs = {"mu": mu, "c": block.c, "a": rb.a, "b": rb.b}
        name = f"inclusion-window/mu={mu:.6g}"
        if isinstance(win, str):
            checks.append(not_applicable(name, INCL_ANCHOR, win))
        else:
            checks.append(judge(
                name, INCL_ANCHOR, inputs,
                {"lo": win.lo, "hi": win.hi, "applicable": incl},
                applies=bool(incl),
                slack=(SLACK, [(incl, (win.lo, win.hi), "within", 1.0)])))

        name = f"exclusion-window/mu={mu:.6g}"
        if isinstance(exw, str):
            checks.append(not_applicable(name, EXCL_ANCHOR, exw))
            continue
        outside = (excl, (exw.lo, exw.hi), "outside", 1.0)
        intruding = [lam for lam, ok in zip(excl, holds(outside, SLACK))
                     if not ok]
        checks.append(judge(
            name, EXCL_ANCHOR, inputs,
            {"lo": exw.lo, "hi": exw.hi,
             "applicable": excl, "intruding": intruding},
            applies=bool(excl), slack=(SLACK, [outside])))
    return checks


def resolvent_intervals(block: BlockOperatorMatrix,
                        rb: RelativeBound) -> list[Check]:
    """One resolvent-interval check per consecutive pair of the block's
    ladder at rb."""
    spec_m = block.eig_m.eigenvalues
    ladder = block.ladder(rb)
    checks = []
    for mu1, mu2, win in zip(ladder.points, ladder.points[1:],
                             ladder.intervals):
        name = f"resolvent-interval/mu1={mu1:.6g}"
        if isinstance(win, str):
            checks.append(not_applicable(name, RES_ANCHOR, win))
            continue
        outside = (spec_m, (win.lo, win.hi), "outside", 1.0)
        inside = spec_m[~holds(outside, SLACK)]
        checks.append(judge(
            name, RES_ANCHOR, {"mu1": mu1, "mu2": mu2},
            {"lo": win.lo, "hi": win.hi, "eigenvalues_inside": inside.tolist()},
            slack=(SLACK, [outside])))
    return checks


def variational_ladder(block: BlockOperatorMatrix,
                       rb: RelativeBound) -> list[Check]:
    """The two-sided variational bounds on every rung of the ladder above c."""
    name = "variational-bounds/ladder"
    try:
        marks = block.landmarks
        intervals = variational_bounds(block.eig_a.eigenvalues, marks.c, rb,
                                       marks.kappa, marks.rungs)
    except HypothesisError as exc:
        return [not_applicable(name, VAR_ANCHOR, str(exc))]
    ladder = marks.lambda_above_c[:len(intervals)]
    within = (ladder, ([iv.lo for iv in intervals], [iv.hi for iv in intervals]),
              "within", 1.0)
    return [judge(
        name, VAR_ANCHOR, {"kappa": marks.kappa, "n": marks.rungs},
        {"escapes": ladder[~holds(within, SLACK)].tolist(),
         "intervals": [[iv.lo, iv.hi] for iv in intervals]},
        slack=(SLACK, [within]))]


def dim_bracket(block: BlockOperatorMatrix, rb: RelativeBound) -> list[Check]:
    """The dimension count from the end of the first certified resolvent
    interval of the block's ladder at rb to the start of the last."""
    name = "dim-check/bracket"
    found = block.ladder(rb).certified
    if len(found) < 2:
        return [not_applicable(name, DIM_ANCHOR,
                               "fewer than two valid pair windows")]
    b2p, a3p = found[0][1].hi, found[-1][1].lo
    if not b2p < a3p:
        return [not_applicable(name, DIM_ANCHOR,
                               "bracket endpoints out of order")]
    count_m, count_a = subspace_dim_check(block, b2p, a3p)
    return [judge(name, DIM_ANCHOR, {"b2p": b2p, "a3p": a3p},
                  {"count_M": count_m, "count_A": count_a},
                  [(count_m, count_a, "==", None)])]


# The families in the order ``specblock enclose`` reports them.
ENCLOSE = (distance_bounds, windows, resolvent_intervals, variational_ladder,
           dim_bracket)


def angular(block: BlockOperatorMatrix, rb: RelativeBound,
            alpha: float | None) -> list[Check]:
    """Delta condition, graph test, angular operator and codim = kappa at the
    cut point alpha; None cuts at c~.  Above all of sigma(M) the subspace is
    {0}, and the graph and operator checks do not apply to it."""
    try:
        marks = block.landmarks
    except HypothesisError:
        marks = None
    if alpha is None:
        if marks is None:
            return [not_applicable(
                "angular/subspace", SUBSPACE_ANCHOR,
                "no alpha given and no spectrum above c to pick one from")]
        alpha = marks.c_tilde
    alpha = float(alpha)

    checks = []
    sufficient = False  # delta < 1/2: the subspace must be a graph
    try:
        delta = delta_condition(alpha, block.c, block.eig_a.eigenvalues, rb)
        sufficient = delta < 0.5
        checks.append(judge(
            "angular/delta", DELTA_ANCHOR,
            {"alpha": alpha, "c": block.c, "a": rb.a, "b": rb.b},
            {"delta": delta}, [(delta, 0.5, "<", 1.0)], applies=sufficient))
    except HypothesisError as exc:
        checks.append(not_applicable("angular/delta", DELTA_ANCHOR, str(exc)))

    at_c_tilde = marks is not None and alpha == marks.c_tilde
    try:
        sub = block.graph_subspace if at_c_tilde else spectral_subspace(block, alpha)
    except (HypothesisError, ArgumentError) as exc:
        checks.append(not_applicable("angular/graph", GRAPH_ANCHOR, str(exc)))
        return checks
    no_codim = "alpha does not isolate the full half line above c"
    if sub.dim == 0:  # {0} is the graph of K = 0 on {0}: nothing to prove
        empty = f"no eigenvalue of M lies above alpha = {alpha:.12g}"
        return checks + [
            not_applicable("angular/graph", GRAPH_ANCHOR, empty),
            not_applicable("angular/operator", OP_ANCHOR, empty),
            not_applicable("angular/codim-kappa", CODIM_ANCHOR, no_codim)]
    graph = graph_test(sub)
    # graph_test's rule; at c~ and under delta < 1/2 only a graph passes
    checks.append(judge(
        "angular/graph", GRAPH_ANCHOR, {"alpha": alpha},
        {"verdict": graph.verdict, "sigma_min": graph.sigma_min,
         "dim": sub.dim},
        [(graph.sigma_min, GRAPH_TOL, ">", 1.0)],
        applies=graph.verdict == GRAPH or sufficient or at_c_tilde))
    try:
        k_op = sub.angular
    except HypothesisError as exc:
        checks.append(not_applicable("angular/operator", OP_ANCHOR, str(exc)))
        return checks
    residual = (block.riccati_residual if at_c_tilde
                else riesz_check(block, sub))
    checks.append(judge(
        "angular/operator", OP_ANCHOR, {"alpha": alpha},
        {"norm": k_op.norm, "codim": k_op.codim, "riccati_residual": residual},
        eigvec_residual_rel=(EIGVEC_RESIDUAL_REL,
                             [(residual, 0.0, "<=", 1.0)])))
    if marks is not None and sub.dim == int(marks.lambda_above_c.size):
        checks.append(judge(
            "angular/codim-kappa", CODIM_ANCHOR, {"alpha": alpha},
            {"codim": k_op.codim, "kappa": marks.kappa},
            [(k_op.codim, marks.kappa, "==", None)]))
    else:
        checks.append(not_applicable("angular/codim-kappa", CODIM_ANCHOR,
                                     no_codim))
    return checks


def angular_at_c_tilde(block: BlockOperatorMatrix, rb: RelativeBound) -> Check:
    """The angular checks at c~ as one: it fails when one of them failed,
    passes when angular/codim-kappa passed, and does not apply otherwise."""
    found = angular(block, rb, None)
    failed = sum(check.status == FAIL for check in found)
    last = found[-1]  # angular/codim-kappa, or the check that stopped them
    if not failed and last.status != PASS:
        return not_applicable("angular/c-tilde", CODIM_ANCHOR,
                              last.outputs["reason"])
    marks = block.landmarks
    out = {key: value for check in found for key, value in check.outputs.items()}
    return judge("angular/c-tilde", CODIM_ANCHOR, {"alpha": marks.c_tilde}, {
        "graph_verdict": out.get("verdict"), "sigma_min": out.get("sigma_min"),
        "k_norm": out.get("norm"), "riccati_residual": out.get("riccati_residual"),
        "codim": out.get("codim"), "kappa": marks.kappa},
        [(failed, 0, "==", None)])


def riesz(block: BlockOperatorMatrix) -> list[Check]:
    """The Riesz basis of the first components of the vectors above c~: it
    holds when K_c solves its Riccati equation (block.riccati_residual).
    Its frame bounds are outputs, s_min(U)^2 = 1/(1 + ||K_c||^2) and
    s_max(U)^2 <= 1 for the orthonormal [U; V]."""
    try:
        sub = block.graph_subspace
        k_op = sub.angular
        residual = block.riccati_residual
    except (HypothesisError, ArgumentError) as exc:
        return [not_applicable("basis/riesz", RIESZ_ANCHOR, str(exc))]
    s = sub.first_svd[1]
    return [judge(
        "basis/riesz", RIESZ_ANCHOR,
        {"dim": sub.dim, "kappa": block.landmarks.kappa},
        {"gram_min": float(s[-1]) ** 2, "gram_max": float(s[0]) ** 2,
         "riesz_lower": 1.0 / (1.0 + k_op.norm ** 2), "k_norm": k_op.norm,
         "riccati_residual": residual},
        eigvec_residual_rel=(EIGVEC_RESIDUAL_REL,
                             [(residual, 0.0, "<=", 1.0)]))]


def decay_and_bari(block: BlockOperatorMatrix, rb: RelativeBound,
                   n_max: int) -> list[Check]:
    """The decay bound and the Bari terms on the claimed rungs among the first
    n_max above c (fewer when the ladder is shorter), both read from one
    projection_decay report; both are not applicable when no rung is
    claimed, and the Bari terms also when a rung's x_n cannot be aligned."""
    try:
        n_avail = min(n_max, block.landmarks.rungs)
    except HypothesisError as exc:
        return [not_applicable("basis/decay", DECAY_ANCHOR, str(exc))]
    if n_avail < 1:
        return [not_applicable("basis/decay", DECAY_ANCHOR,
                               "no eigenvalues above c to track")]
    try:
        decay = projection_decay(block, n_avail, rb=rb)
    except UnderflowError as exc:  # neither statement can be evaluated
        return [not_applicable("basis/decay", DECAY_ANCHOR, str(exc)),
                not_applicable("basis/bari", BARI_ANCHOR, str(exc))]
    except HypothesisError as exc:
        return [not_applicable("basis/decay", DECAY_ANCHOR, str(exc)),
                not_applicable("basis/bari", BARI_ANCHOR, NO_RUNG)]
    claimed = _claimed(decay)
    if not claimed:
        return [not_applicable("basis/decay", DECAY_ANCHOR, NO_RUNG),
                not_applicable("basis/bari", BARI_ANCHOR, NO_RUNG)]
    # for a general block monotone decay is no theorem: the bound decides
    checks = [judge(
        "basis/decay", DECAY_ANCHOR, {"n_max": n_avail},
        {"norms": decay.norms, "deltas": [r.delta for r in decay.records],
         "bounds": [r.bound for r in decay.records],
         "claimed": [r.n for r in claimed], "m_constant": decay.m_constant},
        slack=(SLACK, decay_bounds(decay)))]
    if decay.unaligned is not None:
        return checks + [not_applicable("basis/bari", BARI_ANCHOR,
                                        decay.unaligned)]
    terms = [r.term for r in decay.records]
    converged = (len(terms) >= 4
                 and all(t <= 1e-3 * terms[0] + 1e-30 for t in terms[-3:]))
    return checks + [judge(
        "basis/bari", BARI_ANCHOR, {"n_max": n_avail},
        {"terms": terms, "partial_sum": float(np.cumsum(terms)[-1]),
         "gap_sum": decay.gap_sum, "converged": converged},
        slack=(SLACK, bari_bounds(decay)))]


def basis(block: BlockOperatorMatrix, rb: RelativeBound,
          n_max: int) -> list[Check]:
    """``riesz`` and ``decay_and_bari``; one check without landmarks."""
    try:
        block.landmarks
    except HypothesisError as exc:
        return [not_applicable("basis/landmarks", LANDMARKS_ANCHOR, str(exc))]
    return riesz(block) + decay_and_bari(block, rb, n_max)


def soq(block: BlockOperatorMatrix, q: np.ndarray, bracket) -> list[Check]:
    """Second-order-spectrum enclosures on the trial space spanned by the
    orthonormal columns of q, inside the disc of bracket = (a1p, b4m, b4p)
    from ``enclosures.soq_bracket`` of a ladder; None has no disc."""
    if bracket is None:
        return [not_applicable("soq/enclosures", SOQ_ANCHOR,
                               "fewer than two valid pair windows")]
    a1p, b4m, b4p = bracket
    enclosures = soq_enclosure(block, q, a1p, b4m, b4p)
    spec_m = block.eig_m.eigenvalues
    admitted = sum(e.admitted for e in enclosures)
    return [judge(
        "soq/enclosures", SOQ_ANCHOR,
        {"subspace_dim": q.shape[1], "a1p": a1p, "b4m": b4m, "b4p": b4p},
        {"points": [{"re": e.z.real, "im": e.z.imag, "admitted": e.admitted,
                     "interval": None if e.interval is None
                     else [e.interval.lo, e.interval.hi]}
                    for e in enclosures],
         "admitted_count": admitted,
         "misses": [{"re": e.z.real, "im": e.z.imag}
                    for e in soq_misses(enclosures, spec_m)]},
        applies=admitted > 0,
        soq_margin_rel=(SOQ_MARGIN_REL, [soq_gaps(enclosures, spec_m)]))]
