"""Built-in property suite.

Runs every library invariant on fixtures and seeded random instances and
returns one Check per property family.  Deterministic for a fixed seed: the
generator is PCG64, no timing or environment data enters the output, and all
iteration orders are fixed.

The families whose draws do not depend on what they compute (schur,
resolvent, relative-bound, dist-bound, window, variational, dim-check and
soq) draw a chunk of instances before they solve any, and solve the spectra
each family reads as stacks (``blocks.fill_spectra``).  The stream and the
report are those of solving each instance as it is drawn.  The subspace and
basis families draw after skipping instances on computed values (no
spectrum above c, no angular operator, an unmet hypothesis), so they take
one instance at a time.

Those two families, the suffix, run in a child process on Linux: ``run``
forks it first, and the child makes the draws of every earlier family
(``_fast_forward``, which solves nothing) before it runs the suffix from
the generator state a sequential run would reach.  The parent runs the
earlier families, the prefix, and the MHD suite meanwhile, then reads the
child's checks from a pipe.  Elsewhere the suffix runs in-process after
the prefix.  The report is the same either way.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from . import __version__, forked
from .basis import aligned_term
from .blocks import (
    BlockOperatorMatrix,
    RelativeBound,
    SpectralLandmarks,
    assemble,
    best_relative_bound,
    fill_spectra,
    minimal_b_for_a,
    relative_bound_margin,
    resolvent_block,
    schur_complement,
)
from .checks import (
    DIST_ANCHOR,
    angular_at_c_tilde,
    decay_and_bari,
    dim_bracket,
    resolvent_intervals,
    riesz,
    soq,
    variational_ladder,
    windows,
)
from .enclosures import (
    Ladder,
    dist_bound,
    eigenvalue_window,
    exclusion_window,
    soq_bracket,
)
from .errors import ArgumentError, HypothesisError
from .linalg import (
    Interval,
    general_eig,
    hermitian_eig,
    hermitian_part_eig,
    hermitian_part_eigvals,
    operator_norm,
    orthonormality_defect,
    pseudo_inverse,
    spectral_distance,
    spectral_projector,
    stack_chunks,
)
from .mhd import (
    MhdDiscretization,
    constant_profile,
    constants,
    discretize,
    run_report,
    trial_space,
)
from .report import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    Check,
    Report,
    aggregate,
    judge,
)
from .subspaces import (
    GRAPH,
    angular_operator,
    delta_condition,
    graph_test,
    shifted_matrix,
    spectral_subspace,
)
from .tolerance import SLACK

__all__ = ["run", "random_block", "separated_block", "ladder_block"]

# Cubic fixture [[2, 0, 1], [0, 10, 1], [1, 1, -1]]: roots of
# x^3 - 11 x^2 + 6 x + 32, frozen from a bisection root isolation.
FIXTURE_EIGS = (-1.3834072093172125, 2.2922294454081307, 10.091177763909084)
FIXTURE_DELTA_AT_6 = 1.0 / 14.0


def _up_to(tol: float, *defects) -> tuple:
    """One kind of slack for ``judge``: each defect is at most tol."""
    return tol, [(defect, 0.0, "<=", 1.0) for defect in defects]


def fixture_block() -> BlockOperatorMatrix:
    return BlockOperatorMatrix(A=np.diag([2.0, 10.0]),
                               B=[[1.0], [1.0]], C=[[-1.0]])


def _random_hermitian(rng, n: int, scale: float = 10.0) -> np.ndarray:
    x = rng.uniform(-scale, scale, (n, n)) + 1j * rng.uniform(-scale, scale, (n, n))
    return 0.5 * (x + x.conj().T)


def random_block(rng, n_max: int = 8, scale: float = 10.0) -> BlockOperatorMatrix:
    """Generic Hermitian block instance with entries in [-scale, scale]."""
    n1 = int(rng.integers(1, n_max + 1))
    n2 = int(rng.integers(1, n_max + 1))
    b = rng.uniform(-scale, scale, (n1, n2)) + 1j * rng.uniform(-scale, scale, (n1, n2))
    return BlockOperatorMatrix(A=_random_hermitian(rng, n1, scale), B=b,
                               C=_random_hermitian(rng, n2, scale))


class _SeparatedDraw(NamedTuple):
    """The numbers separated_block draws: sigma(A), C before its shift
    below sigma(A), the gap of that shift, and the first coupling."""

    mus: np.ndarray
    c0: np.ndarray
    drop: float
    b_mat: np.ndarray


def _draw_separated(rng, _idx: int = 0) -> _SeparatedDraw:
    """separated_block's draws, in its order."""
    n1 = int(rng.integers(4, 9))
    n2 = int(rng.integers(1, 5))
    mus = 5.0 + np.cumsum(rng.uniform(6.0, 16.0, n1))
    c0 = _random_hermitian(rng, n2, 3.0)
    drop = rng.uniform(4.0, 8.0)
    b_mat = rng.uniform(-3, 3, (n1, n2)) + 1j * rng.uniform(-3, 3, (n1, n2))
    return _SeparatedDraw(mus, c0, drop, b_mat)


def _first_separated(draw: _SeparatedDraw) -> BlockOperatorMatrix:
    """The block of ``draw`` before any halving: sigma(C) topped ``drop``
    below min sigma(A)."""
    top = float(hermitian_part_eig(draw.c0).eigenvalues[-1])
    shift = top - (draw.mus[0] - draw.drop)
    return BlockOperatorMatrix(A=np.diag(draw.mus), B=draw.b_mat,
                               C=draw.c0 - shift * np.eye(draw.c0.shape[0]))


def _settle_separated(block: BlockOperatorMatrix, max_halvings: int = 40):
    """(block, rb, c) from ``block`` with its coupling halved until at least
    two consecutive pair windows validate; they always do in the decoupled
    limit.  The block returned keeps its ladder at rb."""
    for _ in range(max_halvings):
        rb = best_relative_bound(block)
        if len(block.ladder(rb).certified) >= 2:
            return block, rb, block.c
        block = replace(block, B=0.5 * block.B)
    raise RuntimeError("failed to build a separated instance")


def separated_block(rng, max_halvings: int = 40):
    """Instance with well-separated sigma(A), sigma(C) topped below it, and a
    coupling weak enough that at least two consecutive pair windows validate.

    Returns (block, rb, c).  The coupling is halved until the hypotheses
    hold; they always do in the decoupled limit.  It draws first
    (_draw_separated) and then builds (_first_separated, _settle_separated),
    which draws nothing.
    """
    return _settle_separated(_first_separated(_draw_separated(rng)),
                            max_halvings)


def ladder_block(rng) -> BlockOperatorMatrix:
    """Instance whose A mimics a compact-resolvent operator: mu_n = shift + s n²."""
    n1 = int(rng.integers(4, 9))
    n2 = int(rng.integers(1, 5))
    shift = rng.uniform(-5.0, 5.0)
    s = rng.uniform(0.5, 3.0)
    a_mat = np.diag(shift + s * np.arange(1, n1 + 1) ** 2)
    c0 = _random_hermitian(rng, n2, 2.0)
    top = float(hermitian_part_eig(c0).eigenvalues[-1])
    c_mat = c0 - (top - (shift - rng.uniform(1.0, 5.0))) * np.eye(n2)
    b_mat = rng.uniform(-2, 2, (n1, n2)) + 1j * rng.uniform(-2, 2, (n1, n2))
    return BlockOperatorMatrix(A=a_mat, B=b_mat, C=c_mat)


# The largest assembled orders the generators draw: random_block at its
# default n_max = 8, and separated_block with n1 <= 8 and n2 <= 4.
_RANDOM_ORDER = 16
_SEPARATED_ORDER = 12


def _stacked(rng, draw, count: int, order: int, prepare):
    """The instances ``prepare`` makes of ``draw(rng, idx)`` for idx = 0 ..
    count - 1, in order, one at a time.

    For a family whose draws do not depend on what it computes: it draws a
    chunk of instances before it solves any, and ``prepare`` builds the
    chunk's instances and solves their spectra as stacks.  Solving draws
    nothing, so the stream is the one of solving each instance as it is
    drawn.  A solved instance stores its blocks and the eigenvectors of A, C
    and M, less than four matrices of its assembled ``order``, so a chunk is
    one stack_chunks slice at twice that order: at most STACK_BYTES stay
    resident.  An instance handed out is let go, so it is freed when the
    family is done with it.
    """
    for part in stack_chunks(count, 2 * order):
        found = prepare([draw(rng, idx)
                         for idx in range(part.start, min(part.stop, count))])
        found.reverse()
        while found:
            yield found.pop()


def _filled(instances: list, names) -> list:
    """``instances``, blocks or tuples that start with one, after
    fill_spectra filled ``names`` of their blocks."""
    fill_spectra([inst if isinstance(inst, BlockOperatorMatrix) else inst[0]
                  for inst in instances], names)
    return instances


def _separated(draws) -> list[tuple]:
    """separated_block's (block, rb, c) for each of ``draws``: the eig_a,
    eig_c and coupling_top of the first blocks, which best_relative_bound
    reads, are solved as stacks."""
    firsts = _filled([_first_separated(draw) for draw in draws],
                     ("eig_a", "eig_c", "coupling_top"))
    return [_settle_separated(block) for block in firsts]


def _separated_filled(draws) -> list[tuple]:
    """_separated, with eig_m solved as stacks too."""
    return _filled(_separated(draws), ("eig_m",))


def _draw_block(rng, _idx: int) -> BlockOperatorMatrix:
    return random_block(rng)


def _draw_core(rng, _idx: int):
    """numeric_core_suite's draws for one instance, in its order: a Hermitian
    h, the index of the eigenvalue its projector starts at, a matrix to
    pseudo-invert and a general one."""
    n = int(rng.integers(2, 12))
    h = _random_hermitian(rng, n)
    start = int(rng.integers(0, n))
    cols = int(rng.integers(1, n + 1))
    x = rng.uniform(-5, 5, (n, cols)) + 1j * rng.uniform(-5, 5, (n, cols))
    g = rng.uniform(-5, 5, (n, n)) + 1j * rng.uniform(-5, 5, (n, n))
    return h, start, x, g


def numeric_core_suite(rng, count: int = 50) -> list[Check]:
    worst_orth = 0.0
    worst_trace = 0.0
    worst_weyl = 0.0
    worst_proj = 0.0
    worst_pinv = 0.0
    worst_agree = 0.0
    worst_residual = 0.0
    for idx in range(count):
        h, start, x, g = _draw_core(rng, idx)
        n = h.shape[0]
        dec = hermitian_eig(h)
        q = dec.vectors
        worst_orth = max(worst_orth, orthonormality_defect(q))
        trace_gap = abs(np.trace(h).real - np.sum(dec.eigenvalues))
        worst_trace = max(worst_trace, trace_gap / max(1.0, abs(np.trace(h).real)))
        for eps in (1.0, -1.0):
            shifted = hermitian_eig(h + eps * np.eye(n)).eigenvalues
            worst_weyl = max(worst_weyl,
                             float(np.max(np.abs(shifted - dec.eigenvalues - eps))))
        lo = float(dec.eigenvalues[start])
        proj = spectral_projector(dec, Interval(lo, float("inf")))
        worst_proj = max(
            worst_proj,
            operator_norm(proj @ proj - proj),
            operator_norm(proj - proj.conj().T))
        pinv = pseudo_inverse(x)
        scale = max(1.0, operator_norm(x))
        worst_pinv = max(
            worst_pinv,
            operator_norm(x @ pinv @ x - x) / scale,
            operator_norm(pinv @ x @ pinv - pinv) / max(1.0, operator_norm(pinv)),
            operator_norm(x @ pinv - (x @ pinv).conj().T) / scale,
            operator_norm(pinv @ x - (pinv @ x).conj().T) / scale)
        gen = general_eig(h)
        worst_agree = max(worst_agree,
                          float(np.max(np.abs(np.sort(gen.real) - dec.eigenvalues))))
        vals, vecs = general_eig(g, return_vectors=True)
        norm_g = operator_norm(g)
        for j in range(n):
            res = float(np.linalg.norm(g @ vecs[:, j] - vals[j] * vecs[:, j]))
            worst_residual = max(worst_residual, res / max(norm_g, 1.0))
    return [judge(
        "numeric-core/contracts",
        "Q*Q = I; trace(H) = sum of eigenvalues; eig(H + eI) = eig(H) + e; "
        "P² = P = P*; Moore-Penrose identities; residual ||Av - lv|| small",
        {}, {"instances": count, "orthonormality": worst_orth,
             "trace_rel": worst_trace, "weyl_shift": worst_weyl,
             "projector": worst_proj, "pseudo_inverse_rel": worst_pinv,
             "hermitian_vs_general": worst_agree,
             "general_residual_rel": worst_residual},
        orthonormality=_up_to(1e-10, worst_orth),
        trace_rel=_up_to(1e-9, worst_trace),
        weyl_shift=_up_to(1e-12, worst_weyl),
        projector=_up_to(1e-10, worst_proj),
        pseudo_inverse_rel=_up_to(1e-8, worst_pinv),
        hermitian_vs_general=_up_to(1e-8, worst_agree),
        general_residual_rel=_up_to(1e-8, worst_residual))]


def schur_suite(rng, count: int = 200) -> list[Check]:
    worst_forward = 0.0
    worst_converse = 0.0
    scanned = 0
    for block in _stacked(rng, _draw_block, count, _RANDOM_ORDER,
                          lambda blocks: _filled(blocks, ("eig_m", "eig_c"))):
        spec_m = block.eig_m.eigenvalues
        spec_c = block.eig_c.eigenvalues
        tol = block.assembled_tol
        # The eigenvalues of M (forward) lead the grid (converse); both
        # directions read one stacked solve at the shifts away from sigma(C).
        grid = np.concatenate([
            spec_m,
            np.linspace(float(spec_m[0]) - 1.0, float(spec_m[-1]) + 1.0, 7)])
        away = np.min(np.abs(spec_c - grid[:, None]), axis=1) > 10.0 * tol
        shifts = grid[away]
        smallest = np.min(np.abs(
            hermitian_part_eigvals(schur_complement(block, shifts))), axis=1)
        forward = smallest[:np.count_nonzero(away[:spec_m.size])]
        if forward.size:
            worst_forward = max(worst_forward, float(np.max(forward)))
        scanned += shifts.size
        for lam in shifts[smallest <= 1e-9]:
            worst_converse = max(worst_converse,
                                 spectral_distance(float(lam), spec_m))
    return [judge(
        "block-model/schur-spectrum",
        "sigma(S) ∩ rho(C) = sigma(M) ∩ rho(C)",
        {}, {"instances": count, "worst_zero_eig": worst_forward,
             "scan_points": scanned, "worst_converse_dist": worst_converse},
        forward=_up_to(1e-6, worst_forward),
        converse=_up_to(1e-6, worst_converse))]


def _draw_resolvent(rng, _idx: int) -> tuple:
    """A block, then how far above and below sigma(M) to shift."""
    return random_block(rng), rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)


def resolvent_suite(rng, count: int = 50) -> list[Check]:
    worst = 0.0
    checked = 0
    for block, above, below in _stacked(
            rng, _draw_resolvent, count, _RANDOM_ORDER,
            lambda draws: _filled(draws, ("eig_m", "eig_c"))):
        full = assemble(block)
        spec_m = block.eig_m.eigenvalues
        spec_c = block.eig_c.eigenvalues
        alpha = float(spec_m[-1] + above)
        for candidate in (alpha, float(spec_m[0] - below)):
            if (spectral_distance(candidate, spec_m) <= 1e-3
                    or spectral_distance(candidate, spec_c) <= 1e-3):
                continue
            try:
                res = resolvent_block(block, candidate)
            except HypothesisError:
                continue
            direct = np.linalg.inv(full - candidate * np.eye(full.shape[0]))
            checked += 1
            worst = max(worst, operator_norm(res - direct)
                        / max(operator_norm(direct), 1e-30))
    return [judge(
        "block-model/resolvent-blocks",
        "(M - aI)^{-1} = [[S^{-1}, -S^{-1}F], [-(C-aI)^{-1}B*S^{-1}, "
        "(C-aI)^{-1} + (C-aI)^{-1}B*S^{-1}F]]",
        {}, {"checked": checked, "worst_rel_err": worst},
        rel=_up_to(1e-8, worst))]


def _draw_relative(rng, _idx: int) -> tuple:
    """A block, then the second a at which to take the minimal b."""
    return random_block(rng), float(rng.uniform(0.0, 2.0))


def relative_bound_suite(rng, count: int = 100) -> list[Check]:
    worst_low = 0.0
    worst_tight = 0.0
    for block, a_drawn in _stacked(
            rng, _draw_relative, count, _RANDOM_ORDER,
            lambda draws: _filled(draws, ("coupling_top",))):
        for a in (0.0, a_drawn):
            rb = minimal_b_for_a(block, a)
            margin = relative_bound_margin(block, rb)
            worst_low = max(worst_low, -margin)
            if rb.b > 0.0:
                worst_tight = max(worst_tight, abs(margin))
    return [judge(
        "block-model/relative-bound",
        "B B* ⪯ a A + b I with b minimal",
        {}, {"instances": count, "worst_violation": worst_low,
             "worst_tightness": worst_tight},
        validity=_up_to(1e-9, worst_low),
        tightness=_up_to(1e-6, worst_tight))]


def dist_bound_suite(rng, count: int = 500) -> list[Check]:
    """Theorem suite: every assembled eigenvalue away from sigma(C) obeys the
    distance bound with the bounded-coupling constants (0, ||B||²)."""
    worst_slack = -np.inf
    checked = 0
    for block in _stacked(
            rng, _draw_block, count, _RANDOM_ORDER,
            lambda blocks: _filled(blocks, ("coupling_top", "eig_m", "eig_a",
                                            "eig_c"))):
        rb = minimal_b_for_a(block, 0.0)
        rep = dist_bound(block.eig_m.eigenvalues, block.eig_a.eigenvalues,
                         block.eig_c.eigenvalues, rb)
        # the suite leaves out points with dist[lam, sigma(C)] <= a + 1e-6
        kept = rep.applies & ~(rep.dist_to_C <= rb.a + 1e-6)
        checked += int(np.count_nonzero(kept))
        worst_slack = max(worst_slack, float(np.max(
            rep.dist_to_A[kept] - rep.bound[kept], initial=-np.inf)))
    return [judge(
        "enclosures/dist-bound", DIST_ANCHOR,
        {}, {"instances": count, "eigenvalues_checked": checked,
             "worst_excess": worst_slack},
        slack=_up_to(SLACK, worst_slack))]


def _window_instance(rng, idx: int):
    """Cycle dense, weak and single-channel "pushed" couplings so the
    exclusion and resolvent hypotheses all actually fire; a weak coupling
    comes as separated_block's draws."""
    if idx % 3 == 1:
        return _draw_separated(rng)
    if idx % 3 == 2:
        c = float(rng.uniform(-10.0, 5.0))
        d = float(rng.uniform(0.5, 2.0))
        g = float(rng.uniform(2.0, 5.0))
        mu1 = c + d
        lo = g * g / 4.0 + g * d / 2.0
        hi = (g + d) ** 2 / 4.0
        beta = np.sqrt(rng.uniform(lo, hi))
        return BlockOperatorMatrix(A=np.diag([mu1, mu1 + g]),
                                   B=[[beta], [0.0]], C=[[c]])
    return random_block(rng)


def _window_instances(draws) -> list[tuple]:
    """(block, rb) of each of _window_instance's draws, spectra solved as
    stacks: the weak couplings are settled as separated_block settles them,
    the others take minimal_b_for_a at a = 0."""
    weak = [isinstance(drawn, _SeparatedDraw) for drawn in draws]
    firsts = _filled([_first_separated(drawn) if is_weak else drawn
                      for drawn, is_weak in zip(draws, weak)],
                     ("eig_a", "eig_c", "coupling_top"))
    return _filled([_settle_separated(block)[:2] if is_weak
                    else (block, minimal_b_for_a(block, 0.0))
                    for block, is_weak in zip(firsts, weak)], ("eig_m",))


def _draw_degenerate(rng, _idx: int) -> tuple:
    """One draw of window_suite's degenerate-forms loop: mu, c below it, and
    a relative bound (a, b) with an increment db of b."""
    mu = float(rng.uniform(-10.0, 10.0))
    c = mu - float(rng.uniform(0.1, 10.0))
    return (mu, c, float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 5.0)),
            float(rng.uniform(0.0, 5.0)))


def window_suite(rng, count: int = 200) -> list[Check]:
    incl, excl, res = [], [], []
    for block, rb in _stacked(rng, _window_instance, count, _RANDOM_ORDER,
                              _window_instances):
        for check in windows(block, rb):
            (incl if check.family == "inclusion-window" else excl).append(check)
        res += resolvent_intervals(block, rb)
    applied = [sum(len(c.outputs.get("applicable", ())) for c in found)
               for found in (incl, excl)]
    checks = [
        aggregate("enclosures/inclusion-windows",
                  "lambda in [mu, mu + r], (mu, mu + 2r) in rho(A) => "
                  "lambda in [alpha-, alpha+]",
                  {"instances": count, "checked": applied[0]}, incl),
        aggregate("enclosures/exclusion-windows",
                  "lambda in (mu - r, mu], (mu - 2r, mu) in rho(A), "
                  "(mu - c)^2 > 4 a mu + 4b => lambda not in (beta-, beta+)",
                  {"instances": count, "checked": applied[1]}, excl),
        aggregate("enclosures/resolvent-windows",
                  "(alpha1+, beta2+) in rho(M)",
                  {"instances": count,
                   "windows": sum(c.status != NOT_APPLICABLE for c in res)},
                  res)]

    # Degenerate a = b = 0 forms collapse exactly, and the inclusion window
    # endpoint is monotone in b.
    rb0 = RelativeBound(0.0, 0.0)
    worst_deg = 0.0
    worst_mono = 0.0
    for idx in range(50):
        mu, c, a, b, db = _draw_degenerate(rng, idx)
        win = eigenvalue_window(mu, c, rb0)
        worst_deg = max(worst_deg, abs(win.lo - c), abs(win.hi - mu))
        exw = exclusion_window(mu, c, rb0)
        worst_deg = max(worst_deg, abs(exw.lo - c), abs(exw.hi - mu))
        try:
            lo_small = eigenvalue_window(mu, c, RelativeBound(a, b))
            lo_big = eigenvalue_window(mu, c, RelativeBound(a, b + db))
        except HypothesisError:
            # arbitrary (a, b, c) draws can leave the certified regime
            continue
        worst_mono = max(worst_mono, lo_big.lo - lo_small.lo,
                         lo_small.hi - lo_big.hi)
    checks.append(judge(
        "enclosures/degenerate-forms",
        "a = b = 0: [alpha-, alpha+] = [c, mu] and (beta-, beta+) = (c, mu)",
        {}, {"worst_gap": worst_deg}, exact=_up_to(1e-12, worst_deg)))
    checks.append(judge(
        "enclosures/window-monotonicity",
        "enlarging b never shrinks the inclusion window",
        {}, {"worst_shrink": worst_mono}, exact=_up_to(1e-12, worst_mono)))
    return checks


def dim_check_suite(rng, count: int = 100) -> list[Check]:
    found = []
    for block, rb, _ in _stacked(rng, _draw_separated, count,
                                 _SEPARATED_ORDER, _separated_filled):
        found += dim_bracket(block, rb)
    counted = [c for c in found if c.status != NOT_APPLICABLE]
    nonempty = sum(c.outputs["count_M"] > 0 for c in counted)
    return [aggregate(
        "enclosures/dim-check",
        "dim L_[beta2+, alpha3+](M) = dim L_[beta2+, alpha3+](A), nonempty",
        {"instances": count,
         "mismatches": sum(c.status == FAIL for c in counted),
         "nonempty_counts": nonempty},
        found, [(nonempty, 0, ">", None)])]


def _draw_soq(rng, _idx: int) -> tuple:
    """separated_block's draws, then noise of the order of M."""
    drawn = _draw_separated(rng)
    n = drawn.mus.size + drawn.c0.shape[0]
    return drawn, _random_hermitian(rng, n, 1.0)


def soq_suite(rng, disc64: MhdDiscretization,
              count: int = 100) -> list[Check]:
    found = []

    def prepare(draws):
        settled = _separated_filled([drawn for drawn, _ in draws])
        return [(*inst, noise) for inst, (_, noise) in zip(settled, draws)]

    for block, rb, _, noise in _stacked(rng, _draw_soq, count,
                                        _SEPARATED_ORDER, prepare):
        # Never None: separated_block validated two pairs on the ladder the
        # block keeps at rb, so every instance draws its noise.
        a1p, _, b4p = bracket = soq_bracket(block.ladder(rb))
        full = assemble(block)
        n = full.shape[0]
        noise = noise / np.sqrt(n)
        pert = full + 0.02 * operator_norm(full) * noise
        dec = hermitian_part_eig(0.5 * (pert + pert.conj().T))
        sel = (dec.eigenvalues > a1p - 5.0) & (dec.eigenvalues < b4p + 5.0)
        if not np.any(sel):
            continue
        q, _ = np.linalg.qr(dec.vectors[:, sel])
        found += soq(block, q, bracket)
    # The magnetohydrodynamics discretization with a 20-mode trial space.
    a, b, c = constants(constant_profile())
    # bracketed with the closed-form c, not block.c: a ladder of its own
    bracket = soq_bracket(Ladder.build(disc64.block.a_points, c,
                                       RelativeBound(a, b)))
    mhd, = soq(disc64.block, trial_space(disc64, 20), bracket)
    found.append(mhd)
    admitted = sum(ch.outputs.get("admitted_count", 0) for ch in found)
    return [aggregate(
        "enclosures/soq",
        "sigma(M) ∩ [Re z - |Im z|²/(b4p - Re z), Re z + |Im z|²/(Re z - a1p)] "
        "nonempty for admitted z",
        {"instances": count, "admitted": admitted,
         "mhd_admitted": mhd.outputs.get("admitted_count", 0),
         "misses": sum(len(ch.outputs.get("misses", ())) for ch in found)},
        found, [(admitted, 0, ">", None)])]


def subspace_suite(rng, count: int = 300) -> list[Check]:
    checks, riesz_found = [], []
    codim_fail = delta_checked = delta_fail = skipped = examined = 0
    ext_worst = shift_worst = 0.0
    for idx in range(count):
        if idx % 4 == 3:
            block = ladder_block(rng)
        elif idx % 4 == 2:
            block, _, _ = separated_block(rng)
        else:
            block = random_block(rng)
        try:
            marks = block.landmarks
        except HypothesisError:
            skipped += 1
            continue
        examined += 1
        rb = minimal_b_for_a(block, 0.0)
        at_c_tilde = angular_at_c_tilde(block, rb)
        codim_fail += at_c_tilde.status != PASS
        if at_c_tilde.outputs.get("k_norm") is None:
            continue  # no K_c: the subspace above c~ is no graph, or none
        k_op = block.graph_subspace.angular
        riesz_found += riesz(block)

        spec_a = block.eig_a.eigenvalues
        full_spec = block.eig_m.eigenvalues
        above = full_spec[full_spec > marks.c]
        # Delta soundness runs only the graph test: checks.angular at each
        # of the ~1,250 cuts of a run would double this suite's time.
        candidates = [0.5 * (above[i] + above[i + 1]) for i in range(len(above) - 1)]
        candidates.append(float(above[-1]) + 1.0 + float(rng.uniform(0.0, 2.0)))
        for alpha in candidates:
            try:
                delta = delta_condition(float(alpha), marks.c, spec_a, rb)
            except HypothesisError:
                continue
            if delta >= 0.5:
                continue
            delta_checked += 1
            try:
                kind = graph_test(spectral_subspace(block, float(alpha))).verdict
            except (HypothesisError, ArgumentError):
                kind = None
            delta_fail += kind != GRAPH

        # Extension consistency: the angular operator above the first gap
        # restricts the one at c_tilde.
        if above.size >= 2:
            alpha_hi = 0.5 * (float(above[0]) + float(above[1]))
            try:
                k_hi = angular_operator(spectral_subspace(block, alpha_hi))
            except (HypothesisError, ArgumentError):
                k_hi = None
            if k_hi is not None:
                # ‖(K_c - K_alpha) P‖ for the orthonormal domain basis P of
                # K_alpha equals the norm on the domain projector PP*.
                gap = operator_norm((k_op.K - k_hi.K) @ k_hi.domain)
                scale = max(1.0, k_op.norm, k_hi.norm)
                ext_worst = max(ext_worst, gap / scale)

        # Diagonal shift never lowers the spectral bottom.
        if block.n1 >= 2:
            lam_min_a = float(spec_a[0])
            mu = lam_min_a + float(rng.uniform(0.3, 0.9)) * max(
                float(spec_a[-1]) - lam_min_a, 1.0)
            shifted = shifted_matrix(block, mu)
            tilde_a_min = float(shifted.eig_a.eigenvalues[0])
            scale = max(1.0, abs(mu))
            shift_worst = max(shift_worst, (mu - tilde_a_min) / scale)
            tilde_spec = shifted.eig_m.eigenvalues
            shift_worst = max(shift_worst,
                              (float(full_spec[0]) - float(tilde_spec[0])) / scale)
    gram_fail = sum(check.status != PASS for check in riesz_found)
    checks.append(judge(
        "invariant-subspace/codim-kappa",
        "codim(Dom(K_c)) = kappa = dim L_(-inf,0)(S(c~))",
        {}, {"examined": examined, "skipped_no_spectrum_above_c": skipped,
             "failures": codim_fail},
        [(codim_fail, 0, "==", None), (examined, 0, ">", None)]))
    checks.append(aggregate(
        "invariant-subspace/gram-bounds",
        "eigenvalues of U*U in [1/(1 + ||K||²), 1]",
        {"examined": examined, "failures": gram_fail}, riesz_found,
        [(gram_fail, 0, "==", None)]))
    checks.append(judge(
        "invariant-subspace/delta-soundness",
        "delta < 1/2 => the subspace above alpha is a graph",
        {}, {"alphas_checked": delta_checked, "failures": delta_fail},
        [(delta_fail, 0, "==", None), (delta_checked, 0, ">", None)]))
    checks.append(judge(
        "invariant-subspace/extension-consistency",
        "K_c restricted to Dom(K_alpha) agrees with K_alpha",
        {}, {"worst_rel_gap": ext_worst}, rel=_up_to(1e-8, ext_worst)))
    checks.append(judge(
        "invariant-subspace/shifted-family",
        "A + tE((-inf, mu)) ⪰ mu I and min sigma(M~) >= min sigma(M)",
        {}, {"worst_rel_defect": shift_worst}, rel=_up_to(1e-9, shift_worst)))
    return checks


def basis_suite(rng, count: int = 60) -> list[Check]:
    decays, baris = [], []
    phase_worst = 0.0
    for _ in range(count):
        block, rb, _ = separated_block(rng)
        found = decay_and_bari(block, rb, 4)
        if len(found) < 2 or any(c.status == NOT_APPLICABLE for c in found):
            continue
        decays.append(found[0])
        baris.append(found[1])
        # Alignment invariance under a random phase.
        cols = block.eig_a.vectors[:, [block.landmarks.kappa]]
        x = rng.normal(size=block.n1) + 1j * rng.normal(size=block.n1)
        x = x / np.linalg.norm(x)
        try:
            base, _ = aligned_term(x, cols)
            rotated, _ = aligned_term(np.exp(1j * rng.uniform(0, 2 * np.pi)) * x,
                                      cols)
        except HypothesisError:
            continue
        phase_worst = max(phase_worst, abs(base - rotated))
    checked = sum(len(check.outputs["claimed"]) for check in decays)
    return [
        aggregate(
            "basis-analysis/decay-bound",
            "||E - F_n|| <= (gamma_n / dist[circle, sigma(A)]) "
            "delta_n/(1 - delta_n)",
            {"checked": checked,
             "failures": sum(check.status == FAIL for check in decays)},
            decays, [(checked, 0, ">", None)]),
        aggregate(
            "basis-analysis/bari-terms",
            "||y_{kappa+n} - x_n||² <= (2 M delta_n/(1 - delta_n))²",
            {"term_failures": sum(check.status == FAIL for check in baris)},
            baris),
        judge(
            "basis-analysis/phase-invariance",
            "||y - x|| is invariant under x -> e^{i theta} x",
            {}, {"worst_gap": phase_worst}, exact=_up_to(1e-12, phase_worst)),
    ]


def mhd_suite(marks64: SpectralLandmarks) -> list[Check]:
    """The MHD checks.  Five are ``mhd.run_report``'s on the constant profile
    at N = 128, renamed; the others are the selftest's own and read
    run_report's outputs there and on the decoupled profile at N = 32.
    ``marks64`` are the landmarks of the constant profile at N = 64, which
    the resolution-consistency check compares against."""
    checks = []
    profile = constant_profile()
    a, b, c = constants(profile)
    exact_c = 2.0 + np.sqrt(2.0)
    checks.append(judge(
        "mhd/closed-form-constants",
        "c = k²(va² + vs²)/2 + sqrt(k⁴(va² + vs²)²/4 - k² kpar² va² vs²); "
        "a = ((va² + vs²)² kperp² + vs⁴ kpar²)/(va² + vs²); b-display",
        {}, {"a": a, "b": b, "c": c},
        exact=_up_to(1e-12, abs(a - 2.5), abs(b), abs(c - exact_c))))

    disc = discretize(profile, 128)
    spec_a = disc.block.eig_a.eigenvalues
    continuum = np.array([2.0 * np.pi ** 2 * n ** 2 + 2.0 for n in (1, 2, 3)])
    rel = np.abs(spec_a[:3] - continuum) / continuum
    checks.append(judge(
        "mhd/sturm-liouville-eigs",
        "A-block eigenvalues approach 2 pi² n² + 2 for the uniform slab",
        {}, {"relative_errors": rel.tolist()}, rel=_up_to(0.02, rel)))

    pipeline = {check.name: check for check in run_report(disc, 8)}
    checks += [replace(pipeline[source], name=name) for source, name in (
        ("mhd/dist-bound", "mhd/dist-bound-continuum"),
        ("mhd/relative-bound", "mhd/constants-soundness"),
        ("mhd/gap-growth", "mhd/gap-growth"),
        ("mhd/angular-operator", "mhd/codim-kappa"),
        ("mhd/projection-decay", "mhd/projection-decay"))]

    marks = disc.block.landmarks
    bari = pipeline["mhd/bari-sums"].outputs
    terms = np.array(bari["terms"])
    gaps_model = 1.0 / np.diff(spec_a)[marks.kappa:marks.kappa + terms.size] ** 2
    quotients = (terms[1:] / terms[:-1]) / (gaps_model[1:] / gaps_model[:-1])
    checks.append(judge(
        "mhd/bari-ratio",
        "increments of sum ||y_{kappa+n} - x_n||² track 1/(mu_{n+1} - mu_n)² "
        "within a factor 3",
        {}, {"terms": bari["terms"], "ratio_quotients": quotients.tolist(),
             "gap_sum": bari["gap_sum"]},
        [(quotients, (1.0 / 3.0, 3.0), "within", 1.0)]))

    lead128 = marks.lambda_above_c[:5]
    lead64 = marks64.lambda_above_c[:5]
    agree = np.abs(lead128 - lead64) / np.abs(lead128)
    checks.append(judge(
        "mhd/resolution-consistency",
        "leading eigenvalues above c agree across N = 64 and N = 128",
        {}, {"relative_gaps": agree.tolist()}, rel=_up_to(0.01, agree)))

    # Decoupled profile: no coupling, angular operator vanishes.
    disc_deg = discretize(constant_profile(kperp=0.0, kpar=0.0, g=0.0), 32)
    b_norm = operator_norm(disc_deg.block.B)
    angular = next(check.outputs for check in run_report(disc_deg, 1)
                   if check.name == "mhd/angular-operator")
    checks.append(judge(
        "mhd/decoupled-degenerate",
        "kperp = kpar = 0, g = 0: B = 0 and K = 0",
        {}, {"coupling_norm": b_norm, "k_norm": angular["k_norm"],
             "kappa": angular["kappa"]},
        [(b_norm, 0.0, "==", None), (angular["kappa"], 0, "==", None)],
        exact=_up_to(1e-12, angular["k_norm"])))
    return checks


def fixture_suite() -> list[Check]:
    block = fixture_block()
    spec_m = block.eig_m.eigenvalues
    eig_gap = float(np.max(np.abs(spec_m - np.array(FIXTURE_EIGS))))
    marks = block.landmarks
    rb = minimal_b_for_a(block, 0.0)
    spec_a = block.eig_a.eigenvalues
    delta6 = delta_condition(6.0, marks.c, spec_a, rb)
    k_op = block.graph_subspace.angular

    # The guarded landmark instance: kappa confirmed 0 by the direct
    # 2x2 Schur evaluation.
    guard = BlockOperatorMatrix(A=np.diag([0.5, 20.0]), B=[[2.0], [0.0]],
                                C=[[-2.0]])
    gm = guard.landmarks
    ct = gm.c_tilde
    s_diag = (0.5 - ct - 4.0 / (-2.0 - ct), 20.0 - ct)
    kappa_oracle = sum(1 for v in s_diag if v < 0.0)
    return [judge(
        "fixtures/cubic",
        "eigenvalues solve x³ - 11x² + 6x + 32 = 0; c = -1; b_min(0) = 2; "
        "kappa = 0; codim(Dom(K_c)) = 0; delta(6) = 1/14",
        {}, {"eig_gap": eig_gap, "c": marks.c, "c_tilde": marks.c_tilde,
             "b_min": rb.b, "kappa": marks.kappa, "codim": k_op.codim,
             "delta_at_6": delta6, "guard_kappa": gm.kappa},
        [(marks.kappa, 0, "==", None), (k_op.codim, 0, "==", None),
         (gm.kappa, kappa_oracle, "==", None), (kappa_oracle, 0, "==", None)],
        eigs=_up_to(1e-9, eig_gap),
        derived=_up_to(1e-6, abs(marks.c - (-1.0)), abs(rb.b - 2.0),
                       abs(delta6 - FIXTURE_DELTA_AT_6)))]


def variational_suite(rng, count: int = 80) -> list[Check]:
    found = []
    for block, rb, _ in _stacked(rng, _draw_separated, count,
                                 _SEPARATED_ORDER, _separated_filled):
        found += variational_ladder(block, rb)
    checked = sum(c.inputs["n"] for c in found if c.status != NOT_APPLICABLE)
    return [aggregate(
        "enclosures/variational-bounds",
        "mu_{kappa+n} <= lambda_n <= (mu_{kappa+n} + c)/2 + "
        "sqrt(((mu_{kappa+n} - c)/2)² + a mu_{kappa+n} + b)",
        {"checked": checked}, found, [(checked, 0, ">", None)])]


def _prefix(rng) -> tuple[list[Check], SpectralLandmarks]:
    """The checks of the suites that draw independently of what they
    compute, in run's order, and the landmarks of the N = 64 constant
    profile, which mhd_suite reads."""
    checks = fixture_suite()
    checks += numeric_core_suite(rng)
    checks += schur_suite(rng)
    checks += resolvent_suite(rng)
    checks += relative_bound_suite(rng)
    checks += dist_bound_suite(rng)
    checks += window_suite(rng)
    checks += variational_suite(rng)
    checks += dim_check_suite(rng)
    # The N = 64 constant profile serves the SOQ and the MHD suites, so its
    # eig(M) is solved once.  Only its landmarks outlive this function: the
    # decompositions would otherwise stay resident through the later suites.
    disc64 = discretize(constant_profile(), 64)
    checks += soq_suite(rng, disc64)
    return checks, disc64.block.landmarks


# Every draw _prefix makes, in its order and at its counts: (draw, count).
_PREFIX_DRAWS = ((_draw_core, 50), (_draw_block, 200), (_draw_resolvent, 50),
                 (_draw_relative, 100), (_draw_block, 500),
                 (_window_instance, 200), (_draw_degenerate, 50),
                 (_draw_separated, 80), (_draw_separated, 100),
                 (_draw_soq, 100))


def _fast_forward(rng) -> None:
    """Make _prefix's draws and solve nothing: rng ends in the state _prefix
    leaves it in, because none of its draws depends on what it computes."""
    for draw, count in _PREFIX_DRAWS:
        for idx in range(count):
            draw(rng, idx)


def _suffix(rng) -> list[Check]:
    """The checks of the suites that draw after skips on computed values."""
    return subspace_suite(rng) + basis_suite(rng)


def _served_suffix(seed: int) -> list[Check]:
    """The suffix's checks at ``seed``, from a fresh generator brought to
    the state the prefix leaves."""
    rng = np.random.default_rng(seed)
    _fast_forward(rng)
    return _suffix(rng)


def run(seed: int = 42) -> Report:
    """Run every suite on the given seed and assemble the report.

    On Linux a forked child runs the suffix while this process runs the
    prefix and the MHD suite; no child outlives the call, whether it returns
    or raises.  Elsewhere the suffix runs here, after those two; it draws
    from where the prefix leaves rng, and the MHD suite draws nothing."""
    child = forked.start(_served_suffix, seed)
    try:
        rng = np.random.default_rng(seed)
        checks, marks64 = _prefix(rng)
        mhd = mhd_suite(marks64)
        checks += _suffix(rng) if child is None else child.result()
        checks += mhd
    finally:
        if child is not None:
            child.close()
    return Report(tool="specblock", version=__version__, command="selftest",
                  input_digest=f"selftest-seed-{seed}", checks=checks)
