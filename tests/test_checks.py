"""The selftest suites that aggregate the block-command checks, the rung count
of the variational ladder, and where checks are built.

``reference_*`` below evaluate the window, dimension, variational and
second-order statements point by point, independently of ``specblock.checks``,
and ``reference_subspace_suite`` is the invariant-subspace suite as it was
before it read the builders.  The selftest suites, which aggregate the checks
the block commands report, must reproduce their outputs and margins and
consume the same random stream.
A margin is the least slack-inclusive distance to a limit (the aggregated
checks compare at scale 1).
"""

import inspect
import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from specblock import (
    BlockOperatorMatrix,
    RelativeBound,
    basis,
    checks,
    cli,
    selftest,
)
from specblock.basis import aligned_term, projection_decay, riesz_check
from specblock.blocks import assemble, minimal_b_for_a, schur_complement
from specblock.checks import variational_ladder
from specblock.enclosures import (
    eigenvalue_window,
    exclusion_window,
    resolvent_interval,
    soq_enclosure,
    soq_misses,
    subspace_dim_check,
    variational_bounds,
    window_owners,
)
from specblock.errors import (
    ArgumentError,
    HypothesisError,
    LandmarkError,
    NotAGraphError,
)
from specblock.linalg import hermitian_eig, operator_norm, spectral_distance
from specblock.mhd import (
    constant_profile,
    constants,
    discretize,
    profile_from_functions,
    run_report,
    trial_space,
)
from specblock.problems import load_problem
from specblock.report import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    holds,
    judge,
    not_applicable,
)
from specblock.subspaces import (
    GRAPH,
    INDETERMINATE,
    NOT_GRAPH,
    GraphTest,
    angular_operator,
    delta_condition,
    graph_test,
    shifted_matrix,
    spectral_subspace,
)
from specblock.tolerance import (
    EIGVEC_RESIDUAL_REL,
    SLACK,
    SOQ_MARGIN_REL,
    matrix_tol,
)

from oracles import bracket_reference, cluster_tops
from test_golden import MHD_PROBLEMS
from test_selftest import prefix_checks

GOLDEN_BLOCK = Path(__file__).parent / "data" / "golden_block.json"


def reference_window_suite(rng, count):
    incl_margins, excl_margins, res_margins = [], [], []
    res_checked = 0
    for idx in range(count):
        if idx % 3 == 1:
            block, rb, c = selftest.separated_block(rng)
        elif idx % 3 == 2:
            c = float(rng.uniform(-10.0, 5.0))
            d = float(rng.uniform(0.5, 2.0))
            g = float(rng.uniform(2.0, 5.0))
            mu1 = c + d
            lo = g * g / 4.0 + g * d / 2.0
            hi = (g + d) ** 2 / 4.0
            beta = np.sqrt(rng.uniform(lo, hi))
            block = BlockOperatorMatrix(A=np.diag([mu1, mu1 + g]),
                                        B=[[beta], [0.0]], C=[[c]])
            rb = minimal_b_for_a(block, 0.0)
        else:
            block = selftest.random_block(rng)
            rb = minimal_b_for_a(block, 0.0)
            c = float(block.eig_c.eigenvalues[-1])
        spec_a = block.eig_a.eigenvalues
        spec_m = block.eig_m.eigenvalues
        lams = spec_m[spec_m > c + rb.a + SLACK]
        mus = block.a_points
        owners = zip(*window_owners(mus, cluster_tops(block), lams))
        for lam, (k_in, k_ex) in zip(lams.tolist(), owners):
            if k_in >= 0:
                win = eigenvalue_window(mus[k_in], c, rb)
                incl_margins.append(min(lam - (win.lo - SLACK),
                                        (win.hi + SLACK) - lam))
            if k_ex >= 0:
                try:
                    win = exclusion_window(mus[k_ex], c, rb)
                except HypothesisError:
                    continue
                # positive when lam stays out of the open window
                excl_margins.append(max((win.lo + SLACK) - lam,
                                        lam - (win.hi - SLACK)))
        for i in range(spec_a.size - 1):
            try:
                win = resolvent_interval(float(spec_a[i]), float(spec_a[i + 1]),
                                         c, rb)
            except HypothesisError:
                continue
            res_checked += 1
            res_margins += [max((win.lo + SLACK) - lam, lam - (win.hi - SLACK))
                            for lam in spec_m.tolist()]
    outputs = [
        {"instances": count, "checked": len(incl_margins),
         "margin": min(incl_margins, default=None)},
        {"instances": count, "checked": len(excl_margins),
         "margin": min(excl_margins, default=None)},
        {"instances": count, "windows": res_checked,
         "margin": min(res_margins, default=None)},
    ]
    # the degenerate-form and monotonicity draws, unchanged
    rb0 = RelativeBound(0.0, 0.0)
    worst_deg = worst_mono = 0.0
    for _ in range(50):
        mu = float(rng.uniform(-10.0, 10.0))
        c = mu - float(rng.uniform(0.1, 10.0))
        win = eigenvalue_window(mu, c, rb0)
        worst_deg = max(worst_deg, abs(win.lo - c), abs(win.hi - mu))
        exw = exclusion_window(mu, c, rb0)
        worst_deg = max(worst_deg, abs(exw.lo - c), abs(exw.hi - mu))
        a = float(rng.uniform(0.0, 1.0))
        b = float(rng.uniform(0.0, 5.0))
        db = float(rng.uniform(0.0, 5.0))
        try:
            lo_small = eigenvalue_window(mu, c, RelativeBound(a, b))
            lo_big = eigenvalue_window(mu, c, RelativeBound(a, b + db))
        except HypothesisError:
            continue
        worst_mono = max(worst_mono, lo_big.lo - lo_small.lo,
                         lo_small.hi - lo_big.hi)
    return outputs + [{"worst_gap": worst_deg, "margin": 1e-12 - worst_deg},
                      {"worst_shrink": worst_mono, "margin": 1e-12 - worst_mono}]


def reference_dim_check_suite(rng, count):
    mismatches = nonempty = 0
    for _ in range(count):
        block, rb, c = selftest.separated_block(rng)
        (b2p, a3p), _ = bracket_reference(block.eig_a.eigenvalues, c, rb)
        if not b2p < a3p:
            continue
        count_m, count_a = subspace_dim_check(block, b2p, a3p)
        mismatches += count_m != count_a
        nonempty += bool(count_m)
    return [{"instances": count, "mismatches": mismatches,
             "nonempty_counts": nonempty, "margin": None}]


def reference_variational_suite(rng, count):
    margins = []
    for _ in range(count):
        block, rb, c = selftest.separated_block(rng)
        try:
            marks = block.landmarks
        except LandmarkError:
            continue
        spec_a = block.eig_a.eigenvalues
        n_avail = min(int(marks.lambda_above_c.size),
                      int(spec_a.size) - marks.kappa)
        if n_avail < 1:
            continue
        intervals = variational_bounds(spec_a, c, rb, marks.kappa, n_avail)
        for n in range(n_avail):
            lam = float(marks.lambda_above_c[n])
            margins.append(min(lam - (intervals[n].lo - SLACK),
                               (intervals[n].hi + SLACK) - lam))
    return [{"checked": len(margins), "margin": min(margins, default=None)}]


def soq_margin(enclosures, spectrum):
    """The least slack-inclusive distance, over the admitted enclosures, from
    an interval to the spectrum, at scale max(1, |Re z|)."""
    margins = []
    for e in enclosures:
        if e.admitted:
            scale = max(1.0, abs(e.z.real))
            dist = min(0.0 if e.interval.contains(float(lam))
                       else min(abs(lam - e.interval.lo),
                                abs(lam - e.interval.hi))
                       for lam in spectrum)
            margins.append((SOQ_MARGIN_REL * scale - dist) / scale)
    return margins


def reference_soq_suite(rng, count):
    misses = 0
    admitted_total = 0
    margins = []
    for _ in range(count):
        block, rb, c = selftest.separated_block(rng)
        ref = bracket_reference(block.eig_a.eigenvalues, c, rb)
        if ref is None:
            continue
        a1p, b4m, b4p = ref[1]
        full = assemble(block)
        spec_m = block.eig_m.eigenvalues
        n = full.shape[0]
        noise = selftest._random_hermitian(rng, n, 1.0) / np.sqrt(n)
        pert = full + 0.02 * operator_norm(full) * noise
        dec = hermitian_eig(0.5 * (pert + pert.conj().T))
        sel = (dec.eigenvalues > a1p - 5.0) & (dec.eigenvalues < b4p + 5.0)
        if not np.any(sel):
            continue
        q, _ = np.linalg.qr(dec.vectors[:, sel])
        enclosures = soq_enclosure(block, q, a1p, b4m, b4p)
        admitted_total += sum(e.admitted for e in enclosures)
        misses += len(soq_misses(enclosures, spec_m))
        margins += soq_margin(enclosures, spec_m)
    disc = discretize(constant_profile(), 64)
    a, b, c = constants(constant_profile())
    rb = RelativeBound(a, b)
    spec_m = disc.block.eig_m.eigenvalues
    ref = bracket_reference(disc.block.eig_a.eigenvalues, c, rb)
    mhd_admitted = 0
    if ref is not None:
        a1p, b4m, b4p = ref[1]
        enclosures = soq_enclosure(disc.block, trial_space(disc, 20), a1p, b4m, b4p)
        mhd_admitted = sum(e.admitted for e in enclosures)
        admitted_total += mhd_admitted
        misses += len(soq_misses(enclosures, spec_m))
        margins += soq_margin(enclosures, spec_m)
    return {"instances": count, "admitted": admitted_total,
            "mhd_admitted": mhd_admitted, "misses": misses,
            "margin": min(margins, default=None)}, misses == 0 < admitted_total


def reference_schur_suite(rng, count):
    """One full decomposition per shift: the forward direction at the
    eigenvalues of M, the converse on the grid, both away from sigma(C)."""
    worst_forward = worst_converse = 0.0
    scanned = 0
    for _ in range(count):
        block = selftest.random_block(rng)
        spec_m = block.eig_m.eigenvalues
        spec_c = block.eig_c.eigenvalues
        tol = block.assembled_tol
        for lam in spec_m:
            if spectral_distance(float(lam), spec_c) <= 10.0 * tol:
                continue
            s_eig = hermitian_eig(schur_complement(block, float(lam))).eigenvalues
            worst_forward = max(worst_forward, float(np.min(np.abs(s_eig))))
        grid = np.concatenate([
            spec_m,
            np.linspace(float(spec_m[0]) - 1.0, float(spec_m[-1]) + 1.0, 7)])
        for lam in grid:
            if spectral_distance(float(lam), spec_c) <= 10.0 * tol:
                continue
            scanned += 1
            s_eig = hermitian_eig(schur_complement(block, float(lam))).eigenvalues
            if float(np.min(np.abs(s_eig))) <= 1e-9:
                worst_converse = max(worst_converse,
                                     spectral_distance(float(lam), spec_m))
    ok = worst_forward <= 1e-6 and worst_converse <= 1e-6
    return {"instances": count, "worst_zero_eig": worst_forward,
            "scan_points": scanned, "worst_converse_dist": worst_converse}, ok


def reference_basis_suite(rng, count):
    """The decay bound and the Bari term rung by rung, on every rung with
    delta < 1 and one point of sigma(A) inside the circle, and the phase
    invariance on the instances where both were computed and a rung was
    claimed."""
    decay_gaps, term_gaps = [], []
    phase_worst = 0.0
    for _ in range(count):
        block, rb, _ = selftest.separated_block(rng)
        try:
            marks = block.landmarks
        except HypothesisError:
            continue
        n_avail = min(marks.rungs, 4)
        if n_avail < 1:
            continue
        try:
            decay = projection_decay(block, n_avail, rb=rb)
        except HypothesisError:
            continue
        if decay.unaligned is not None:
            continue
        claimed = [rec for rec in decay.records
                   if rec.delta < 1.0 and rec.a_points_inside == 1]
        if not claimed:
            continue
        for rec in claimed:
            limit = 2.0 * rec.bound
            decay_gaps.append(rec.bound + SLACK - rec.proj_diff_norm)
            term_gaps.append(limit * limit + SLACK - rec.term)
        cols = block.eig_a.vectors[:, [marks.kappa]]
        x = rng.normal(size=block.n1) + 1j * rng.normal(size=block.n1)
        x = x / np.linalg.norm(x)
        try:
            base, _ = aligned_term(x, cols)
            rotated, _ = aligned_term(np.exp(1j * rng.uniform(0, 2 * np.pi)) * x,
                                      cols)
        except HypothesisError:
            continue
        phase_worst = max(phase_worst, abs(base - rotated))
    return [{"checked": len(decay_gaps),
             "failures": sum(gap < 0.0 for gap in decay_gaps),
             "margin": min(decay_gaps, default=None)},
            {"term_failures": sum(gap < 0.0 for gap in term_gaps),
             "margin": min(term_gaps, default=None)},
            {"worst_gap": phase_worst, "margin": 1e-12 - phase_worst}]


def reference_subspace_suite(rng, count):
    """The invariant-subspace suite with its own codim = kappa and Riesz
    rules, as the selftest ran it before it read the builders; the Riesz
    rule reads the Riccati residual."""
    checks = []
    codim_fail = 0
    residuals = []
    delta_checked = 0
    delta_fail = 0
    ext_worst = 0.0
    shift_worst = 0.0
    skipped = 0
    examined = 0
    for idx in range(count):
        if idx % 4 == 3:
            block = selftest.ladder_block(rng)
        elif idx % 4 == 2:
            block, _, _ = selftest.separated_block(rng)
        else:
            block = selftest.random_block(rng)
        try:
            marks = block.landmarks
        except HypothesisError:
            skipped += 1
            continue
        examined += 1
        try:
            sub = block.graph_subspace
            k_op = sub.angular
        except NotAGraphError:
            codim_fail += 1
            continue
        if k_op.codim != marks.kappa:
            codim_fail += 1
        residuals.append(riesz_check(block, sub))

        spec_a = block.eig_a.eigenvalues
        full_spec = block.eig_m.eigenvalues
        above = full_spec[full_spec > marks.c]
        rb = minimal_b_for_a(block, 0.0)
        candidates = [0.5 * (above[i] + above[i + 1])
                      for i in range(len(above) - 1)]
        rng.uniform(0.0, 2.0)  # subspace_suite's draw: no cut above sigma(M)
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
                delta_fail += 1
                continue
            if kind != GRAPH:
                delta_fail += 1

        if above.size >= 2:
            alpha_hi = 0.5 * (float(above[0]) + float(above[1]))
            try:
                k_hi = angular_operator(spectral_subspace(block, alpha_hi))
            except (HypothesisError, ArgumentError):
                k_hi = None
            if k_hi is not None:
                gap = operator_norm((k_op.K - k_hi.K) @ k_hi.domain)
                scale = max(1.0, k_op.norm, k_hi.norm)
                ext_worst = max(ext_worst, gap / scale)

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
    bounds = [(residual, 0.0, "<=", 1.0) for residual in residuals]
    gram_fail = sum(not holds(bound, EIGVEC_RESIDUAL_REL) for bound in bounds)
    checks.append(judge(
        "invariant-subspace/codim-kappa",
        "codim(Dom(K_c)) = kappa = dim L_(-inf,0)(S(c~))",
        {}, {"examined": examined, "skipped_no_spectrum_above_c": skipped,
             "failures": codim_fail},
        [(codim_fail, 0, "==", None), (examined, 0, ">", None)]))
    checks.append(judge(
        "invariant-subspace/gram-bounds",
        "eigenvalues of U*U in [1/(1 + ||K||²), 1]",
        {}, {"examined": examined, "failures": gram_fail},
        eigvec_residual_rel=(EIGVEC_RESIDUAL_REL, bounds)))
    checks.append(judge(
        "invariant-subspace/delta-soundness",
        "delta < 1/2 => the subspace above alpha is a graph",
        {}, {"alphas_checked": delta_checked, "failures": delta_fail},
        [(delta_fail, 0, "==", None), (delta_checked, 0, ">", None)]))
    checks.append(judge(
        "invariant-subspace/extension-consistency",
        "K_c restricted to Dom(K_alpha) agrees with K_alpha",
        {}, {"worst_rel_gap": ext_worst},
        rel=selftest._up_to(1e-8, ext_worst)))
    checks.append(judge(
        "invariant-subspace/shifted-family",
        "A + tE((-inf, mu)) ⪰ mu I and min sigma(M~) >= min sigma(M)",
        {}, {"worst_rel_defect": shift_worst},
        rel=selftest._up_to(1e-9, shift_worst)))
    return checks


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_subspace_suite_matches_its_former_rules(seed):
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    assert (selftest.subspace_suite(rng, count=30)
            == reference_subspace_suite(rng_ref, count=30))
    assert rng.bit_generator.state == rng_ref.bit_generator.state


SUITES = [
    # the window instances, then the 50 draws of the degenerate forms
    (lambda rng, count: prefix_checks(rng, "window_suite", count)
     + prefix_checks(rng, "degenerate_suite", 50), reference_window_suite),
    (lambda rng, count: prefix_checks(rng, "dim_check_suite", count),
     reference_dim_check_suite),
    (lambda rng, count: prefix_checks(rng, "variational_suite", count),
     reference_variational_suite),
    (selftest.basis_suite, reference_basis_suite),
]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("suite, reference", SUITES,
                         ids=["window", "dim-check", "variational", "basis"])
def test_suite_matches_the_per_point_reference(suite, reference, seed):
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    checks = suite(rng, count=30)
    assert ([{**c.outputs, "margin": c.margin} for c in checks]
            == reference(rng_ref, count=30))
    assert all(c.status == PASS for c in checks)
    # the builders draw nothing: later suites see the same stream
    assert rng.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_soq_suite_matches_the_inline_reference(seed):
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    disc64 = discretize(constant_profile(), 64)
    check, = prefix_checks(rng, "soq_suite", 30, disc64)
    want, ok = reference_soq_suite(rng_ref, count=30)
    assert {**check.outputs, "margin": check.margin} == want
    assert ok and check.status == PASS
    assert check.tolerances == {"soq_margin_rel": SOQ_MARGIN_REL}
    assert rng.bit_generator.state == rng_ref.bit_generator.state


def decoupled_random_block(rng, _draw=selftest.random_block):
    """A random block whose coupling misses one eigenvector v of C, so the
    eigenvalue of v lies in sigma(M) ∩ sigma(C) and the suite skips it."""
    block = _draw(rng)
    v = block.eig_c.vectors[:, :1]
    return BlockOperatorMatrix(A=block.A, B=block.B - (block.B @ v) @ v.conj().T,
                               C=block.C)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("decoupled", [False, True], ids=["random", "decoupled"])
def test_schur_suite_matches_the_per_shift_reference(seed, decoupled, monkeypatch):
    if decoupled:
        monkeypatch.setattr(selftest, "random_block", decoupled_random_block)
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    check, = prefix_checks(rng, "schur_suite", 30)
    want, ok = reference_schur_suite(rng_ref, count=30)
    got = check.outputs
    # eigvalsh and eigh round differently: the worst near-zero eigenvalue
    # moves by up to 1.2e-12 at these seeds (1.5e-11 over a full selftest),
    # against a check bound of 1e-6
    assert abs(got["worst_zero_eig"] - want["worst_zero_eig"]) <= 1e-11
    assert {k: v for k, v in got.items() if k != "worst_zero_eig"} == {
        k: v for k, v in want.items() if k != "worst_zero_eig"}
    assert ok and check.status == PASS
    assert rng.bit_generator.state == rng_ref.bit_generator.state


def test_selftest_discretizes_each_profile_once(monkeypatch):
    # In-process, so that a forked child's calls would be counted too.
    monkeypatch.delattr(os, "fork", raising=False)
    sizes = []

    def spy(profile, n_interior):
        sizes.append(n_interior)
        return discretize(profile, n_interior)

    monkeypatch.setattr(selftest, "discretize", spy)
    selftest.run(seed=1)
    assert sorted(sizes) == [32, 64, 128]


def test_selftest_mhd_checks_are_run_report_checks(monkeypatch):
    """Five MHD checks of the selftest are run_report's on the same N = 128
    discretization, renamed and otherwise equal."""
    built = {}

    def spy(profile, n_interior):
        built[n_interior] = discretize(profile, n_interior)
        return built[n_interior]

    monkeypatch.setattr(selftest, "discretize", spy)
    marks64 = discretize(constant_profile(), 64).block.landmarks
    suite = {check.name: check for check in selftest.mhd_suite(marks64)}
    pipeline = {check.name: check for check in run_report(built[128], 8)}
    renamed = {"mhd/dist-bound": "mhd/dist-bound-continuum",
               "mhd/relative-bound": "mhd/constants-soundness",
               "mhd/gap-growth": "mhd/gap-growth",
               "mhd/angular-operator": "mhd/codim-kappa",
               "mhd/projection-decay": "mhd/projection-decay"}
    for source, name in renamed.items():
        assert suite[name] == replace(pipeline[source], name=name)
    assert suite["mhd/bari-ratio"].outputs["terms"] \
        == pipeline["mhd/bari-sums"].outputs["terms"]


@pytest.mark.parametrize("profile", [
    constant_profile(grid_n=65),
    profile_from_functions(lambda x: 1.0 + x, lambda x: 1.0 + 0.5 * np.sin(np.pi * x),
                           1.0, 1.0, 1.0, g=0.3, grid_n=65),
    constant_profile(grid_n=33, g=1e100),  # projection decay not applicable
], ids=["constant", "linear-sinusoidal", "huge-g"])
def test_mhd_checks_are_the_builders_checks(profile):
    """Four MHD checks are checks.angular_at_c_tilde's and checks.basis's on
    the same discretization, renamed and otherwise equal; the first reads
    checks.angular at c~."""
    disc = discretize(profile, 64 if profile.g < 1.0 else 16)
    a, b, _ = constants(profile)
    pipeline = {check.name: check for check in run_report(disc, 6)}
    rb = RelativeBound(a, b)
    built = {check.name: check for check in
             [checks.angular_at_c_tilde(disc.block, rb),
              *checks.basis(disc.block, rb, 6)]}
    for source, name in (("angular/c-tilde", "mhd/angular-operator"),
                         ("basis/riesz", "mhd/riesz-bounds"),
                         ("basis/decay", "mhd/projection-decay"),
                         ("basis/bari", "mhd/bari-sums")):
        assert pipeline[name] == replace(built[source], name=name)
    angular = checks.angular(disc.block, RelativeBound(a, b), None)
    assert [c.name for c in angular][-1] == "angular/codim-kappa"
    operator = pipeline["mhd/angular-operator"]
    assert operator.status == angular[-1].status == PASS
    assert operator.outputs["k_norm"] == angular[2].outputs["norm"]
    assert operator.outputs["kappa"] == angular[-1].outputs["kappa"]


def test_mhd_angular_operator_follows_the_angular_checks(m3, monkeypatch):
    """checks.angular_at_c_tilde, which run_report reports as
    mhd/angular-operator, on given angular checks."""
    passed = judge("angular/codim-kappa", "", {}, {"codim": 0, "kappa": 0},
                   [(0, 0, "==", None)])
    failed = judge("angular/operator", "", {}, {}, [(1.0, 0.0, "<=", 1.0)])
    stopped = not_applicable("angular/operator", "", "no angular operator")
    delta = not_applicable("angular/delta", "", "delta >= 1/2")
    marks = m3.landmarks
    rb = minimal_b_for_a(m3, 0.0)

    def at_c_tilde(*found):
        monkeypatch.setattr(checks, "angular", lambda block, rb, alpha: found)
        return checks.angular_at_c_tilde(m3, rb)

    check = at_c_tilde(delta, passed)
    assert check.name == "angular/c-tilde" and check.status == PASS
    check = at_c_tilde(failed)
    assert check.status == FAIL and check.outputs["kappa"] == marks.kappa
    check = at_c_tilde(delta, stopped)
    assert check.status == NOT_APPLICABLE
    assert check.outputs["reason"] == "no angular operator"


@pytest.mark.parametrize("verdict, sigma_min", [(NOT_GRAPH, 0.0),
                                                (INDETERMINATE, 5e-9)])
def test_no_graph_at_c_tilde_fails_whatever_delta(m3, monkeypatch, verdict,
                                                  sigma_min):
    # the subspace above c~ is a graph by theorem; elsewhere only delta < 1/2
    # claims one
    monkeypatch.setattr(checks, "graph_test", lambda sub: GraphTest(
        verdict=verdict, sigma_min=sigma_min))
    rb = minimal_b_for_a(m3, 0.0)
    found = {c.name: c for c in checks.angular(m3, rb, None)}
    assert found["angular/delta"].outputs["delta"] >= 0.5
    assert found["angular/graph"].status == FAIL
    assert checks.angular_at_c_tilde(m3, rb).status == FAIL
    found = {c.name: c for c in checks.angular(m3, rb, 2.5)}
    assert found["angular/delta"].outputs["delta"] >= 0.5
    assert found["angular/graph"].status == NOT_APPLICABLE
    # the selftest counts every instance it examines as a codim failure
    codim = selftest.subspace_suite(np.random.default_rng(1), count=8)[0]
    assert codim.name == "invariant-subspace/codim-kappa"
    assert codim.status == FAIL
    assert codim.outputs["failures"] == codim.outputs["examined"] > 0


def test_basis_suite_builds_no_riesz_check(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return riesz_check(*args)

    # BlockOperatorMatrix.riccati_residual reads basis.riesz_check
    monkeypatch.setattr(basis, "riesz_check", spy)
    selftest.basis_suite(np.random.default_rng(1), count=10)
    assert calls == []
    block, _, _ = selftest.separated_block(np.random.default_rng(1))
    checks.riesz(block)
    assert len(calls) == 1


def test_indeterminate_graph_test_fails_under_the_delta_condition(
        m3, monkeypatch):
    # sigma_min between INDETERMINATE_TOL and GRAPH_TOL decides nothing,
    # unless delta < 1/2 proves the subspace a graph
    monkeypatch.setattr(checks, "graph_test", lambda sub: GraphTest(
        verdict=INDETERMINATE, sigma_min=5e-9))
    rb = minimal_b_for_a(m3, 0.0)
    for alpha, delta, status in ((6.0, 1.0 / 14.0, FAIL),
                                 (2.5, 8.0 / 7.0, NOT_APPLICABLE)):
        found = {c.name: c for c in checks.angular(m3, rb, alpha)}
        assert found["angular/delta"].outputs["delta"] == pytest.approx(delta)
        assert found["angular/graph"].status == status


def test_cli_builds_no_check():
    source = inspect.getsource(cli)
    for call in ("Check(", "not_applicable(", "verdict("):
        assert call not in source


class TestRungs:
    def test_equal_counts(self, m3):
        # two eigenvalues above c = -1, kappa = 0, n1 = 2
        marks = m3.landmarks
        assert (marks.lambda_above_c.size, m3.n1 - marks.kappa) == (2, 2)
        assert marks.rungs == 2
        assert marks.first_above == 1

    def test_kappa_counts_a_negative_eigenvalue_inside_matrix_tol(self):
        # The uncoupled point -2 = c of sigma(A) gives S(c~) the eigenvalue
        # c - c~ = -0.006, inside matrix_tol(S(c~)) = 0.04 (the strong
        # coupling makes S large).  Its sign alone counts: kappa = 1, and the
        # two eigenvalues above c are the n1 - kappa rungs of the ladder.
        block = BlockOperatorMatrix(A=np.diag([-2.0, -1.0, -2.0]),
                                    B=[[0.0], [900.0], [100.0]], C=[[-2.0]])
        marks = block.landmarks
        s = schur_complement(block, marks.c_tilde)
        assert -matrix_tol(s) < hermitian_eig(s).eigenvalues[0] < 0.0
        assert marks.kappa == 1
        assert marks.lambda_above_c.size == 2 == block.n1 - marks.kappa
        assert marks.rungs == 2
        assert marks.first_above == 2
        check, = variational_ladder(block, minimal_b_for_a(block, 0.0))
        assert check.inputs["n"] == 2 and len(check.outputs["intervals"]) == 2
        assert check.status == PASS

    def test_never_more_eigenvalues_above_c_than_n1_minus_kappa(self, rng):
        # By inertia, sigma(M) ∩ (c~, inf) has n1 - kappa - dim ker S(c~)
        # points, and c~ lies in a gap of sigma(M), so the count above c is
        # exactly n1 - kappa.
        for _ in range(200):
            block = selftest.random_block(rng)
            try:
                marks = block.landmarks
            except LandmarkError:
                continue
            assert marks.lambda_above_c.size == block.n1 - marks.kappa
            assert marks.rungs == marks.lambda_above_c.size
            assert np.array_equal(
                block.eig_m.eigenvalues[marks.first_above:],
                marks.lambda_above_c)


def sylvester_blocks(tmp_path):
    """Blocks of every kind the programs see: selftest draws, the golden
    block, both golden MHD profiles at N = 64, and the block whose S(c~) has
    a negative eigenvalue inside matrix_tol."""
    rng = np.random.default_rng(2718)
    blocks = [selftest.random_block(rng) for _ in range(100)]
    blocks += [selftest.ladder_block(rng) for _ in range(50)]
    blocks += [selftest.separated_block(rng)[0] for _ in range(50)]
    blocks.append(load_problem(GOLDEN_BLOCK).block)
    for name, problem in MHD_PROBLEMS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"mhd": problem}))
        blocks.append(discretize(load_problem(path).profile, 64).block)
    blocks.append(BlockOperatorMatrix(A=np.diag([-2.0, -1.0, -2.0]),
                                      B=[[0.0], [900.0], [100.0]], C=[[-2.0]]))
    return blocks


def test_kappa_is_the_sylvester_count(tmp_path):
    # Haynsworth: In(M - c~) = In(C - c~) + In(S(c~)), and C - c~ < 0 has
    # n2 negative eigenvalues, so kappa = #{lambda in sigma(M) : lambda < c~}
    # - n2.  The count reads eig(M), independently of S(c~).
    checked = 0
    for block in sylvester_blocks(tmp_path):
        try:
            marks = block.landmarks
        except LandmarkError:
            continue
        below = int(np.sum(block.eig_m.eigenvalues < marks.c_tilde))
        assert marks.kappa == below - block.n2
        assert marks.lambda_above_c.size == block.n1 - marks.kappa
        checked += 1
    assert checked >= 150


def test_overflowing_windows_are_not_applicable():
    # ((mu - c)/2)^2 overflows for every point of sigma(A) at 1e160
    block = BlockOperatorMatrix(A=np.diag([1e160, 3e160]), B=[[1.0], [1.0]],
                                C=[[-1e160]])
    rb = RelativeBound(0.0, 2.0)
    found = (checks.windows(block, rb) + checks.resolvent_intervals(block, rb)
             + variational_ladder(block, rb))
    assert [c.family for c in found] == [
        "inclusion-window", "exclusion-window", "inclusion-window",
        "exclusion-window", "resolvent-interval", "variational-bounds"]
    assert {c.status for c in found} == {"not-applicable"}
    assert all(c.outputs["reason"].endswith("overflows double precision")
               for c in found)


def selftest_report(tmp_path, seed, name):
    """(exit code, report bytes) of ``specblock selftest --seed seed``."""
    out = tmp_path / name
    return cli.main(["selftest", "--seed", str(seed), "--out", str(out)]), \
        out.read_bytes()


@pytest.mark.parametrize("seed", [0, 14, 42])
def test_stacked_fill_only_fills_caches(seed, tmp_path, monkeypatch,
                                        selftest_42_runs):
    # The families solve their instances as stacks through fill_spectra;
    # with it a no-op every cached spectrum is solved alone, and the report
    # must keep its bytes.  Seed 14 keeps its known enclosures/soq failure.
    # The runs here are in-process, so that a forked child's calls would be
    # counted too; the seed-42 reference comes from the two-process run.
    monkeypatch.delattr(os, "fork", raising=False)
    if seed == 42:
        code, path = selftest_42_runs[0]
        stacked = code, path.read_bytes()
    else:
        filled = []
        fill = selftest.fill_spectra
        monkeypatch.setattr(selftest, "fill_spectra", lambda blocks, names: (
            filled.append(len(blocks)), fill(blocks, names)))
        stacked = selftest_report(tmp_path, seed, "stacked.json")
        assert len(filled) > 10 and sum(filled) > 1000
    monkeypatch.setattr(selftest, "fill_spectra", lambda blocks, names: None)
    assert selftest_report(tmp_path, seed, "single.json") == stacked
    soq, = [c for c in json.loads(stacked[1])["checks"]
            if c["name"] == "enclosures/soq"]
    assert (stacked[0], soq["status"]) == ((1, "fail") if seed == 14
                                           else (0, "pass"))
