"""Acceptance suite.

One test per criterion, each printing a single pass/fail line.  Criteria run
at their stated tolerances; the random suites use fixed seeds so the numbers
are reproducible.
"""

import time

import numpy as np

from specblock import (
    RelativeBound,
    angular_operator,
    assemble,
    constant_profile,
    constants,
    delta_condition,
    discretize,
    dist_bound,
    hermitian_eig,
    minimal_b_for_a,
    projection_decay,
    spectral_subspace,
)
from specblock import selftest

from oracles import cubic_fixture_roots


def report(criterion, ok, detail):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def all_pass(checks):
    bad = [c.name for c in checks if c.status != "pass"]
    return not bad, bad


def test_criterion_1_distance_bound_suite():
    rng = np.random.default_rng(42)
    start = time.monotonic()
    checks = selftest.dist_bound_suite(rng, count=500)
    elapsed = time.monotonic() - start
    ok, bad = all_pass(checks)
    worst = checks[0].outputs["worst_excess"]
    ok = ok and elapsed < 30.0 and worst <= 1e-9
    report(1, ok, f"500 random instances, worst excess {worst:.3e} "
                  f"(slack 1e-9), {elapsed:.1f}s < 30s")


def test_criterion_2_window_suite():
    rng = np.random.default_rng(42)
    start = time.monotonic()
    checks = selftest.window_suite(rng, count=200)
    elapsed = time.monotonic() - start
    ok, bad = all_pass(checks)
    by_name = {c.name.split("/")[-1]: c for c in checks}
    degenerate = by_name["degenerate-forms"].outputs["worst_gap"]
    ok = ok and elapsed < 30.0 and degenerate <= 1e-12
    report(2, ok, f"inclusion/exclusion/resolvent windows clean, degenerate "
                  f"forms exact to {degenerate:.1e} <= 1e-12, "
                  f"{elapsed:.1f}s < 30s{'' if ok else ': ' + str(bad)}")


def test_criterion_3_dimension_counts():
    rng = np.random.default_rng(42)
    checks = selftest.dim_check_suite(rng, count=100)
    ok, bad = all_pass(checks)
    out = checks[0].outputs
    report(3, ok and out["mismatches"] == 0,
           f"100 constructed instances, {out['mismatches']} count mismatches, "
           f"{out['nonempty_counts']} nonempty brackets")


def test_criterion_4_cubic_fixture():
    block = selftest.fixture_block()
    roots = cubic_fixture_roots()
    eig_gap = np.max(np.abs(hermitian_eig(assemble(block)).eigenvalues
                            - np.array(roots)))
    marks = block.landmarks
    rb = minimal_b_for_a(block, 0.0)
    delta6 = delta_condition(6.0, marks.c, [2.0, 10.0], rb)
    k_op = angular_operator(spectral_subspace(block, marks.c_tilde))
    ok = (eig_gap <= 1e-9
          and abs(marks.c + 1.0) <= 1e-6
          and abs(rb.b - 2.0) <= 1e-6
          and marks.kappa == 0
          and abs(marks.c_tilde - 0.5 * (-1.0 + roots[1])) <= 1e-6
          and k_op.codim == 0
          and abs(delta6 - 1.0 / 14.0) <= 1e-6)
    report(4, ok, f"eig gap {eig_gap:.2e} <= 1e-9; c = {marks.c}; "
                  f"b_min = {rb.b}; kappa = {marks.kappa} at "
                  f"c~ = {marks.c_tilde:.4f}; codim = {k_op.codim}; "
                  f"delta(6) = {delta6:.6f}")


def test_criterion_5_invariant_subspaces():
    rng = np.random.default_rng(42)
    checks = selftest.subspace_suite(rng, count=300)
    by_name = {c.name.split("/")[-1]: c for c in checks}
    needed = ("codim-kappa", "gram-bounds", "delta-soundness")
    ok = all(by_name[k].status == "pass" for k in needed)
    detail = "; ".join(
        f"{k}: {by_name[k].outputs.get('failures', 0)} failures"
        for k in needed)
    report(5, ok, f"300 random instances; {detail}")


def test_criterion_6_soq_suite():
    rng = np.random.default_rng(42)
    start = time.monotonic()
    checks = selftest.soq_suite(rng, discretize(constant_profile(), 64),
                                count=100)
    elapsed = time.monotonic() - start
    out = checks[0].outputs
    ok = (checks[0].status == "pass" and elapsed < 120.0
          and out["misses"] == 0 and out["admitted"] > 0
          and out["mhd_admitted"] > 0)
    report(6, ok, f"{out['admitted']} admitted points "
                  f"({out['mhd_admitted']} from the N=64 discretization, "
                  f"trial dim 20), {out['misses']} misses, "
                  f"{elapsed:.1f}s < 120s")


def test_criterion_7_mhd_constants():
    profile = constant_profile()
    a, b, c = constants(profile)
    exact = (abs(a - 2.5) <= 1e-12 and abs(b) <= 1e-12
             and abs(c - (2.0 + np.sqrt(2.0))) <= 1e-12)

    disc = discretize(profile, 128)
    spec_a = hermitian_eig(disc.block.A).eigenvalues
    eig_ok = all(
        abs(spec_a[n - 1] - (2 * np.pi ** 2 * n ** 2 + 2)) /
        (2 * np.pi ** 2 * n ** 2 + 2) <= 0.02
        for n in (1, 2, 3))

    marks = disc.block.landmarks
    spec_c = hermitian_eig(disc.block.C).eigenvalues
    rb = RelativeBound(a, b)
    slack = 10.0 / disc.N
    rep = dist_bound(marks.lambda_above_c, spec_a, spec_c, rb)
    worst = float(np.max((rep.dist_to_A - rep.bound)
                         / np.maximum(1.0, rep.bound)))
    bound_ok = bool(rep.applies.all()) and worst <= slack
    ok = exact and eig_ok and bound_ok
    report(7, ok, f"a = {a}, b = {b}, c = {c:.15f} exact to 1e-12; "
                  f"A-eigenvalues within 2% for n <= 3; distance bound "
                  f"excess {worst:.3e} within 10/N = {slack:.4f}")


def test_criterion_8_mhd_decay_and_bari():
    profile = constant_profile()
    a, b, c = constants(profile)
    rb = RelativeBound(a, b)
    disc = discretize(profile, 128)
    marks = disc.block.landmarks

    decay = projection_decay(disc.block, 8, rb=rb)
    norms = [r.proj_diff_norm for r in decay.records]
    decreasing = all(norms[i + 1] < norms[i] for i in range(7))
    bound_ok = all(r.proj_diff_norm <= r.bound + 1e-9
                   for r in decay.records if r.delta < 1.0)
    effective = sum(1 for r in decay.records if r.delta < 1.0)

    terms = np.array([r.term for r in decay.records])
    spec_a = hermitian_eig(disc.block.A).eigenvalues
    model = 1.0 / np.diff(spec_a)[marks.kappa:marks.kappa + 8] ** 2
    quotients = [(terms[n + 1] / terms[n]) / (model[n + 1] / model[n])
                 for n in range(7)]
    ratio_ok = all(1.0 / 3.0 <= q <= 3.0 for q in quotients)

    ok = decreasing and bound_ok and ratio_ok and effective == 8
    report(8, ok, f"norms strictly decreasing over n = 1..8; all 8 within "
                  f"the explicit bound (deltas all < 1); Bari increment "
                  f"quotients vs 1/gap² in [{min(quotients):.2f}, "
                  f"{max(quotients):.2f}] ⊂ [1/3, 3]")


def test_criterion_9_selftest_determinism(selftest_42_runs):
    (code_a, a), (code_b, b) = selftest_42_runs
    identical = a.read_bytes() == b.read_bytes()
    ok = identical and code_a == code_b == 0
    report(9, ok, f"two runs with --seed 42: byte-identical = {identical}, "
                  f"exit codes ({code_a}, {code_b})")
