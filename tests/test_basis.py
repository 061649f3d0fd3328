import warnings
from dataclasses import replace

import numpy as np
import pytest

from specblock import (
    ArgumentError,
    BlockOperatorMatrix,
    DegenerateGapError,
    PairingError,
    RelativeBound,
    aligned_term,
    bari_sum,
    projection_decay,
    riesz_check,
)
from pathlib import Path

import mpmath

from specblock.basis import DecayRecord, DecayReport, projector_distance
from specblock.blocks import assemble, best_relative_bound, schur_complement
from specblock import checks, mhd
from specblock.basis import BariRecord, BariReport
from specblock.checks import bari_bounds, decay_bounds
from specblock.linalg import Interval, hermitian_eig
from specblock.mhd import discretize, profile_from_functions
from specblock.problems import load_problem
from specblock import selftest
from specblock.selftest import separated_block
from specblock.report import PASS, judge
from specblock.tolerance import EIGVEC_RESIDUAL_REL, SLACK

from oracles import (
    cubic_fixture_roots,
    eigvec3,
    riccati_residual,
    rotate_last_column,
)

M3_FULL = np.array([[2.0, 0.0, 1.0], [0.0, 10.0, 1.0], [1.0, 1.0, -1.0]])


def oracle_residual(block, sub):
    return riccati_residual(block.A, block.B, block.C, sub.basis_first,
                            sub.basis_second)


def decoupled_block():
    return BlockOperatorMatrix(A=np.diag([2.0, 10.0]), B=np.zeros((2, 1)),
                               C=[[-1.0]])


class TestRieszCheck:
    def test_decoupled_identity_gram(self):
        block = decoupled_block()
        check, = checks.riesz(block)
        assert check.status == PASS
        assert check.outputs["gram_min"] == pytest.approx(1.0, abs=1e-12)
        assert check.outputs["gram_max"] == pytest.approx(1.0, abs=1e-12)
        assert check.outputs["riesz_lower"] == pytest.approx(1.0, abs=1e-12)
        assert check.outputs["riccati_residual"] == 0.0

    def test_cubic_fixture_frame_bounds(self, m3):
        check, = checks.riesz(m3)
        out = check.outputs
        assert check.status == PASS
        assert check.tolerances == {"eigvec_residual_rel": EIGVEC_RESIDUAL_REL}
        # ||K||^2 = 1/s_min^2 - 1 for orthonormal [U; V]: the lower frame
        # bound is attained, and s_max <= 1
        assert out["gram_min"] == pytest.approx(out["riesz_lower"], rel=1e-12)
        assert out["gram_max"] <= 1.0 + 1e-12
        assert out["riccati_residual"] <= 1e-14
        assert out["riccati_residual"] == m3.riccati_residual

    def test_rejects_non_eigenvector_columns(self, m3):
        from specblock import GraphSubspace
        q, _ = np.linalg.qr(np.arange(6.0).reshape(3, 2) + 1.0)
        fake = GraphSubspace(basis_first=q[:2].astype(complex),
                             basis_second=q[2:].astype(complex))
        assert riesz_check(m3, fake) == pytest.approx(
            oracle_residual(m3, fake), rel=1e-9)
        assert riesz_check(m3, fake) > 1e-2

    @pytest.mark.parametrize("kind", ["imaginary-coupling", "real-coupling",
                                      "complex"])
    def test_perturbed_or_low_columns_rejected(self, kind, m3):
        # B = iR with real A and C (the MHD coupling before the similarity
        # to real form), B = R, and a complex block
        from specblock import GraphSubspace
        if kind == "imaginary-coupling":
            profile = profile_from_functions(lambda x: 1.0 + x, 1.0, 1.0, 1.0,
                                             1.0, g=0.3, grid_n=17)
            real = discretize(profile, 16).block
            block = BlockOperatorMatrix(A=real.A, B=-1j * real.B, C=real.C)
        elif kind == "real-coupling":
            block = m3
        else:
            block, _, _ = separated_block(np.random.default_rng(5))
        assert (block.eig_m.vectors.dtype == np.float64) == (
            kind == "real-coupling")
        dec = block.eig_m
        above = np.nonzero(dec.eigenvalues > block.landmarks.c_tilde)[0]

        def subspace(cols):
            return GraphSubspace(basis_first=cols[:block.n1],
                                 basis_second=cols[block.n1:])

        exact = subspace(dec.vectors[:, above])
        assert riesz_check(block, exact) <= 1e-14
        assert oracle_residual(block, exact) <= 1e-14
        j = above.size - 1
        for weight in (1e-2, 1.0):  # perturbed, then half a low eigenvector
            cols = dec.vectors[:, above]
            cols[:, j] += weight * dec.vectors[:, 0]
            cols[:, j] /= np.linalg.norm(cols[:, j])
            sub = subspace(cols)
            assert riesz_check(block, sub) > EIGVEC_RESIDUAL_REL
            assert riesz_check(block, sub) == pytest.approx(
                oracle_residual(block, sub), rel=1e-6)

    def test_zero_block_is_invariant(self):
        from specblock import GraphSubspace
        zero = BlockOperatorMatrix(A=np.zeros((2, 2)), B=np.zeros((2, 1)),
                                   C=np.zeros((1, 1)))
        sub = GraphSubspace(basis_first=np.eye(2, dtype=complex),
                            basis_second=np.zeros((1, 2), dtype=complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert riesz_check(zero, sub) == 0.0

    @pytest.mark.parametrize("source", ["golden", "mhd-64", *range(4)])
    def test_residual_matches_the_direct_riccati_oracle(self, source):
        # exact, and rotated off invariance by 1e-6 and 1e-3
        from specblock import GraphSubspace
        rng = np.random.default_rng(7)
        if source == "golden":
            block = golden_block()
        elif source == "mhd-64":
            profile = profile_from_functions(
                lambda x: 1.0 + x, lambda x: 1.0 + 0.5 * np.sin(np.pi * x),
                1.0, 1.0, 1.0, g=0.3, grid_n=65)
            block = discretize(profile, 64).block
        else:
            block = selftest.random_block(np.random.default_rng(source))
        sub = block.graph_subspace
        assert block.riccati_residual <= 1e-14
        assert oracle_residual(block, sub) <= 1e-14
        for angle in (1e-6, 1e-3):
            w = rotate_last_column(sub.stacked(), angle, rng)
            turned = GraphSubspace(basis_first=w[:block.n1],
                                   basis_second=w[block.n1:])
            assert riesz_check(block, turned) == pytest.approx(
                oracle_residual(block, turned), rel=1e-6)


class TestProjectionDecay:
    def test_decoupled_difference_vanishes(self):
        block = decoupled_block()
        rep = projection_decay(block, 2, rb=RelativeBound(0.0, 0.0))
        for rec in rep.records:
            assert rec.proj_diff_norm <= 1e-10
            assert rec.delta == pytest.approx(0.0, abs=1e-12)

    def test_cubic_fixture_within_bound(self, m3):
        rep = projection_decay(m3, 2, rb=RelativeBound(0.0, 2.0))
        for rec in rep.records:
            assert np.isfinite(rec.proj_diff_norm)
            if rec.delta < 1.0 and rec.a_points_inside == 1:
                assert rec.proj_diff_norm <= rec.bound + 1e-9

    def test_projectors_match_direct_computation(self, m3):
        # rank-1 difference computed from oracle eigenvectors
        rep = projection_decay(m3, 1, rb=RelativeBound(0.0, 2.0))
        rec = rep.records[0]
        assert rec.mu == pytest.approx(2.0, abs=1e-12)
        lam1 = cubic_fixture_roots()[1]
        assert rec.lam == pytest.approx(lam1, abs=1e-9)
        # gamma is half the distance to the nearest other eigenvalue
        roots = cubic_fixture_roots()
        gaps = [abs(lam1 - roots[0]), abs(roots[2] - lam1)]
        assert rec.gamma == pytest.approx(0.5 * min(gaps), abs=1e-9)

    def test_degenerate_gap_raises(self):
        block = BlockOperatorMatrix(A=np.diag([5.0, 5.0]),
                                    B=np.zeros((2, 1)), C=[[1.0]])
        with pytest.raises(DegenerateGapError):
            projection_decay(block, 1, rb=RelativeBound(0.0, 0.0))

    def test_range_validation(self, m3):
        with pytest.raises(ArgumentError):
            projection_decay(m3, 5, rb=RelativeBound(0.0, 2.0))


def dense_projector_distance(u, v):
    """The former dense rule: max |eigvalsh(E - F)| for E = UU*, F = VV*."""
    diff = u @ u.conj().T - v @ v.conj().T
    return float(np.max(np.abs(np.linalg.eigvalsh(diff))))


def random_isometry(rng, n, r):
    z = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    return np.linalg.qr(z)[0]


class TestProjectorDistance:
    """‖E - F‖ from the bases of E and F against the dense eigensolve."""

    @pytest.mark.parametrize("n, ranks", [
        pytest.param(n, ranks, id=f"n{n}-rank{ranks[0]}x{ranks[1]}")
        for n in (1, 2, 5, 40)
        for ranks in ((1, 1), (2, 2), (1, 2), (2, 0)) if max(ranks) <= n])
    def test_matches_the_dense_norm(self, rng, n, ranks):
        for _ in range(5):
            u = random_isometry(rng, n, ranks[0])
            v = random_isometry(rng, n, ranks[1])
            got = projector_distance(u, v)
            if ranks[0] != ranks[1]:
                assert got == 1.0
                assert dense_projector_distance(u, v) == pytest.approx(
                    1.0, abs=1e-13)
            else:
                assert abs(got - dense_projector_distance(u, v)) <= 1e-13

    @pytest.mark.parametrize("n", [2, 5, 40])
    def test_nearby_subspaces(self, rng, n):
        u = random_isometry(rng, n, 2)
        for eps in (1e-2, 1e-5):
            v = np.linalg.qr(u + eps * random_isometry(rng, n, 2))[0]
            assert abs(projector_distance(u, v)
                       - dense_projector_distance(u, v)) <= 1e-13

    def test_small_angle_against_mpmath(self):
        # u and v at the angle theta: ‖E - F‖ = sin(theta) exactly.
        theta = 1e-7
        u = np.array([[1.0], [0.0], [0.0]], dtype=complex)
        v = np.array([[np.cos(theta)], [1j * np.sin(theta)], [0.0]])
        with mpmath.workdps(50):
            uu = mpmath.matrix([[1], [0], [0]])
            vv = mpmath.matrix([[mpmath.mpf(float(v[0, 0].real))],
                                [mpmath.mpc(0, float(v[1, 0].imag))], [0]])
            vv = vv / mpmath.norm(vv)
            overlap = sum(mpmath.conj(vv[i]) * uu[i] for i in range(3))
            want = mpmath.norm(uu - vv * overlap)
            want = float(want)
        got = projector_distance(u, v)
        assert abs(got - want) <= 1e-15 * want
        assert abs(dense_projector_distance(u, v) - want) > abs(got - want)

    def test_empty_subspaces_coincide(self):
        assert projector_distance(np.zeros((3, 0)), np.zeros((3, 0))) == 0.0


def reference_decay_norms(block, marks, n_max):
    """proj_diff_norm of each rung from dense projectors E and F, with F the
    spectral projector of the Schur complement S(lambda_n) on
    (-gamma_n, gamma_n), and the number of eigenvalues of S(lambda_n) in
    that window."""
    norms, counts = [], []
    spec_m = block.eig_m.eigenvalues
    for n in range(1, n_max + 1):
        lam = float(marks.lambda_above_c[n - 1])
        rest = np.delete(spec_m, np.argmin(np.abs(spec_m - lam)))
        gamma = 0.5 * float(np.min(np.abs(rest - lam)))
        dec = hermitian_eig(schur_complement(block, lam))
        v = dec.vectors[:, dec.window_mask(
            Interval(-gamma, gamma, open_lo=True, open_hi=True))]
        labels = block.a_clusters
        u = block.eig_a.vectors[:, labels == labels[marks.kappa + n - 1]]
        norms.append(dense_projector_distance(u, v))
        counts.append(v.shape[1])
    return norms, counts


def random_hermitian(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (z + z.conj().T)


def random_complex_block(n1=10, n2=6, seed=97):
    """Dense complex A, B and C, with sigma(A) spread over [0, 8 n1] and C
    below it."""
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, n1) + np.diag(np.linspace(0.0, 8.0 * n1, n1))
    c = random_hermitian(rng, n2) - 6.0 * np.eye(n2)
    b = rng.standard_normal((n1, n2)) + 1j * rng.standard_normal((n1, n2))
    return BlockOperatorMatrix(A=a, B=b, C=c)


def golden_block():
    path = Path(__file__).parent / "data" / "golden_block.json"
    return load_problem(path).block


def mhd_block():
    profile = profile_from_functions(lambda x: 1.0 + x,
                                     lambda x: 1.0 + 0.3 * np.sin(np.pi * x),
                                     1.0, 1.0, 1.0, g=0.3, grid_n=65)
    return discretize(profile, 64).block


@pytest.mark.parametrize("make_block",
                         [golden_block, mhd_block, random_complex_block],
                         ids=["golden", "mhd-64", "random-complex"])
def test_projection_decay_matches_dense_projectors(make_block):
    # F_n is read from eig(M); the reference solves S(lambda_n) and keeps
    # its eigenvectors in (-gamma_n, gamma_n), which must be exactly one.
    block = make_block()
    marks = block.landmarks
    n_max = min(8, marks.rungs)
    rep = projection_decay(block, n_max, rb=best_relative_bound(block))
    want, counts = reference_decay_norms(block, marks, n_max)
    assert len(rep.records) == n_max >= 4
    assert counts == [1] * n_max
    for got, ref in zip(rep.norms, want):
        assert abs(got - ref) <= 1e-12


def test_projection_decay_against_mpmath():
    # ‖E - F_n‖ at 50 digits from the float entries: eigenvectors of A and
    # of M by mp.eighe, F_n onto the first component of M's eigenvector.
    block = random_complex_block(n1=3, n2=2)
    marks = block.landmarks
    n_max = marks.rungs
    rep = projection_decay(block, n_max, rb=best_relative_bound(block))
    assert n_max >= 2

    def mp_matrix(arr):
        return mpmath.matrix([[mpmath.mpc(float(z.real), float(z.imag))
                               for z in row] for row in arr])

    with mpmath.workdps(50):
        _, q_a = mpmath.eighe(mp_matrix(block.A))
        _, q_m = mpmath.eighe(mp_matrix(assemble(block)))
        for n, got in enumerate(rep.norms, start=1):
            u = q_a[:, marks.kappa + n - 1]
            x = q_m[:block.n1, marks.first_above + n - 1]
            x = x / mpmath.norm(x)
            overlap = sum(mpmath.conj(x[i]) * u[i] for i in range(block.n1))
            want = float(mpmath.norm(u - x * overlap))
            assert abs(got - want) <= 1e-13


def dense_aligned_term(x, cols):
    """The former dense rule: y = Ex/‖Ex‖ with the n x n projector E = UU*."""
    px = (cols @ cols.conj().T) @ x
    y = px / np.linalg.norm(px)
    return float(np.linalg.norm(y - x) ** 2)


def near_unit_vector(rng, cols, eps):
    """A unit vector at distance about eps from its aligned projection onto
    the span of ``cols``."""
    n, r = cols.shape
    inside = cols @ (rng.standard_normal(r) + 1j * rng.standard_normal(r))
    off = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    off -= cols @ (cols.conj().T @ off)
    x = inside / np.linalg.norm(inside) + eps * off / np.linalg.norm(off)
    return x / np.linalg.norm(x)


def mp_aligned_distance(x, cols):
    """‖y - x‖ for y = Uc/‖c‖, c = U*x, at 50 digits from the float data."""
    with mpmath.workdps(50):
        u = mpmath.matrix([[mpmath.mpc(float(z.real), float(z.imag))
                            for z in row] for row in cols])
        xx = mpmath.matrix([mpmath.mpc(float(z.real), float(z.imag))
                            for z in x])
        c = u.H * xx
        y = u * c / mpmath.norm(c)
        return float(mpmath.norm(y - xx))


class TestAlignedTerm:
    def test_phase_invariance(self, rng):
        cols = np.eye(3, dtype=complex)[:, [0]]
        x = rng.normal(size=3) + 1j * rng.normal(size=3)
        x = x / np.linalg.norm(x)
        base, _ = aligned_term(x, cols)
        for theta in rng.uniform(0.0, 2 * np.pi, 5):
            rotated, _ = aligned_term(np.exp(1j * theta) * x, cols)
            assert rotated == pytest.approx(base, abs=1e-12)

    def test_orthogonal_projection_fails_pairing(self):
        cols = np.eye(2, dtype=complex)[:, [0]]
        with pytest.raises(PairingError):
            aligned_term(np.array([0.0, 1.0], dtype=complex), cols)

    @pytest.mark.parametrize("rank", [1, 2, 4])
    def test_matches_the_dense_projector(self, rng, rank):
        for n in (rank, rank + 1, 12):
            cols = random_isometry(rng, n, rank)
            for eps in (1.0, 1e-3, 1e-6):
                x = near_unit_vector(rng, cols, eps)
                term, overlap = aligned_term(x, cols)
                want = dense_aligned_term(x, cols)
                assert abs(np.sqrt(term) - np.sqrt(want)) <= 1e-14
                assert overlap == pytest.approx(
                    np.linalg.norm(cols @ (cols.conj().T @ x)), abs=1e-15)

    @pytest.mark.parametrize("eps", [1e-9, 1e-12])
    def test_small_distance_against_mpmath(self, rng, eps):
        # 2 - 2‖c‖ equals ‖y - x‖² in exact arithmetic, but ‖c‖ rounds to
        # within 1.1e-16 of 1 and the small difference is lost.
        for rank in (1, 3):
            cols = random_isometry(rng, 8, rank)
            x = near_unit_vector(rng, cols, eps)
            want = mp_aligned_distance(x, cols)
            assert want == pytest.approx(eps, rel=0.1)
            term, overlap = aligned_term(x, cols)
            assert abs(np.sqrt(term) - want) <= 1e-15
            shortcut = np.sqrt(max(2.0 - 2.0 * overlap, 0.0))
            assert abs(shortcut - want) > 1e-15


class TestBariSum:
    def test_decoupled_all_terms_vanish(self):
        block = decoupled_block()
        rep = bari_sum(block, 2)
        assert np.allclose([r.term for r in rep.records], 0.0, atol=1e-20)
        assert rep.gap_sum == pytest.approx(1.0 / 64.0, abs=1e-12)

    def test_cubic_fixture_terms_match_direct_projector_arithmetic(self, m3):
        rep = bari_sum(m3, 2)
        roots = cubic_fixture_roots()
        # A = diag(2, 10): eigenprojectors select single coordinates
        for rec, lam, coord in zip(rep.records, roots[1:], (0, 1)):
            vec = eigvec3(M3_FULL, lam)
            x = vec[:2]
            x = x / np.linalg.norm(x)
            # y = Ex/||Ex|| keeps the phase of x[coord]: the aligned distance
            # is (1 - |x_coord|)^2 plus the mass off the coordinate
            other = 1 - coord
            expected = (1.0 - abs(x[coord])) ** 2 + abs(x[other]) ** 2
            assert rec.term == pytest.approx(expected, abs=1e-9)

    def test_partial_sums_nondecreasing(self, rng):
        for _ in range(10):
            block, rb, _ = separated_block(rng)
            marks = block.landmarks
            n = min(3, int(marks.lambda_above_c.size), block.n1 - marks.kappa)
            if n < 1:
                continue
            rep = bari_sum(block, n)
            assert np.all(np.diff(rep.partial_sums) >= -1e-15)

    def test_terms_bounded_by_projector_distance(self, m3):
        # ||y - x|| <= 2 ||(F - E) x|| <= 2 ||E - F||
        decay = projection_decay(m3, 2, rb=RelativeBound(0.0, 2.0))
        bari = bari_sum(m3, 2)
        for d_rec, b_rec in zip(decay.records, bari.records):
            assert b_rec.term <= (2.0 * d_rec.proj_diff_norm) ** 2 + 1e-9


def dense_bari_terms(block, marks, n_max):
    """Bari terms from the former dense rule: the n1 x n1 eigenprojector of
    A's cluster applied to the normalized first component."""
    labels = block.a_clusters
    terms = []
    for n in range(1, n_max + 1):
        x = block.eig_m.vectors[:block.n1, marks.first_above + n - 1]
        x = x / np.linalg.norm(x)
        cols = block.eig_a.vectors[:, labels == labels[marks.kappa + n - 1]]
        terms.append(dense_aligned_term(x, cols))
    return terms


def random_complex_blocks():
    rng = np.random.default_rng(61)
    return [separated_block(rng)[0] for _ in range(12)]


@pytest.mark.parametrize("make_blocks", [
    lambda: [golden_block()], lambda: [mhd_block()], random_complex_blocks,
], ids=["golden", "mhd-64", "random-complex"])
def test_bari_terms_match_dense_projectors(make_blocks):
    checked = 0
    for block in make_blocks():
        marks = block.landmarks
        n_max = min(6, marks.rungs)
        rep = bari_sum(block, n_max)
        want = dense_bari_terms(block, marks, n_max)
        for rec, ref in zip(rep.records, want):
            assert abs(np.sqrt(rec.term) - np.sqrt(ref)) <= 1e-13
            checked += 1
    assert checked >= 4


def decay_report(*records, inside=1):
    """DecayReport from (norm, delta, bound) triples, each circle holding
    ``inside`` points of sigma(A)."""
    return DecayReport(records=tuple(
        DecayRecord(n=n, lam=0.0, mu=0.0, gamma=1.0, delta=delta,
                    proj_diff_norm=norm, bound=bound, circle_dist_a=1.0,
                    a_points_inside=inside)
        for n, (norm, delta, bound) in enumerate(records, start=1)),
        m_constant=1.0)


class TestVerdictRules:
    @pytest.mark.parametrize("norms, decreasing", [
        ([3e-3, 2e-3, 1e-3], True),
        ([0.0, 0.0, 0.0], True),   # decoupled problem
        ([1e-3, 1e-3], False),
        ([1e-3, 2e-3], False),
    ])
    def test_decreasing(self, norms, decreasing):
        # mhd/projection-decay is basis/decay plus this finite-N rule
        check = mhd._projection_decay(judge("basis/decay", "", {},
                                            {"norms": norms}))
        assert (check.status == PASS) is decreasing

    @pytest.mark.parametrize("record, within", [
        ((1.0, 0.5, 1.0), True),
        ((1.0 + 0.5 * SLACK, 0.5, 1.0), True),
        ((1.0 + 2.0 * SLACK, 0.5, 1.0), False),
        ((5.0, 1.0, float("inf")), True),  # delta >= 1: no bound to keep
        ((5.0, 2.0, 0.0), True),
    ])
    def test_within_bound(self, record, within):
        for rep in (decay_report(record),
                    decay_report((0.0, 0.5, 1.0), record)):
            check = judge("basis/decay", "", {}, {},
                          slack=(SLACK, decay_bounds(rep)))
            assert (check.status == PASS) is within
            # an infinite bound bounds nothing, so it sets no margin
            assert check.margin is None or (check.margin >= 0.0) is within

    def test_decay_bound_needs_one_point_inside(self):
        # a circle around two points of sigma(A) claims nothing
        for inside in (0, 2):
            rep = decay_report((5.0, 0.5, 1.0), inside=inside)
            assert decay_bounds(rep) == [([], [], "<=", 1.0)]

    @pytest.mark.parametrize("term, delta, inside, within", [
        (1.0, 0.5, 1, True),                  # (2 * 0.5)^2 = 1
        (1.0 + 0.5 * SLACK, 0.5, 1, True),
        (1.0 + 2.0 * SLACK, 0.5, 1, False),
        (5.0, 1.0, 1, True),                  # delta >= 1 claims nothing
        (5.0, 0.5, 2, True),                  # two points inside: nothing
    ])
    def test_bari_terms(self, term, delta, inside, within):
        decay = decay_report((0.0, 0.0, 0.0), (0.1, delta, 0.5), inside=inside)
        bari = BariReport(records=(BariRecord(n=1, lam=0.0, mu=0.0, term=0.0),
                                   BariRecord(n=2, lam=0.0, mu=0.0, term=term)),
                          partial_sums=np.cumsum([0.0, term]), gap_sum=1.0,
                          converged=False)
        check = judge("basis/bari", "", {}, {},
                      slack=(SLACK, bari_bounds(decay, bari)))
        assert (check.status == PASS) is within
        assert check.margin is None or (check.margin >= 0.0) is within


GOLDEN_BLOCK = Path(__file__).parent / "data" / "golden_block.json"


def test_basis_bari_fails_when_a_term_exceeds_its_limit(monkeypatch):
    problem = load_problem(GOLDEN_BLOCK)
    block = problem.block
    rb = problem.rb or best_relative_bound(block)
    found = {c.name: c for c in checks.basis(block, rb, 8)}
    decay, bari = found["basis/decay"], found["basis/bari"]
    assert decay.outputs["claimed"] and bari.status == PASS
    assert bari.margin is not None and bari.margin >= 0.0
    n = decay.outputs["claimed"][0]
    limit = (2.0 * decay.outputs["bounds"][n - 1]) ** 2
    real = bari_sum(block, 8)

    def inflated(block, n_max):
        records = list(real.records)
        records[n - 1] = replace(records[n - 1], term=2.0 * limit)
        return replace(real, records=tuple(records))

    monkeypatch.setattr(checks, "bari_sum", inflated)
    failed = {c.name: c for c in checks.basis(block, rb, 8)}["basis/bari"]
    assert failed.status == "fail" and failed.margin < 0.0
