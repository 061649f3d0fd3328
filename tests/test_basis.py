import numpy as np
import pytest

from specblock import (
    ArgumentError,
    BlockOperatorMatrix,
    DegenerateGapError,
    PairingError,
    RelativeBound,
    aligned_term,
    angular_operator,
    bari_sum,
    landmarks,
    projection_decay,
    riesz_check,
    spectral_subspace,
)
from specblock.basis import BariReport, DecayRecord, DecayReport
from specblock.selftest import separated_block
from specblock.tolerance import SLACK

from oracles import cubic_fixture_roots, eigvec3

M3_FULL = np.array([[2.0, 0.0, 1.0], [0.0, 10.0, 1.0], [1.0, 1.0, -1.0]])


def decoupled_block():
    return BlockOperatorMatrix(A=np.diag([2.0, 10.0]), B=np.zeros((2, 1)),
                               C=[[-1.0]])


class TestRieszCheck:
    def test_decoupled_identity_gram(self):
        block = decoupled_block()
        sub = spectral_subspace(block, 0.5)
        k = angular_operator(sub)
        rep = riesz_check(block, sub, k)
        assert rep.gram_min == pytest.approx(1.0, abs=1e-12)
        assert rep.gram_max == pytest.approx(1.0, abs=1e-12)
        assert rep.riesz_lower == pytest.approx(1.0, abs=1e-12)
        assert rep.passed

    def test_cubic_fixture_frame_bounds(self, m3):
        marks = landmarks(m3)
        sub = spectral_subspace(m3, marks.c_tilde)
        k = angular_operator(sub)
        rep = riesz_check(m3, sub, k)
        assert rep.passed
        assert rep.gram_min >= 1.0 / (1.0 + k.norm ** 2) - 1e-8
        assert rep.gram_max <= 1.0 + 1e-8

    def test_rejects_non_eigenvector_columns(self, m3):
        from specblock import GraphSubspace, Interval
        q, _ = np.linalg.qr(np.arange(6.0).reshape(3, 2) + 1.0)
        fake = GraphSubspace(basis_first=q[:2].astype(complex),
                             basis_second=q[2:].astype(complex))
        k = angular_operator(spectral_subspace(m3, 0.645))
        with pytest.raises(ArgumentError):
            riesz_check(m3, fake, k)


class TestProjectionDecay:
    def test_decoupled_difference_vanishes(self):
        block = decoupled_block()
        marks = landmarks(block)
        rep = projection_decay(block, marks, 2, rb=RelativeBound(0.0, 0.0))
        for rec in rep.records:
            assert rec.proj_diff_norm <= 1e-10
            assert rec.delta == pytest.approx(0.0, abs=1e-12)

    def test_cubic_fixture_within_bound(self, m3):
        marks = landmarks(m3)
        rep = projection_decay(m3, marks, 2, rb=RelativeBound(0.0, 2.0))
        for rec in rep.records:
            assert np.isfinite(rec.proj_diff_norm)
            if rec.delta < 1.0 and rec.a_points_inside == 1:
                assert rec.proj_diff_norm <= rec.bound + 1e-9

    def test_projectors_match_direct_computation(self, m3):
        # rank-1 difference computed from oracle eigenvectors
        marks = landmarks(m3)
        rep = projection_decay(m3, marks, 1, rb=RelativeBound(0.0, 2.0))
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
        marks = landmarks(block)
        with pytest.raises(DegenerateGapError):
            projection_decay(block, marks, 1, rb=RelativeBound(0.0, 0.0))

    def test_range_validation(self, m3):
        marks = landmarks(m3)
        with pytest.raises(ArgumentError):
            projection_decay(m3, marks, 5, rb=RelativeBound(0.0, 2.0))


class TestAlignedTerm:
    def test_phase_invariance(self, rng):
        proj = np.zeros((3, 3), dtype=complex)
        proj[0, 0] = 1.0
        x = rng.normal(size=3) + 1j * rng.normal(size=3)
        x = x / np.linalg.norm(x)
        base, _ = aligned_term(x, proj)
        for theta in rng.uniform(0.0, 2 * np.pi, 5):
            rotated, _ = aligned_term(np.exp(1j * theta) * x, proj)
            assert rotated == pytest.approx(base, abs=1e-12)

    def test_orthogonal_projection_fails_pairing(self):
        proj = np.zeros((2, 2), dtype=complex)
        proj[0, 0] = 1.0
        with pytest.raises(PairingError):
            aligned_term(np.array([0.0, 1.0], dtype=complex), proj)


class TestBariSum:
    def test_decoupled_all_terms_vanish(self):
        block = decoupled_block()
        marks = landmarks(block)
        rep = bari_sum(block, marks, 2)
        assert np.allclose([r.term for r in rep.records], 0.0, atol=1e-20)
        assert rep.gap_sum == pytest.approx(1.0 / 64.0, abs=1e-12)

    def test_cubic_fixture_terms_match_direct_projector_arithmetic(self, m3):
        marks = landmarks(m3)
        rep = bari_sum(m3, marks, 2)
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
            marks = landmarks(block)
            n = min(3, int(marks.lambda_above_c.size), block.n1 - marks.kappa)
            if n < 1:
                continue
            rep = bari_sum(block, marks, n)
            assert np.all(np.diff(rep.partial_sums) >= -1e-15)

    def test_terms_bounded_by_projector_distance(self, m3):
        # ||y - x|| <= 2 ||(F - E) x|| <= 2 ||E - F||
        marks = landmarks(m3)
        decay = projection_decay(m3, marks, 2, rb=RelativeBound(0.0, 2.0))
        bari = bari_sum(m3, marks, 2)
        for d_rec, b_rec in zip(decay.records, bari.records):
            assert b_rec.term <= (2.0 * d_rec.proj_diff_norm) ** 2 + 1e-9


def decay_report(*records):
    """DecayReport from (norm, delta, bound) triples."""
    return DecayReport(records=tuple(
        DecayRecord(n=n, lam=0.0, mu=0.0, gamma=1.0, delta=delta,
                    proj_diff_norm=norm, bound=bound, circle_dist_a=1.0,
                    a_points_inside=1)
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
        rep = decay_report(*[(x, 0.5, 1.0) for x in norms])
        assert rep.decreasing is decreasing

    @pytest.mark.parametrize("record, within", [
        ((1.0, 0.5, 1.0), True),
        ((1.0 + 0.5 * SLACK, 0.5, 1.0), True),
        ((1.0 + 2.0 * SLACK, 0.5, 1.0), False),
        ((5.0, 1.0, float("inf")), True),  # delta >= 1: no bound to keep
        ((5.0, 2.0, 0.0), True),
    ])
    def test_within_bound(self, record, within):
        assert decay_report(record).records[0].within_bound is within
        assert decay_report((0.0, 0.5, 1.0), record).within_bound is within

    @pytest.mark.parametrize("dip, nondecreasing", [
        (0.0, True), (-1e-16, True), (-1e-14, False)])
    def test_bari_nondecreasing(self, dip, nondecreasing):
        rep = BariReport(records=(), partial_sums=np.cumsum([0.2, 0.1, dip]),
                         gap_sum=0.0, converged=False)
        assert rep.nondecreasing is nondecreasing
