import numpy as np
import pytest

from specblock import (
    ArgumentError,
    BlockOperatorMatrix,
    GraphSubspace,
    HypothesisError,
    Interval,
    NotAGraphError,
    RelativeBound,
    angular_operator,
    assemble,
    delta_condition,
    graph_test,
    hermitian_eig,
    landmarks,
    operator_norm,
    shifted_matrix,
    spectral_subspace,
)
from specblock.selftest import random_block

from oracles import cubic_fixture_roots

RB = RelativeBound(0.0, 2.0)


def decoupled_block():
    return BlockOperatorMatrix(A=np.diag([2.0, 10.0]), B=np.zeros((2, 1)),
                               C=[[-1.0]])


class TestSpectralSubspace:
    def test_decoupled_graph_with_zero_k(self):
        sub = spectral_subspace(decoupled_block(), 0.5)
        assert sub.dim == 2
        assert np.allclose(np.abs(sub.basis_first), np.eye(2), atol=1e-12)
        assert np.allclose(sub.basis_second, 0.0, atol=1e-12)

    def test_cubic_fixture_dims(self, m3):
        roots = cubic_fixture_roots()
        sub = spectral_subspace(m3, 0.645)
        assert sub.dim == 2
        sub6 = spectral_subspace(m3, 6.0)
        assert sub6.dim == 1
        # the surviving eigenvector belongs to the top eigenvalue
        full = assemble(m3)
        w = sub6.stacked()[:, 0]
        rayleigh = float(np.real(w.conj() @ (full @ w)))
        assert rayleigh == pytest.approx(roots[2], abs=1e-9)

    def test_boundary_alpha_rejected(self, m3):
        lam1 = cubic_fixture_roots()[1]
        with pytest.raises(ArgumentError):
            spectral_subspace(m3, lam1)


class TestGraphTest:
    def test_decoupled_sigma_min_is_one(self):
        sub = spectral_subspace(decoupled_block(), 0.5)
        rep = graph_test(sub)
        assert rep.verdict == "graph"
        assert rep.sigma_min == pytest.approx(1.0, abs=1e-12)

    def test_pure_second_component_is_not_a_graph(self):
        sub = GraphSubspace(basis_first=np.zeros((2, 1), dtype=complex),
                            basis_second=np.array([[1.0], [0.0]], dtype=complex))
        rep = graph_test(sub)
        assert rep.verdict == "not-graph"
        assert rep.sigma_min == 0.0

    def test_cubic_fixture_is_graph(self, m3):
        rep = graph_test(spectral_subspace(m3, 0.645))
        assert rep.verdict == "graph"

    def test_empty_subspace_is_vacuous_graph(self, m3):
        top = cubic_fixture_roots()[2] + 1.0
        rep = graph_test(spectral_subspace(m3, top))
        assert rep.verdict == "graph"
        assert rep.sigma_min == np.inf


class TestAngularOperator:
    def test_decoupled_zero_operator(self):
        sub = spectral_subspace(decoupled_block(), 0.5)
        k = angular_operator(sub)
        assert k.norm == pytest.approx(0.0, abs=1e-12)
        assert k.codim == 0
        assert np.allclose(k.domain_projector, np.eye(2), atol=1e-10)

    def test_decoupled_partial_domain(self):
        sub = spectral_subspace(decoupled_block(), 5.0)
        k = angular_operator(sub)
        assert k.codim == 1
        assert k.norm == pytest.approx(0.0, abs=1e-12)

    def test_cubic_fixture_full_domain(self, m3):
        sub = spectral_subspace(m3, 0.645)
        k = angular_operator(sub)
        assert k.K.shape == (1, 2)
        assert k.codim == 0
        # graph property: V = K U on the basis columns
        assert operator_norm(k.K @ sub.basis_first - sub.basis_second) <= 1e-8

    def test_cubic_fixture_codim_one(self, m3):
        k = angular_operator(spectral_subspace(m3, 6.0))
        assert k.codim == 1

    def test_not_a_graph_raises(self):
        sub = GraphSubspace(basis_first=np.zeros((2, 1), dtype=complex),
                            basis_second=np.array([[1.0], [0.0]], dtype=complex))
        with pytest.raises(NotAGraphError):
            angular_operator(sub)


class TestDeltaCondition:
    def test_cubic_fixture_at_six(self):
        delta = delta_condition(6.0, -1.0, [2.0, 10.0], RB)
        assert delta == pytest.approx(1.0 / 14.0, abs=1e-12)

    def test_decoupled_zero(self):
        assert delta_condition(6.0, -1.0, [2.0, 10.0],
                               RelativeBound(0.0, 0.0)) == 0.0

    def test_midpoint_choice_from_pair_windows(self):
        # alpha = (alpha1+ + beta2+)/2 for the cubic fixture's pair {2, 10}
        alpha1p = 0.5 + np.sqrt(4.25)
        beta2p = 4.5 + np.sqrt(28.25)
        alpha = 0.5 * (alpha1p + beta2p)
        delta = delta_condition(alpha, -1.0, [2.0, 10.0], RB)
        dist = min(alpha - 2.0, 10.0 - alpha)
        assert delta == pytest.approx(2.0 / (dist * (alpha + 1.0)), abs=1e-12)
        assert delta < 0.5

    def test_hypothesis_errors(self):
        with pytest.raises(HypothesisError):
            delta_condition(-2.0, -1.0, [2.0], RB)
        with pytest.raises(HypothesisError):
            delta_condition(2.0, -1.0, [2.0, 10.0], RB)


class TestShiftedMatrix:
    def test_empty_shift_rejected(self, m3):
        with pytest.raises(ArgumentError):
            shifted_matrix(m3, 2.0)

    def test_diagonal_projector(self, m3):
        shifted = shifted_matrix(m3, 5.0)
        assert np.allclose(shifted.A, np.diag([5.0, 10.0]), atol=1e-12)
        assert np.array_equal(shifted.B, m3.B)

    def test_gap_above_c_is_resolvent(self, m3):
        # spectrum of the shifted assembly avoids (c, 5): the Schur
        # complement is strictly positive there
        shifted = shifted_matrix(m3, 5.0)
        spec = hermitian_eig(assemble(shifted)).eigenvalues
        assert not np.any((spec > -1.0 + 1e-9) & (spec < 5.0 - 1e-9))

    def test_bottom_never_drops(self, rng):
        for _ in range(30):
            block = random_block(rng)
            spec_a = hermitian_eig(block.A).eigenvalues
            mu = float(spec_a[0]) + 1.0
            shifted = shifted_matrix(block, mu)
            tilde_a = hermitian_eig(shifted.A).eigenvalues
            assert tilde_a[0] >= mu - 1e-9 * max(1.0, abs(mu))
            before = hermitian_eig(assemble(block)).eigenvalues[0]
            after = hermitian_eig(assemble(shifted)).eigenvalues[0]
            assert after >= before - 1e-9 * max(1.0, abs(before))
