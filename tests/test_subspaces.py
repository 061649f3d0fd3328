from pathlib import Path

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
    operator_norm,
    shifted_matrix,
    spectral_subspace,
)
from specblock import checks
from specblock.blocks import best_relative_bound
from specblock.errors import LandmarkError, SingularShiftError
from specblock.linalg import _solver_input
from specblock.mhd import (
    BUILTIN_FIELDS,
    constant_profile,
    discretize,
    profile_from_functions,
)
from specblock.problems import load_problem
from specblock.selftest import random_block
from specblock.tolerance import GRAPH_TOL

from oracles import cubic_fixture_roots
from test_mhd import _bench_profile

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
        assert np.allclose(k.domain @ k.domain.conj().T, np.eye(2), atol=1e-10)

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

    def test_empty_subspace(self, m3):
        sub = spectral_subspace(m3, cubic_fixture_roots()[2] + 1.0)
        k = angular_operator(sub)
        assert k.K.shape == (1, 2)
        assert not k.K.any()
        assert k.norm == 0.0
        assert k.codim == 2
        assert k.domain.shape == (2, 0)

    def test_more_columns_than_the_first_block_raises(self, rng):
        # Three orthonormal columns in C^(2+1): the first block has rank 2.
        q = np.linalg.qr(rng.standard_normal((3, 3))
                         + 1j * rng.standard_normal((3, 3)))[0]
        sub = GraphSubspace(basis_first=q[:2], basis_second=q[2:])
        assert graph_test(sub).verdict == "not-graph"
        with pytest.raises(NotAGraphError,
                           match="first-block rank 2 < subspace dimension 3"):
            angular_operator(sub)

    def test_first_block_factored_once(self, monkeypatch):
        block = golden_block()
        sub = spectral_subspace(block, block.landmarks.c_tilde)
        u = _solver_input(sub.basis_first)
        seen = []
        original = np.linalg.svd

        def spy(a, *args, **kwargs):
            seen.append(np.array(a, copy=True))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        inner = getattr(np.linalg, "_linalg", None)
        if inner is not None:  # numpy.linalg.norm calls svd from in here
            monkeypatch.setattr(inner, "svd", spy)

        def factorings_of_u():
            return sum(x.shape == u.shape and np.array_equal(x, u)
                       for x in seen)

        graph_test(sub)
        angular_operator(sub)
        assert factorings_of_u() == 1
        checks.angular(block, best_relative_bound(block), None)
        assert factorings_of_u() == 2
        assert len(seen) == 2  # U once per subspace object, nothing else


def former_angular_operator(sub):
    """K, ‖K‖ and the domain projector from the former dense rule: the
    pseudo-inverse of U and the n1 x n1 projector UU⁺."""
    u, v = sub.basis_first, sub.basis_second
    p, s, qh = np.linalg.svd(u, full_matrices=False)
    keep = s > GRAPH_TOL * s[0]
    u_pinv = (qh[keep].conj().T / s[keep]) @ p[:, keep].conj().T
    proj = u @ u_pinv
    proj = 0.5 * (proj + proj.conj().T)
    k = v @ u_pinv
    return k, operator_norm(k @ proj), proj


def golden_block():
    return load_problem(Path(__file__).parent / "data" / "golden_block.json").block


def mhd_block():
    profile = profile_from_functions(lambda x: 1.0 + x,
                                     lambda x: 1.0 + 0.3 * np.sin(np.pi * x),
                                     1.0, 1.0, 1.0, g=0.3, grid_n=65)
    return discretize(profile, 64).block


def random_complex_blocks():
    rng = np.random.default_rng(62)
    return [random_block(rng) for _ in range(30)]


@pytest.mark.parametrize("make_blocks", [
    lambda: [golden_block()], lambda: [mhd_block()], random_complex_blocks,
], ids=["golden", "mhd-64", "random-complex"])
def test_angular_operator_matches_the_dense_formulas(make_blocks):
    """K, ‖K‖ and the extension gap ‖(K_c - K_alpha) P_alpha‖ against the
    former pseudo-inverse and n1 x n1 domain projector."""
    compared = 0
    for block in make_blocks():
        try:
            marks = block.landmarks
        except (LandmarkError, SingularShiftError):
            continue
        above = marks.lambda_above_c
        alphas = [marks.c_tilde]
        if above.size >= 2:
            alphas.append(0.5 * (above[0] + above[1]))
        ops = []
        for alpha in alphas:
            sub = spectral_subspace(block, alpha)
            if graph_test(sub).verdict != "graph":
                break
            k_op = angular_operator(sub)
            k_ref, norm_ref, proj_ref = former_angular_operator(sub)
            scale = max(1.0, norm_ref)
            assert np.max(np.abs(k_op.K - k_ref), initial=0.0) <= 1e-12 * scale
            assert abs(k_op.norm - norm_ref) <= 1e-12 * scale
            assert np.allclose(k_op.domain @ k_op.domain.conj().T, proj_ref,
                               rtol=0.0, atol=1e-12)
            ops.append((k_op, proj_ref))
            compared += 1
        if len(ops) == 2:
            (k_c, _), (k_hi, proj_hi) = ops
            gap = operator_norm((k_c.K - k_hi.K) @ k_hi.domain)
            gap_ref = operator_norm((k_c.K - k_hi.K) @ proj_hi)
            assert abs(gap - gap_ref) <= 1e-12 * max(1.0, k_c.norm, k_hi.norm)
    assert compared >= 1


def _scaled_coupling(block, factor):
    return BlockOperatorMatrix(A=block.A, B=factor * block.B, C=block.C)


def _mhd_64(name):
    fields = {"constant": ("constant", "constant", 0.0),
              "linear-sinusoidal": ("linear", "sinusoidal", 0.3)}[name]
    rho, va2, g = fields
    return discretize(profile_from_functions(
        BUILTIN_FIELDS[rho], BUILTIN_FIELDS[va2], 1.0, 1.0, 1.0, g=g,
        grid_n=65), 64).block


def _seeded_complex_blocks(count=4):
    """The first ``count`` seeded random blocks whose subspace above c~ is a
    graph."""
    found = []
    for seed in range(100):
        block = random_block(np.random.default_rng(seed))
        try:
            if graph_test(block.graph_subspace).verdict == "graph":
                found.append(block)
        except (LandmarkError, SingularShiftError):
            continue
        if len(found) == count:
            return found
    raise AssertionError("too few graph subspaces among the seeded blocks")


def _graph_with(s, t):
    """[U; V] with U = P diag(s) Q* and V = R diag(t) Q*, s^2 + t^2 = 1:
    orthonormal columns, sigma(U) = s and ‖K‖ = max t/s."""
    rng = np.random.default_rng(5)

    def isometry(n, m):
        z = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        return np.linalg.qr(z)[0]

    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    p, r, q = isometry(7, s.size), isometry(6, s.size), isometry(s.size, s.size)
    return GraphSubspace(basis_first=(p * s) @ q.conj().T,
                         basis_second=(r * t) @ q.conj().T)


class TestAngularNormOracle:
    """‖K‖ from the factors of the first-block SVD against numpy's 2-norm of
    the assembled K, within 1e-12 relative at every scale of K."""

    @staticmethod
    def assert_norm(sub):
        k_op = angular_operator(sub)
        ref = float(np.linalg.norm(k_op.K, 2))
        assert abs(k_op.norm - ref) <= 1e-12 * ref, (k_op.norm, ref)
        return k_op.norm

    @pytest.mark.parametrize("make_block", [
        golden_block,
        lambda: _mhd_64("constant"),
        lambda: _mhd_64("linear-sinusoidal"),
        lambda: discretize(_bench_profile(1), 256).block,
        lambda: _scaled_coupling(golden_block(), 1e-9),
    ], ids=["golden", "mhd-constant-64", "mhd-linear-sinusoidal-64",
            "mhd-bench-256", "golden-coupling-1e-9"])
    def test_blocks(self, make_block):
        assert self.assert_norm(make_block().graph_subspace) > 0.0

    def test_seeded_complex_blocks(self):
        for block in _seeded_complex_blocks():
            assert block.B.dtype == np.complex128
            self.assert_norm(block.graph_subspace)

    def test_near_non_graph_subspace(self):
        s = np.array([1.0, 0.5, 0.01, 1e-6])
        sub = _graph_with(s, np.sqrt(1.0 - s * s))
        assert graph_test(sub).sigma_min == pytest.approx(1e-6, rel=1e-6)
        norm = self.assert_norm(sub)
        assert norm == pytest.approx(np.sqrt(1.0 - 1e-12) / 1e-6, rel=1e-9)

    def test_tiny_k(self):
        # s = 1 in double precision, so sqrt(1 - s^2)/s reads 0, and
        # ‖K‖^2 = 1e-340 underflows unless X is scaled first
        sub = _graph_with([1.0, 1.0], [1e-170, 3e-171])
        assert self.assert_norm(sub) == pytest.approx(1e-170, rel=1e-12)

    def test_decoupled_profile(self):
        block = discretize(constant_profile(kperp=0.0, kpar=0.0), 32).block
        k_op = angular_operator(block.graph_subspace)
        assert k_op.norm <= 1e-12
        assert k_op.norm == pytest.approx(np.linalg.norm(k_op.K, 2),
                                          rel=1e-12, abs=1e-300)


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
