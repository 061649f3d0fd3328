import ast
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specblock import (
    ArgumentError,
    Interval,
    NumericError,
    general_eig,
    hermitian_eig,
    operator_norm,
    orthonormality_defect,
    pseudo_inverse,
    spectral_distance,
    spectral_projector,
)

from specblock.linalg import (
    STACK_BYTES,
    hermitian_part_eig,
    hermitian_part_eigvals,
    require_hermitian,
    stack_chunks,
)
from specblock import checks, enclosures
from specblock import linalg as linalg_module
from specblock.blocks import (
    BlockOperatorMatrix,
    best_relative_bound,
    schur_complement,
)
from specblock.cli import cmd_soq
from specblock.enclosures import Ladder, soq_bracket
from specblock.problems import load_problem
from specblock.selftest import random_block
from specblock.tolerance import matrix_tol

from oracles import cubic_fixture_roots, eigvec3

M3 = np.array([[2.0, 0.0, 1.0], [0.0, 10.0, 1.0], [1.0, 1.0, -1.0]])


def random_hermitian(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-10, 10, (n, n)) + 1j * rng.uniform(-10, 10, (n, n))
    return 0.5 * (x + x.conj().T)


class TestInterval:
    def test_membership(self):
        iv = Interval(1.0, 2.0, open_lo=True)
        assert not iv.contains(1.0)
        assert iv.contains(2.0)
        assert iv.contains(1.5)

    def test_invalid(self):
        with pytest.raises(ArgumentError):
            Interval(2.0, 1.0)
        with pytest.raises(ArgumentError):
            Interval(float("nan"), 1.0)


class TestHermitianEig:
    def test_identity(self):
        dec = hermitian_eig(np.eye(2))
        assert np.allclose(dec.eigenvalues, [1.0, 1.0])
        assert orthonormality_defect(dec.vectors) <= 1e-12

    def test_diagonal(self):
        dec = hermitian_eig(np.diag([2.0, 10.0]))
        assert np.allclose(dec.eigenvalues, [2.0, 10.0])
        # the standard basis, each column up to a unit factor
        assert np.allclose(np.abs(dec.vectors), np.eye(2))

    def test_cubic_fixture_against_root_oracle(self):
        roots = cubic_fixture_roots()
        dec = hermitian_eig(M3)
        assert np.max(np.abs(dec.eigenvalues - np.array(roots))) <= 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ArgumentError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ArgumentError):
            hermitian_eig(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_deterministic_phase(self):
        h = random_hermitian(7, 6)
        a = hermitian_eig(h)
        b = hermitian_eig(h)
        assert np.array_equal(a.vectors, b.vectors)

    def test_reconstruction_residual(self):
        for seed in range(8):
            h = random_hermitian(seed, 3 + seed)
            dec = hermitian_eig(h)
            rebuilt = (dec.vectors * dec.eigenvalues) @ dec.vectors.conj().T
            assert operator_norm(rebuilt - h) <= 1e-9 * max(operator_norm(h), 1.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(2, 9))
    def test_weyl_shift_and_trace(self, seed, n):
        h = random_hermitian(seed, n)
        dec = hermitian_eig(h)
        for eps in (1.0, -1.0):
            shifted = hermitian_eig(h + eps * np.eye(n)).eigenvalues
            assert np.max(np.abs(shifted - dec.eigenvalues - eps)) <= 1e-12
        assert np.trace(h).real == pytest.approx(np.sum(dec.eigenvalues),
                                                 rel=1e-9, abs=1e-9)


class TestSpectralDecomposition:
    """A decomposition is the solver's eigenvalues and columns as they came."""

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_vectors_are_the_solver_columns(self, real):
        for n in (1, 2, 7, 16):
            h = random_symmetric(n, n) if real else random_hermitian(n, n)
            herm = require_hermitian(h)
            vals, vecs = np.linalg.eigh(linalg_module._solver_input(herm))
            dec = hermitian_part_eig(herm)
            assert dec.vectors.dtype == vecs.dtype
            assert dec.eigenvalues.tobytes() == vals.tobytes()
            assert dec.vectors.tobytes() == vecs.tobytes()

    def test_unfrozen_vectors_stay_writable(self):
        dec = hermitian_eig(random_symmetric(5, 4))
        assert dec.vectors.flags.writeable and dec.eigenvalues.flags.writeable


class TestLazyNormalization:
    """The vectors were once normalized on their first read; they are now the
    solver's columns, set at construction. freeze() must still cover both
    arrays whether or not ``vectors`` was read before it."""

    @pytest.mark.parametrize("read_first", [False, True])
    def test_freeze_covers_vectors_formed_before_and_after(self, read_first):
        dec = hermitian_eig(random_hermitian(4, 5))
        if read_first:
            dec.vectors
        assert dec.freeze() is dec
        for arr in (dec.eigenvalues, dec.vectors):
            with pytest.raises(ValueError):
                arr[0, ...] = 0.0


class TestWindowMask:
    def test_matches_pointwise_contains(self):
        dec = hermitian_eig(np.diag([-1.0, 0.0, 0.0, 2.0, 3.5]))
        for lo, hi in ((0.0, 2.0), (-np.inf, 0.0), (0.0, np.inf), (5.0, 6.0)):
            for open_lo in (False, True):
                for open_hi in (False, True):
                    iv = Interval(lo, hi, open_lo=open_lo, open_hi=open_hi)
                    want = [iv.contains(float(ev)) for ev in dec.eigenvalues]
                    got = dec.window_mask(iv)
                    assert got.dtype == bool
                    assert got.tolist() == want


def random_symmetric(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-10, 10, (n, n))
    return 0.5 * (x + x.T)


class TestRealPath:
    """Hermitian input with an all-zero imaginary part is solved by the real
    symmetric driver and gets float64 eigenvectors."""

    @pytest.mark.parametrize("n", [1, 2, 5, 17, 40])
    def test_real_input_matches_complex_path(self, n):
        h = random_symmetric(n, n)
        dec = hermitian_eig(h)
        want = np.linalg.eigvalsh(h.astype(np.complex128))
        tol = matrix_tol(h)
        assert np.max(np.abs(dec.eigenvalues - want)) <= tol
        assert (np.max(np.abs(hermitian_part_eigvals(require_hermitian(h))
                               - want)) <= tol)
        assert dec.vectors.dtype == np.float64
        residual = h @ dec.vectors - dec.vectors * dec.eigenvalues
        assert np.linalg.norm(residual, 2) <= tol
        assert orthonormality_defect(dec.vectors) <= 1e-12 * n

    def test_solvers_receive_float64_for_real_input(self, monkeypatch):
        seen = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def spy(a, *args, _original=original, **kwargs):
                seen.append(np.asarray(a).dtype)
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        real = random_symmetric(3, 6)
        signed = real.astype(np.complex128)
        signed.imag[np.triu_indices(6, 1)] = -0.0
        assert np.signbit(require_hermitian(signed).imag).any()
        for mat in (real, signed):
            hermitian_eig(mat)
            hermitian_part_eigvals(require_hermitian(mat))
        assert seen == [np.float64] * 4
        seen.clear()
        tiny = 1e-300j * np.array([[0.0, 1.0], [-1.0, 0.0]])
        for mat in (random_hermitian(4, 6), tiny):
            hermitian_eig(mat)
            hermitian_part_eigvals(require_hermitian(mat))
        assert seen == [np.complex128] * 4


def reference_require_hermitian(mat):
    """The complex128 validation rule, one matrix at a time."""
    arr = np.asarray(mat, dtype=np.complex128)
    scale = float(np.max(np.abs(arr))) if arr.size else 0.0
    tol = 1e-12 * scale
    defect = float(np.max(np.abs(arr - arr.conj().T))) if arr.size else 0.0
    if defect > tol:
        raise ArgumentError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds tol {tol:.3e}")
    return 0.5 * (arr + arr.conj().T)


def error_text(fn, mat):
    with pytest.raises(ArgumentError) as info:
        fn(mat)
    return str(info.value)


class TestRealValidation:
    """Real input, and complex input with an all-zero imaginary part, is
    validated in float64 under the complex rule's defect, scale and bits;
    the Hermitian part keeps the input's dtype."""

    def zero_imaginary(self, real, signed):
        mat = real.astype(np.complex128)
        if signed:
            mat.imag[np.triu_indices(real.shape[0], 1)] = -0.0
        return mat

    @pytest.mark.parametrize("n", [1, 2, 5, 17])
    def test_same_bits_as_the_complex_rule(self, n):
        real = random_symmetric(n, n)
        real[0, -1] = -0.0
        real[-1, 0] = 0.0
        for mat in (real, self.zero_imaginary(real, False),
                    self.zero_imaginary(real, True)):
            got = require_hermitian(mat)
            want = reference_require_hermitian(mat)
            assert got.dtype == mat.dtype
            if got.dtype == np.float64:
                assert not np.count_nonzero(want.imag)
                want = np.ascontiguousarray(want.real)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_same_error_texts(self):
        real = random_symmetric(2, 6)
        real[1, 4] += 1e-9 * np.max(np.abs(real))
        for mat in (real, self.zero_imaginary(real, True)):
            want = error_text(reference_require_hermitian, mat)
            assert error_text(require_hermitian, mat) == want
        real[2, 3] = np.nan
        assert (error_text(require_hermitian, real)
                == "matrix entries must be finite (no NaN/Inf)")
        assert (error_text(require_hermitian, np.ones((2, 3)))
                == "expected a square matrix, got shape (2, 3)")

    def test_real_input_allocates_no_complex_temporary(self):
        n = 300
        real = random_symmetric(9, n)
        tracemalloc.start()
        try:
            out = require_hermitian(real)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.dtype == np.float64
        assert peak - out.nbytes < 8 * n * n


def hermitian_stack(seed, k, n):
    """k Hermitian matrices of order n: complex, real stored as complex,
    real with -0.0 imaginary parts, in turn."""
    stack = np.empty((k, n, n), dtype=np.complex128)
    for i in range(k):
        if i % 3 == 0:
            stack[i] = random_hermitian(seed + i, n)
        else:
            stack[i] = random_symmetric(seed + i, n)
            if i % 3 == 2:
                stack[i].imag[np.triu_indices(n, 1)] = -0.0
    return stack


def hermitian_parts(stack):
    """The stack of require_hermitian's Hermitian parts, slice by slice."""
    return np.stack([require_hermitian(mat) for mat in stack])


class TestStackedSolves:
    """A stack (k, n, n) of exact Hermitian parts is solved slice by slice,
    bit for bit like k single calls."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_equals_single_calls(self, k, n):
        stack = hermitian_stack(10 * n + k, k, n)
        for herm in (hermitian_parts(stack), hermitian_parts(stack.real)):
            vals = hermitian_part_eigvals(herm)
            assert vals.shape == (k, n)
            for i in range(k):
                assert (vals[i].tobytes()
                        == hermitian_part_eigvals(herm[i]).tobytes())

    def test_each_slice_gets_its_own_solver(self, monkeypatch):
        seen = []
        original = np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            seen.append((np.asarray(a).dtype, np.asarray(a).shape[0]))
            return original(a, *args, **kwargs)

        herm = hermitian_parts(hermitian_stack(3, 6, 4))
        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        hermitian_part_eigvals(herm)
        assert sorted(seen, key=str) == sorted(
            [(np.complex128, 2), (np.float64, 4)], key=str)

    def test_empty_stack(self):
        assert hermitian_part_eigvals(np.zeros((0, 3, 3))).shape == (0, 3)
        with pytest.raises(ArgumentError):
            hermitian_part_eigvals(np.zeros((0, 2, 3)))
        with pytest.raises(ArgumentError, match=re.escape("ndim = 3")):
            require_hermitian(np.zeros((0, 3, 3)))

    def test_bad_slice_raises_the_single_call_text(self):
        herm = hermitian_parts(hermitian_stack(5, 4, 5))
        herm[3, 2, 2] = np.inf
        want = error_text(hermitian_part_eigvals, herm[3])
        assert want == "matrix entries must be finite (no NaN/Inf)"
        assert error_text(hermitian_part_eigvals, herm) == want

    def test_full_decomposition_takes_one_matrix(self):
        with pytest.raises(ArgumentError, match=re.escape("ndim = 3")):
            hermitian_eig(hermitian_stack(1, 2, 3))

    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("k", [1, 7])
    def test_full_decompositions_equal_single_calls(self, k, n):
        stack = hermitian_stack(20 * n + k, k, n)
        for herm in (hermitian_parts(stack), hermitian_parts(stack.real)):
            decs = hermitian_part_eig(herm)
            assert len(decs) == k
            for i, dec in enumerate(decs):
                want = hermitian_part_eig(herm[i])
                for arr in ("eigenvalues", "vectors"):
                    a, b = getattr(dec, arr), getattr(want, arr)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        if k > 1 and n > 1:  # the stack mixes complex and real matrices
            dtypes = {dec.vectors.dtype.name for dec in
                      hermitian_part_eig(hermitian_parts(stack))}
            assert dtypes == {"complex128", "float64"}

    def test_empty_stack_of_decompositions(self):
        assert hermitian_part_eig(np.zeros((0, 3, 3))) == []

    def test_wrong_ndim_names_the_accepted_shapes(self):
        assert error_text(hermitian_part_eigvals, np.zeros(3)) == (
            "expected a matrix (n, n) or a stack (k, n, n) of matrices, "
            "got ndim = 1")
        assert error_text(require_hermitian, np.zeros((1, 2, 2))) == (
            "expected a matrix (n, n), got ndim = 3")
        assert error_text(pseudo_inverse, np.zeros(3)) == (
            "expected a matrix (m, n), got ndim = 1")

    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    def test_no_solve_exceeds_the_byte_budget(self, monkeypatch, dtype):
        sizes = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def spy(a, *args, _original=original, **kwargs):
                sizes.append(np.asarray(a).nbytes)
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        n, k = 200, 21
        stack = hermitian_stack(8, k, n)
        if dtype == np.float64:
            stack = stack.real.copy()
        herm = hermitian_parts(stack)
        # one complex matrix fills a chunk at this order
        assert stack_chunks(k, n) == [slice(i, i + 1) for i in range(k)]
        vals = np.concatenate([hermitian_part_eigvals(herm[part])
                               for part in stack_chunks(k, n)])
        assert max(sizes) <= STACK_BYTES
        assert len(sizes) == k
        assert np.array_equal(vals[5], hermitian_part_eigvals(herm[5]))

    def test_small_stacks_take_one_chunk(self):
        assert stack_chunks(21, 16) == [slice(0, STACK_BYTES // (16 * 256))]
        assert stack_chunks(0, 5) == [slice(0, STACK_BYTES // (16 * 25))]


class TestHermitianPartEigvals:
    """The values-only solve of an exact Hermitian part: the validating
    solve's bits without validating again, and the same finiteness error."""

    def test_agrees_with_full_decomposition(self):
        for seed in range(6):
            h = require_hermitian(random_hermitian(seed, 2 + seed))
            vals = hermitian_part_eigvals(h)
            full = hermitian_part_eig(h).eigenvalues
            scale = max(1.0, float(np.max(np.abs(full))))
            assert np.max(np.abs(vals - full)) <= 1e-12 * scale

    @pytest.mark.parametrize("k", [1, 7])
    def test_equals_the_validating_solve(self, k):
        stack = hermitian_stack(40 + k, k, 6)
        for mats in (stack, stack.real.copy()):
            herm = hermitian_parts(mats)
            want = [hermitian_part_eigvals(require_hermitian(mat)).tobytes()
                    for mat in mats]
            rows = hermitian_part_eigvals(herm)
            assert [row.tobytes() for row in rows] == want
            assert hermitian_part_eigvals(herm[0]).tobytes() == want[0]

    def test_schur_complements(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            block = random_block(rng)
            spec_c = block.eig_c.eigenvalues
            shifts = np.linspace(float(spec_c[0]) - 3.0,
                                 float(spec_c[-1]) + 3.0, 9)
            shifts = shifts[np.min(np.abs(spec_c - shifts[:, None]),
                                   axis=1) > 1e-3]
            s = schur_complement(block, shifts)
            assert (hermitian_part_eigvals(s).tobytes()
                    == hermitian_part_eigvals(hermitian_parts(s)).tobytes())

    def test_validates_nothing_but_finiteness(self, monkeypatch):
        herm = hermitian_parts(hermitian_stack(3, 4, 5))
        calls = []
        monkeypatch.setattr(linalg_module, "require_hermitian",
                            lambda mat: calls.append(mat))
        hermitian_part_eigvals(herm)
        assert calls == []
        herm[2, 1, 1] = np.inf
        assert (error_text(hermitian_part_eigvals, herm)
                == "matrix entries must be finite (no NaN/Inf)")

    def test_empty(self):
        assert hermitian_part_eigvals(np.zeros((0, 0))).shape == (0,)
        assert hermitian_part_eigvals(
            np.zeros((0, 3, 3), dtype=complex)).shape == (0, 3)


class TestSpectralProjector:
    def test_diagonal_window(self):
        dec = hermitian_eig(np.diag([2.0, 10.0]))
        p = spectral_projector(dec, Interval(5.0, np.inf, open_lo=True))
        assert np.allclose(p, np.diag([0.0, 1.0]))

    def test_full_window_is_identity(self):
        dec = hermitian_eig(random_hermitian(3, 5))
        p = spectral_projector(dec, Interval(-np.inf, np.inf))
        assert np.allclose(p, np.eye(5), atol=1e-12)

    def test_cubic_fixture_positive_window(self):
        dec = hermitian_eig(M3)
        p = spectral_projector(dec, Interval(0.0, np.inf, open_lo=True))
        assert np.linalg.matrix_rank(p, tol=1e-8) == 2
        roots = cubic_fixture_roots()
        for lam in roots[1:]:  # the two positive eigenvalues
            v = eigvec3(M3, lam)
            assert np.linalg.norm(p @ v - v) <= 1e-8
        v_neg = eigvec3(M3, roots[0])
        assert np.linalg.norm(p @ v_neg) <= 1e-8

    def test_idempotent_hermitian(self):
        dec = hermitian_eig(random_hermitian(11, 7))
        p = spectral_projector(dec, Interval(dec.eigenvalues[2],
                                             dec.eigenvalues[5]))
        assert operator_norm(p @ p - p) <= 1e-10
        assert operator_norm(p - p.conj().T) <= 1e-10


class TestPseudoInverse:
    def test_identity(self):
        assert np.allclose(pseudo_inverse(np.eye(3)), np.eye(3))

    def test_zero(self):
        assert np.allclose(pseudo_inverse(np.zeros((2, 2))), np.zeros((2, 2)))

    def test_rank_one_column(self):
        # closed-form SVD of (1, 1)^T: pseudo-inverse is (1/2, 1/2)
        pinv = pseudo_inverse(np.array([[1.0], [1.0]]))
        assert np.allclose(pinv, [[0.5, 0.5]], atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 6), st.integers(1, 6))
    def test_moore_penrose(self, seed, n, m):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-5, 5, (n, m)) + 1j * rng.uniform(-5, 5, (n, m))
        pinv = pseudo_inverse(x)
        scale = max(1.0, operator_norm(x))
        assert operator_norm(x @ pinv @ x - x) <= 1e-8 * scale
        assert operator_norm(pinv @ x @ pinv - pinv) <= 1e-8 * max(
            1.0, operator_norm(pinv))
        assert operator_norm(x @ pinv - (x @ pinv).conj().T) <= 1e-8 * scale
        assert operator_norm(pinv @ x - (pinv @ x).conj().T) <= 1e-8 * scale


def spy_solvers(monkeypatch, names=("svd", "eigh", "eigvalsh")):
    """Record the dtype of every matrix handed to the named numpy.linalg
    solvers, also when numpy.linalg.norm calls svd from inside numpy."""
    seen = []
    inner = getattr(np.linalg, "_linalg", None)
    for name in names:
        original = getattr(np.linalg, name)

        def spy(a, *args, _original=original, _name=name, **kwargs):
            seen.append((_name, np.asarray(a).dtype))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
        if inner is not None:
            monkeypatch.setattr(inner, name, spy)
    return seen


class TestRealSingularValues:
    """pseudo_inverse, operator_norm and GraphSubspace.first_svd hand LAPACK
    float64 when the imaginary part is all zero; return types are
    unchanged."""

    @pytest.mark.parametrize("shape", [(1, 1), (5, 3), (3, 5), (40, 7)])
    def test_real_valued_input_matches_the_complex_path(self, monkeypatch,
                                                        shape):
        from specblock.subspaces import GraphSubspace
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        real = rng.uniform(-5.0, 5.0, shape)
        want_s = np.linalg.svd(real.astype(complex), compute_uv=False)
        want_pinv = np.linalg.pinv(real.astype(complex), rcond=1e-12)
        signed = real.astype(np.complex128)
        signed.imag[:] = -0.0
        seen = spy_solvers(monkeypatch, ("svd",))
        for mat in (real, signed):
            pinv = pseudo_inverse(mat)
            norm = operator_norm(mat)
            svals = GraphSubspace(basis_first=mat,
                                  basis_second=np.zeros((0, shape[1])))
            svals = svals.first_svd[1]
            assert pinv.dtype == np.complex128
            assert type(norm) is float
            assert svals.dtype == np.float64
            tol = 1e-12 * want_s[0]
            assert np.max(np.abs(pinv - want_pinv)) <= 1e-10 * np.max(
                np.abs(want_pinv))
            assert abs(norm - want_s[0]) <= tol
            assert np.max(np.abs(svals - want_s)) <= tol
        assert {dtype for _, dtype in seen} == {np.dtype(np.float64)}

    def test_complex_input_keeps_the_complex_driver(self, monkeypatch):
        from specblock.subspaces import GraphSubspace
        x = random_hermitian(3, 5)[:, :3]
        seen = spy_solvers(monkeypatch, ("svd",))
        pseudo_inverse(x)
        operator_norm(x)
        GraphSubspace(basis_first=x,
                      basis_second=np.zeros((0, 3))).first_svd
        assert [dtype for _, dtype in seen] == [np.dtype(np.complex128)] * 3


class TestRealFormPipeline:
    """A block stored in float64 sends only float64 to the SVD and Hermitian
    eigensolvers from landmarks through projection_decay; a complex block
    still sends complex128."""

    @staticmethod
    def run_stages(block, rb):
        from specblock import (angular_operator, projection_decay,
                               spectral_subspace)
        marks = block.landmarks
        angular_operator(spectral_subspace(block, marks.c_tilde))
        projection_decay(block, min(4, marks.rungs), rb=rb)

    def test_mhd_block_sends_float64(self, monkeypatch):
        from specblock import RelativeBound
        from specblock.mhd import discretize, profile_from_functions
        profile = profile_from_functions(lambda x: 1.0 + x, 1.0, 1.0, 1.0,
                                         1.0, g=0.3, grid_n=33)
        block = discretize(profile, 32).block
        seen = spy_solvers(monkeypatch)
        self.run_stages(block, RelativeBound(1.0, 1.0))
        assert {name for name, _ in seen} == {"svd", "eigh", "eigvalsh"}
        assert {dtype for _, dtype in seen} == {np.dtype(np.float64)}

    def test_complex_block_sends_complex128(self, monkeypatch):
        from specblock import best_relative_bound
        from specblock.selftest import separated_block
        block, _, _ = separated_block(np.random.default_rng(5))
        rb = best_relative_bound(block)
        seen = spy_solvers(monkeypatch)
        self.run_stages(block, rb)
        assert {name for name, _ in seen} == {"svd", "eigh", "eigvalsh"}
        assert np.dtype(np.complex128) in {dtype for _, dtype in seen}
        svd_inputs = {dtype for name, dtype in seen if name == "svd"}
        assert svd_inputs == {np.dtype(np.complex128)}


class TestComponentEig:
    """C is solved densely, whatever its nonzero pattern; the MHD block is
    given the eig_c of its pointwise 2x2 components by discretize."""

    def test_split_pattern_is_the_dense_solve(self):
        herm = np.kron(np.eye(3), [[1.0, 2.0], [2.0, -1.0]])
        got = BlockOperatorMatrix(A=np.eye(1), B=np.ones((1, 6)), C=herm).eig_c
        want = hermitian_part_eig(herm)
        for arr in ("eigenvalues", "vectors"):
            a, b = getattr(got, arr), getattr(want, arr)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind", ["dense", "scattered-path", "one", "empty"])
    def test_connected_pattern_is_the_dense_solve(self, kind):
        if kind == "dense":
            herm = require_hermitian(random_hermitian(4, 9))
        elif kind == "scattered-path":
            # a path i ~ i+1 under a permutation: connected, mostly zero
            n = 12
            perm = np.random.default_rng(8).permutation(n)
            path = (np.diag(np.arange(1.0, n + 1))
                    + np.diag(np.full(n - 1, 0.5 + 0.25j), 1)
                    + np.diag(np.full(n - 1, 0.5 - 0.25j), -1))
            herm = require_hermitian(path[np.ix_(perm, perm)])
        elif kind == "one":
            herm = np.array([[2.5 + 0j]])
        else:
            herm = np.zeros((0, 0), dtype=complex)
        n = herm.shape[0]
        got = BlockOperatorMatrix(A=np.eye(2), B=np.ones((2, n)), C=herm).eig_c
        want = hermitian_part_eig(herm)
        for arr in ("eigenvalues", "vectors"):
            a, b = getattr(got, arr), getattr(want, arr)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_mhd_coupling_block(self):
        from specblock.mhd import discretize, profile_from_functions
        profile = profile_from_functions(
            lambda x: 1.0 + x, lambda x: 1.0 + 0.3 * np.sin(np.pi * x),
            1.0, 1.0, 1.0, g=0.3, grid_n=129)
        block = discretize(profile, 128).block
        dec = block.eig_c
        want = np.linalg.eigvalsh(block.C)
        assert np.max(np.abs(dec.eigenvalues - want)) \
            <= 1e-13 * np.max(np.abs(want))
        # pointwise 2x2: every eigenvector has exactly two nonzero entries
        assert np.array_equal(np.count_nonzero(dec.vectors, axis=0),
                              np.full(block.n2, 2))


class TestGeneralEig:
    def test_diagonal_complex(self):
        vals = general_eig(np.diag([1.0, 2.0j]))
        # ascending real part puts 2i (re = 0) first
        assert vals[0] == pytest.approx(2.0j)
        assert vals[1] == pytest.approx(1.0)

    def test_rotation(self):
        # characteristic polynomial z^2 + 1
        vals = sorted(general_eig(np.array([[0.0, 1.0], [-1.0, 0.0]])),
                      key=lambda z: z.imag)
        assert vals[0] == pytest.approx(-1.0j)
        assert vals[1] == pytest.approx(1.0j)

    def test_imaginary_tie_break(self):
        vals = general_eig(np.diag([1.0 + 2.0j, 1.0 + 1.0j]))
        assert vals[0] == pytest.approx(1.0 + 1.0j)
        assert vals[1] == pytest.approx(1.0 + 2.0j)

    def test_companion_of_factored_quadratic(self):
        # z^2 - 3z + 2 = (z - 1)(z - 2)
        comp = np.array([[0.0, 1.0], [-2.0, 3.0]])
        vals = general_eig(comp)
        assert np.allclose(vals, [1.0, 2.0], atol=1e-10)

    def test_agrees_with_hermitian_path(self):
        h = random_hermitian(23, 6)
        vals = general_eig(h)
        assert np.max(np.abs(np.sort(vals.real)
                             - hermitian_eig(h).eigenvalues)) <= 1e-8
        assert np.max(np.abs(vals.imag)) <= 1e-8

    def test_residuals(self):
        rng = np.random.default_rng(5)
        g = rng.uniform(-5, 5, (7, 7)) + 1j * rng.uniform(-5, 5, (7, 7))
        vals, vecs = general_eig(g, return_vectors=True)
        for j in range(7):
            res = np.linalg.norm(g @ vecs[:, j] - vals[j] * vecs[:, j])
            assert res <= 1e-8 * operator_norm(g)

    def test_rejects_non_square(self):
        with pytest.raises(ArgumentError):
            general_eig(np.ones((2, 3)))

    def test_values_alone_equal_the_values_with_vectors(self, monkeypatch):
        # The soq companions of the golden block (28 x 28) and of a seeded
        # block with n1 = 200 and a 40-column trial space (80 x 80).
        companions = []
        original = enclosures.general_eig

        def recording(mat, *args, **kwargs):
            companions.append(np.array(mat, copy=True))
            return original(mat, *args, **kwargs)

        monkeypatch.setattr(enclosures, "general_eig", recording)
        golden = Path(__file__).parent / "data" / "golden_block.json"
        cmd_soq(load_problem(str(golden)), None)
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((200, 200))
                            + 1j * rng.standard_normal((200, 200)))
        a = (q * (1.0 + np.arange(200) ** 2 / 2.0)) @ q.conj().T
        block = BlockOperatorMatrix(
            A=0.5 * (a + a.conj().T),
            B=0.2 * (rng.standard_normal((200, 100))
                     + 1j * rng.standard_normal((200, 100))),
            C=np.diag(-2.0 - np.sort(rng.uniform(0.0, 10.0, 100))))
        bracket = soq_bracket(Ladder.build(block.eig_a.eigenvalues, block.c,
                                           best_relative_bound(block)))
        checks.soq(block, np.eye(300, dtype=complex)[:, :40], bracket)
        assert [m.shape for m in companions] == [(28, 28), (80, 80)]
        for m in companions:
            with_vectors = general_eig(m, return_vectors=True)[0]
            assert general_eig(m).tobytes() == with_vectors.tobytes()


def failing_lapack(*args, **kwargs):
    raise np.linalg.LinAlgError("did not converge")


class TestLapackFailures:
    """A LAPACK failure leaves linalg as NumericError, whichever of its
    solvers met it, and names the kind of solve."""

    SOLVES = {
        "eigh-matrix": ("eigh", "Hermitian eigensolve",
                        lambda: hermitian_part_eig(np.eye(3))),
        "eigh-stack": ("eigh", "Hermitian eigensolve",
                       lambda: hermitian_part_eig(np.zeros((2, 3, 3)))),
        "eigh-validated": ("eigh", "Hermitian eigensolve",
                           lambda: hermitian_eig(np.eye(3))),
        "eigvalsh": ("eigvalsh", "Hermitian eigensolve",
                     lambda: hermitian_part_eigvals(np.eye(3))),
        "svd-thin": ("svd", "singular value decomposition",
                     lambda: linalg_module.thin_svd(np.ones((3, 2)))),
        "svd-pinv": ("svd", "singular value decomposition",
                     lambda: pseudo_inverse(np.ones((3, 2)))),
        "norm": ("norm", "singular value decomposition",
                 lambda: operator_norm(np.ones((3, 2)))),
        "eig": ("eig", "general eigensolve",
                lambda: general_eig(np.eye(3), return_vectors=True)),
        "eigvals": ("eigvals", "general eigensolve",
                    lambda: general_eig(np.eye(3))),
    }

    @pytest.mark.parametrize("case", SOLVES)
    def test_raised_as_numeric_error(self, monkeypatch, case):
        name, task, solve = self.SOLVES[case]
        monkeypatch.setattr(np.linalg, name, failing_lapack)
        with pytest.raises(NumericError) as info:
            solve()
        assert str(info.value) == f"{task} failed: did not converge"


LAPACK_SOLVERS = {"eigh", "eigvalsh", "eig", "eigvals", "svd"}


def lapack_references(path):
    """(line, name) of every np.linalg or numpy.linalg solver of
    LAPACK_SOLVERS that the module at ``path`` names, by attribute or by
    import."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if (isinstance(node, ast.Attribute) and node.attr in LAPACK_SOLVERS
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "linalg"):
            found.append((node.lineno, node.attr))
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").endswith("linalg") and node.level == 0):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in LAPACK_SOLVERS]
    return found


def test_lapack_is_reached_through_linalg_only():
    package = Path(linalg_module.__file__).parent
    outside = {path.name: lapack_references(path)
               for path in sorted(package.glob("*.py"))
               if path.name != "linalg.py"}
    assert len(outside) > 10
    assert {name: refs for name, refs in outside.items() if refs} == {}
    # the scan sees the solvers where they are called
    assert {name for _, name in lapack_references(
        package / "linalg.py")} == LAPACK_SOLVERS


def test_spectral_distance():
    assert spectral_distance(1.5, [1.0, 3.0]) == pytest.approx(0.5)
    assert spectral_distance(0.0, []) == np.inf
    assert spectral_distance(1.0 + 1.0j, [1.0]) == pytest.approx(1.0)
