import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specblock import (
    ArgumentError,
    Interval,
    general_eig,
    hermitian_eig,
    hermitian_eigvals,
    operator_norm,
    orthonormality_defect,
    pseudo_inverse,
    spectral_distance,
    spectral_projector,
)

from specblock.linalg import (
    STACK_BYTES,
    _normalize_phases,
    hermitian_part_eig,
    hermitian_part_eig_by_components,
    require_hermitian,
    stack_chunks,
)
from specblock.tolerance import PHASE_ZERO_TOL, matrix_tol

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
        # phase normalization pins the standard basis exactly
        assert np.allclose(dec.vectors, np.eye(2))

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
        for j in range(6):
            col = a.vectors[:, j]
            pivot = col[np.nonzero(np.abs(col) > 1e-12)[0][0]]
            assert pivot.imag == pytest.approx(0.0, abs=1e-14)
            assert pivot.real > 0

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


def loop_normalize_phases(vectors):
    """Column-by-column reference for the phase convention."""
    out = np.array(vectors, copy=True)
    for j in range(out.shape[1]):
        col = out[:, j]
        nonzero = np.nonzero(np.abs(col) > PHASE_ZERO_TOL)[0]
        if nonzero.size == 0:
            continue
        pivot = col[nonzero[0]]
        out[:, j] = col * (pivot.conjugate() / abs(pivot))
    return out


class TestPhaseNormalization:
    def test_matches_column_loop_bytes(self):
        rng = np.random.default_rng(31)
        for trial in range(300):
            n, m = int(rng.integers(1, 24)), int(rng.integers(1, 24))
            v = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
            v *= 10.0 ** rng.uniform(-14.0, 3.0, (n, m))
            # leading entries below the threshold, then a vanishing column
            v[:int(rng.integers(0, n + 1)), int(rng.integers(0, m))] = \
                0.5 * PHASE_ZERO_TOL * (1.0 - 1.0j)
            zero = complex(-0.0, -0.0) if trial % 3 else 0.0
            v[:, int(rng.integers(0, m))] = zero
            if trial % 2:
                v = np.asfortranarray(v)
            got = _normalize_phases(v)
            want = loop_normalize_phases(v)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_general_eig_vectors_match_column_loop(self):
        rng = np.random.default_rng(32)
        g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        _, vecs = np.linalg.eig(g)
        assert (_normalize_phases(vecs).tobytes()
                == loop_normalize_phases(vecs).tobytes())

    def test_empty(self):
        empty = np.zeros((0, 0), dtype=complex)
        assert _normalize_phases(empty).shape == (0, 0)

    def test_real_columns_change_sign_only(self):
        rng = np.random.default_rng(33)
        v = rng.standard_normal((7, 9)) * 10.0 ** rng.uniform(-14.0, 3.0,
                                                              (7, 9))
        v[:3, 4] = -0.5 * PHASE_ZERO_TOL
        v[:, 6] = -0.0
        v[:, 7] = -0.5 * PHASE_ZERO_TOL  # vanishing: returned unchanged
        got = _normalize_phases(v)
        assert got.dtype == np.float64
        assert got.tobytes() == loop_normalize_phases(v).tobytes()
        assert np.array_equal(np.abs(got), np.abs(v))
        assert np.array_equal(got[:, 6:8], v[:, 6:8])
        assert_phase_rule(np.delete(got, [6, 7], axis=1))


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


class TestHermitianEigvals:
    def test_agrees_with_full_decomposition(self):
        for seed in range(6):
            h = random_hermitian(seed, 2 + seed)
            vals = hermitian_eigvals(h)
            full = hermitian_eig(h).eigenvalues
            scale = max(1.0, float(np.max(np.abs(full))))
            assert np.max(np.abs(vals - full)) <= 1e-12 * scale

    def test_validates_like_hermitian_eig(self):
        with pytest.raises(ArgumentError):
            hermitian_eigvals(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ArgumentError):
            hermitian_eigvals(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def random_symmetric(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-10, 10, (n, n))
    return 0.5 * (x + x.T)


def assert_phase_rule(vectors):
    for col in vectors.T:
        pivot = col[np.nonzero(np.abs(col) > PHASE_ZERO_TOL)[0][0]]
        assert pivot.imag == 0.0 and pivot.real > 0.0


class TestRealPath:
    """Hermitian input with an all-zero imaginary part is solved by the real
    symmetric driver and gets float64 eigenvectors under the phase rule."""

    @pytest.mark.parametrize("n", [1, 2, 5, 17, 40])
    def test_real_input_matches_complex_path(self, n):
        h = random_symmetric(n, n)
        dec = hermitian_eig(h)
        want = np.linalg.eigvalsh(h.astype(np.complex128))
        tol = matrix_tol(h)
        assert np.max(np.abs(dec.eigenvalues - want)) <= tol
        assert np.max(np.abs(hermitian_eigvals(h) - want)) <= tol
        assert dec.vectors.dtype == np.float64
        residual = h @ dec.vectors - dec.vectors * dec.eigenvalues
        assert np.linalg.norm(residual, 2) <= tol
        assert orthonormality_defect(dec.vectors) <= 1e-12 * n
        assert_phase_rule(dec.vectors)
        assert np.array_equal(dec.vectors, loop_normalize_phases(dec.vectors))

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
            hermitian_eigvals(mat)
        assert seen == [np.float64] * 4
        seen.clear()
        tiny = 1e-300j * np.array([[0.0, 1.0], [-1.0, 0.0]])
        for mat in (random_hermitian(4, 6), tiny):
            hermitian_eig(mat)
            hermitian_eigvals(mat)
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


class TestStackedSolves:
    """A stack (k, n, n) is validated and solved slice by slice, bit for bit
    like k single calls."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_equals_single_calls(self, k, n):
        stack = hermitian_stack(10 * n + k, k, n)
        vals = hermitian_eigvals(stack)
        herm = require_hermitian(stack)
        assert vals.shape == (k, n)
        for i in range(k):
            assert np.array_equal(vals[i], hermitian_eigvals(stack[i]))
            assert np.array_equal(herm[i].view(np.uint64),
                                  require_hermitian(stack[i]).view(np.uint64))
        real = stack.real.copy()
        for i in range(k):
            assert np.array_equal(hermitian_eigvals(real)[i],
                                  hermitian_eigvals(real[i]))

    def test_each_slice_gets_its_own_solver(self, monkeypatch):
        seen = []
        original = np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            seen.append((np.asarray(a).dtype, np.asarray(a).shape[0]))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        hermitian_eigvals(hermitian_stack(3, 6, 4))
        assert sorted(seen, key=str) == sorted(
            [(np.complex128, 2), (np.float64, 4)], key=str)

    def test_empty_stack(self):
        assert hermitian_eigvals(np.zeros((0, 3, 3))).shape == (0, 3)
        assert require_hermitian(np.zeros((0, 3, 3))).shape == (0, 3, 3)
        with pytest.raises(ArgumentError):
            hermitian_eigvals(np.zeros((0, 2, 3)))

    def test_bad_slice_raises_the_single_call_text(self):
        stack = hermitian_stack(5, 4, 5)
        stack[2, 0, 1] += 1e-6
        want = error_text(hermitian_eigvals, stack[2])
        assert want.startswith("matrix is not Hermitian")
        assert error_text(hermitian_eigvals, stack) == want
        assert error_text(require_hermitian, stack) == want
        stack = hermitian_stack(5, 4, 5)
        stack[3, 2, 2] = np.inf
        assert (error_text(hermitian_eigvals, stack)
                == error_text(hermitian_eigvals, stack[3]))

    def test_full_decomposition_takes_one_matrix(self):
        with pytest.raises(ArgumentError, match=re.escape("ndim = 3")):
            hermitian_eig(hermitian_stack(1, 2, 3))

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
        vals = hermitian_eigvals(stack)
        assert max(sizes) <= STACK_BYTES
        # one complex matrix fills a chunk at this order
        assert stack_chunks(k, n) == [slice(i, i + 1) for i in range(k)]
        assert len(sizes) == k
        assert np.array_equal(vals[5], hermitian_eigvals(stack[5]))

    def test_small_stacks_take_one_chunk(self):
        assert stack_chunks(21, 16) == [slice(0, STACK_BYTES // (16 * 256))]
        assert stack_chunks(0, 5) == [slice(0, STACK_BYTES // (16 * 25))]


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


def scattered_blocks(seed, sizes, complex_entries=True):
    """Exact Hermitian part with dense random blocks of the given sizes on
    scattered index sets, zero between them; returns it and the index sets."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    perm = rng.permutation(n)
    herm = np.zeros((n, n), dtype=complex)
    groups = np.split(perm, np.cumsum(sizes)[:-1])
    for group in groups:
        k = group.size
        z = rng.uniform(-5, 5, (k, k))
        if complex_entries:
            z = z + 1j * rng.uniform(-5, 5, (k, k))
        herm[np.ix_(group, group)] = 0.5 * (z + z.conj().T)
    return require_hermitian(herm), groups


class TestComponentEig:
    """hermitian_part_eig_by_components solves the connected components of
    the nonzero pattern on their own, and a connected pattern densely."""

    @pytest.mark.parametrize("sizes", [(1, 2, 2, 3, 3), (4, 1, 1, 6),
                                       (2,) * 9])
    @pytest.mark.parametrize("complex_entries", [True, False])
    def test_mixed_components(self, sizes, complex_entries):
        herm, groups = scattered_blocks(sum(sizes), sizes, complex_entries)
        dec = hermitian_part_eig_by_components(herm)
        want = np.linalg.eigvalsh(herm)
        scale = np.max(np.abs(want))
        assert np.all(np.diff(dec.eigenvalues) >= 0.0)
        assert np.max(np.abs(dec.eigenvalues - want)) <= 1e-13 * scale
        assert dec.vectors.dtype == (np.complex128 if complex_entries
                                     else np.float64)
        residual = herm @ dec.vectors - dec.vectors * dec.eigenvalues
        assert np.max(np.abs(residual)) <= 1e-13 * scale
        assert orthonormality_defect(dec.vectors) <= 1e-14
        assert_phase_rule(dec.vectors)
        # Each eigenvector lives on one component, and each component
        # carries as many eigenvectors as it has indices.
        support = np.abs(dec.vectors) > 0.0
        owners = [int(np.argmax([support[g, j].any() for g in groups]))
                  for j in range(herm.shape[0])]
        for j, owner in enumerate(owners):
            outside = np.setdiff1d(np.arange(herm.shape[0]), groups[owner])
            assert not support[outside, j].any()
        assert sorted(np.bincount(owners, minlength=len(groups))) \
            == sorted(g.size for g in groups)

    def test_diagonal(self):
        diag = np.array([3.0, -1.0, 2.0, -1.0, 0.0, 7.5])
        dec = hermitian_part_eig_by_components(np.diag(diag).astype(complex))
        assert np.array_equal(dec.eigenvalues, np.sort(diag))
        # Ties keep the index order: -1.0 at index 1 comes before index 3.
        order = np.argsort(diag, kind="stable")
        assert np.array_equal(dec.vectors, np.eye(6)[:, order])

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
        got = hermitian_part_eig_by_components(herm)
        want = hermitian_part_eig(herm)
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        assert np.array_equal(got.vectors, want.vectors)

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


def test_spectral_distance():
    assert spectral_distance(1.5, [1.0, 3.0]) == pytest.approx(0.5)
    assert spectral_distance(0.0, []) == np.inf
    assert spectral_distance(1.0 + 1.0j, [1.0]) == pytest.approx(1.0)
