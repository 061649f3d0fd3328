from pathlib import Path

import numpy as np
import pytest

from specblock import (
    ArgumentError,
    BlockOperatorMatrix,
    LandmarkError,
    RelativeBound,
    SingularShiftError,
    assemble,
    best_relative_bound,
    eigenvalue_window,
    hermitian_eig,
    minimal_b_for_a,
    relative_bound_margin,
    resolvent_block,
    schur_complement,
    spectral_distance,
)
from specblock import blocks as blocks_module
from specblock import linalg as linalg_module
from specblock.linalg import (
    hermitian_part_eigvals,
    orthonormality_defect,
    require_hermitian,
)
from specblock.mhd import constant_profile, discretize, profile_from_functions
from specblock.problems import load_problem
from specblock import selftest
from specblock.selftest import random_block
from specblock.tolerance import BASE_TOL, PHASE_ZERO_TOL, matrix_tol

from oracles import cubic_fixture_roots, herm2x2_eigs

GOLDEN_BLOCK = Path(__file__).parent / "data" / "golden_block.json"

M3_FULL = np.array([[2.0, 0.0, 1.0], [0.0, 10.0, 1.0], [1.0, 1.0, -1.0]])


class TestBlockOperatorMatrix:
    def test_dimension_mismatch(self):
        with pytest.raises(ArgumentError):
            BlockOperatorMatrix(A=np.eye(2), B=np.ones((3, 1)), C=np.eye(1))

    def test_non_hermitian_diagonal_block(self):
        with pytest.raises(ArgumentError):
            BlockOperatorMatrix(A=[[0.0, 1.0], [0.0, 0.0]], B=np.ones((2, 1)),
                                C=np.eye(1))

    def test_caller_arrays_cannot_reach_the_cache(self):
        a = np.diag([2.0, 10.0]).astype(complex)
        b = np.array([[1.0], [1.0]], dtype=complex)  # as_matrix would alias it
        block = BlockOperatorMatrix(A=a, B=b, C=[[-1.0]])
        b[0, 0] = 100.0
        a[0, 0] = 50.0
        assert block.B[0, 0] == 1.0 and block.A[0, 0] == 2.0
        # computed after the caller's writes, from the blocks as constructed
        assert np.allclose(block.eig_m.eigenvalues, cubic_fixture_roots(),
                           atol=1e-9)

    def test_blocks_and_cached_spectra_are_read_only(self, m3):
        for arr in (m3.A, m3.B, m3.C, m3.coupling_gram, m3.eig_a.vectors,
                    m3.eig_m.eigenvalues, m3.coupling_in_c_basis):
            with pytest.raises(ValueError):
                arr[0, ...] = 0.0

    def test_decompositions_are_cached_per_block(self, m3):
        assert m3.eig_m is m3.eig_m
        assert m3.coupling_gram is m3.coupling_gram
        twin = BlockOperatorMatrix(A=m3.A, B=m3.B, C=m3.C)
        assert twin.eig_m is not m3.eig_m
        assert np.array_equal(twin.eig_m.vectors, m3.eig_m.vectors)

    def test_a_points_are_the_lowest_member_of_each_cluster(self, rng):
        # matrix_tol(A) = 1e-10 * 5 * 9: {1, 1 + 1e-13}, {5, 5 + 1e-12}, {9}
        clustered = BlockOperatorMatrix(
            A=np.diag([5.0 + 1e-12, 1.0, 9.0, 1.0 + 1e-13, 5.0]),
            B=np.ones((5, 1)), C=[[0.0]])
        assert clustered.a_points.tolist() == [1.0, 5.0, 9.0]
        blocks = [clustered, golden_block(), *(random_block(rng) for _ in range(5))]
        for block in blocks:
            spec, labels = block.eig_a.eigenvalues, block.a_clusters
            want = [spec[labels == k].min() for k in range(labels[-1] + 1)]
            assert block.a_points.tolist() == want
            assert block.a_points is block.a_points
            with pytest.raises(ValueError):
                block.a_points[0] = 0.0

    def test_coupling_gram_is_the_exact_hermitian_part(self, rng):
        blocks = [random_block(rng) for _ in range(20)]
        blocks += [golden_block(), large_complex_block(7),
                   discretize(constant_profile(), 24).block]
        for block in blocks:
            product = block.B @ block.B.conj().T
            want = 0.5 * (product + product.conj().T)
            gram = block.coupling_gram
            assert gram.dtype == product.dtype
            assert gram.tobytes() == want.tobytes()
            assert np.array_equal(gram, gram.conj().T)
            top = np.linalg.eigvalsh(want)[-1]
            assert type(block.coupling_top) is float
            assert block.coupling_top == top
            assert np.float64(block.coupling_top).tobytes() == top.tobytes()
        empty = BlockOperatorMatrix(A=np.zeros((0, 0)), B=np.zeros((0, 2)),
                                    C=np.eye(2))
        assert empty.coupling_top == 0.0

    def test_coupling_top_is_solved_once(self, monkeypatch):
        block = golden_block()
        solves = []
        original = np.linalg.eigvalsh

        def spy(mat, *args, **kwargs):
            solves.append(np.shape(mat))
            return original(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        top = block.coupling_top
        assert block.coupling_top is top
        assert solves == [(block.n1, block.n1)]

    def test_c_is_the_top_of_sigma_c(self, m3, rng):
        assert m3.c == -1.0
        for _ in range(5):
            block = random_block(rng)
            assert type(block.c) is float
            assert block.c == block.eig_c.eigenvalues.max()

    def test_assembled_tol_matches_matrix_tol(self, rng):
        from specblock.tolerance import matrix_tol
        for _ in range(5):
            block = random_block(rng)
            assert block.assembled_tol == matrix_tol(assemble(block))


class TestAssemble:
    def test_cubic_fixture_block_placement(self, m3):
        assert np.array_equal(assemble(m3).real, M3_FULL)
        assert np.max(np.abs(assemble(m3).imag)) == 0.0

    def test_decoupled_spectrum_is_union(self, rng):
        a = np.diag(rng.uniform(-5, 5, 4))
        c = np.diag(rng.uniform(-5, 5, 3))
        block = BlockOperatorMatrix(A=a, B=np.zeros((4, 3)), C=c)
        expected = np.sort(np.concatenate([np.diag(a), np.diag(c)]))
        got = hermitian_eig(assemble(block)).eigenvalues
        assert np.allclose(got, expected, atol=1e-12)

    def test_one_by_one_closed_form(self):
        block = BlockOperatorMatrix(A=[[2.0]], B=[[1.0]], C=[[0.0]])
        lo, hi = herm2x2_eigs(2.0, 1.0, 0.0)
        got = hermitian_eig(assemble(block)).eigenvalues
        assert got[0] == pytest.approx(1.0 - np.sqrt(2.0), abs=1e-12)
        assert got[1] == pytest.approx(1.0 + np.sqrt(2.0), abs=1e-12)
        assert np.allclose(got, [lo, hi], atol=1e-12)

    def test_equals_np_block_bit_for_bit(self, rng, m3):
        blocks = [random_block(rng) for _ in range(4)] + [
            m3, discretize(constant_profile(), 8).block,
            load_problem(str(GOLDEN_BLOCK)).block,
            # complex A with a real coupling, and the reverse
            BlockOperatorMatrix(A=[[1.0, 1j], [-1j, 2.0]], B=[[0.5], [-0.0]],
                                C=[[3.0]]),
            BlockOperatorMatrix(A=np.diag([1.0, 2.0]), B=[[0.5j], [-0.0]],
                                C=[[3.0]])]
        for block in blocks:
            want = np.block([[block.A, block.B], [block.B.conj().T, block.C]])
            got = assemble(block)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


SPECTRA = ("eig_a", "eig_c", "eig_m", "coupling_top")


def stack_fill_instances(rng):
    """Random, separated, ladder and pushed instances; the fixture and the
    pushed blocks are float64, a separated C may have order 1, and the MHD
    C's nonzero pattern splits into 2x2 blocks."""
    found = [random_block(rng) for _ in range(6)]
    found += [selftest.separated_block(rng)[0] for _ in range(6)]
    found += [selftest.ladder_block(rng) for _ in range(6)]
    found += [selftest._window_instance(rng, 2) for _ in range(6)]
    found += [selftest.fixture_block(),
              discretize(constant_profile(), 8).block,
              BlockOperatorMatrix(A=np.diag([1.0, 3.0]), B=[[0.5], [0.25j]],
                                  C=[[-2.0]])]
    return found


def twin(block):
    return BlockOperatorMatrix(A=block.A, B=block.B, C=block.C)


def assert_same_spectra(filled, single, names=SPECTRA):
    for name in names:
        got, want = getattr(filled, name), getattr(single, name)
        if name == "coupling_top":
            assert got.hex() == want.hex()
            continue
        for arr in ("eigenvalues", "vectors"):
            a, b = getattr(got, arr), getattr(want, arr)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
            assert not a.flags.writeable


class TestFillSpectra:
    """blocks.fill_spectra fills the cached spectra from stacked solves, to
    the bits of the single solves."""

    def test_equals_the_single_solves(self, rng):
        blocks = stack_fill_instances(rng)
        singles = [twin(block) for block in blocks]
        assert any(b.n2 == 1 for b in blocks)
        real = [b for b in blocks
                if all(x.dtype == np.float64 for x in (b.A, b.B, b.C))]
        assert len(real) > 6 and len(real) < len(blocks)
        blocks_module.fill_spectra(blocks, SPECTRA)
        split = blocks[-2]
        for block, single in zip(blocks, singles):
            filled = [name for name in SPECTRA if name in block.__dict__]
            assert filled == [name for name in SPECTRA
                              if block is not split or name != "eig_c"]
            assert_same_spectra(block, single)

    def test_split_pattern_stays_on_components(self, monkeypatch):
        block = discretize(constant_profile(), 8).block
        blocks_module.fill_spectra([block], ("eig_c",))
        assert "eig_c" not in block.__dict__
        calls = []
        solve = linalg_module.hermitian_part_eig_by_components
        monkeypatch.setattr(blocks_module, "hermitian_part_eig_by_components",
                            lambda c: calls.append(1) or solve(c))
        block.eig_c
        assert calls == [1]

    def test_one_stacked_call_per_group(self, rng, monkeypatch):
        blocks = [random_block(rng) for _ in range(40)]
        blocks += [selftest._window_instance(rng, 2) for _ in range(3)]
        stacks = []
        eigh = np.linalg.eigh

        def spy(mat):
            stacks.append((mat.shape[1], mat.dtype.name))
            assert mat.ndim == 3
            return eigh(mat)
        monkeypatch.setattr(np.linalg, "eigh", spy)
        blocks_module.fill_spectra(blocks, ("eig_m",))
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        want = {(b.n1 + b.n2, b.eig_m.vectors.dtype.name) for b in blocks}
        assert (3, "float64") in want
        assert sorted(stacks) == sorted(want)

    def test_fills_only_what_is_asked_and_keeps_what_is_cached(self, rng):
        block = random_block(rng)
        eig_a = block.eig_a
        blocks_module.fill_spectra([block], ("eig_a", "coupling_top"))
        assert block.eig_a is eig_a
        assert "coupling_top" in block.__dict__
        assert "eig_m" not in block.__dict__ and "eig_c" not in block.__dict__

    def test_a_failed_stack_is_left_to_the_single_solves(self, rng,
                                                         monkeypatch):
        blocks = [random_block(rng) for _ in range(3)]
        eigh = np.linalg.eigh

        def failing(mat):
            if mat.ndim == 3:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(mat)
        monkeypatch.setattr(np.linalg, "eigh", failing)
        blocks_module.fill_spectra(blocks, ("eig_a", "eig_m"))
        assert all(name not in b.__dict__ for b in blocks
                   for name in ("eig_a", "eig_m"))
        assert_same_spectra(blocks[0], twin(blocks[0]), ("eig_a", "eig_m"))

    def test_overflowing_coupling_is_left_to_coupling_top(self):
        block = BlockOperatorMatrix(A=np.eye(2), B=[[1e200], [1.0]],
                                    C=[[0.0]])
        blocks_module.fill_spectra([block], ("coupling_top",))
        assert "coupling_top" not in block.__dict__
        with pytest.raises(ArgumentError, match="overflows"):
            block.coupling_top


class TestSchurComplement:
    def test_direct_arithmetic(self, m3):
        lam = 0.645
        # S = diag(2 - lam, 10 - lam) + [[1, 1], [1, 1]] / (1 + lam)
        w = 1.0 / (1.0 + lam)
        expected = np.array([[2.0 - lam + w, w], [w, 10.0 - lam + w]])
        assert np.allclose(schur_complement(m3, lam), expected, atol=1e-12)

    def test_decoupled_is_shifted_a(self, rng):
        a = np.diag([1.0, 4.0])
        block = BlockOperatorMatrix(A=a, B=np.zeros((2, 2)), C=np.diag([7.0, 8.0]))
        lam = 2.5
        assert np.allclose(schur_complement(block, lam), a - lam * np.eye(2),
                           atol=1e-14)

    def test_zero_eigenvalue_detects_spectrum(self, m3):
        lam1 = cubic_fixture_roots()[1]
        s_eigs = hermitian_eig(schur_complement(m3, lam1)).eigenvalues
        assert np.min(np.abs(s_eigs)) <= 1e-6

    def test_singular_shift_rejected(self, m3):
        with pytest.raises(SingularShiftError):
            schur_complement(m3, -1.0)

    def test_matches_linear_solve(self, rng):
        for _ in range(20):
            block = random_block(rng)
            lam = float(rng.uniform(-20.0, 20.0))
            c_shift = block.C - lam * np.eye(block.n2)
            if np.linalg.cond(c_shift) > 1e6:
                continue
            direct = (block.A - lam * np.eye(block.n1)
                      - block.B @ np.linalg.solve(c_shift, block.B.conj().T))
            scale = max(1.0, np.linalg.norm(direct, 2))
            assert np.linalg.norm(schur_complement(block, lam) - direct, 2) \
                <= 1e-9 * scale


    def test_array_of_shifts_equals_scalar_calls(self, rng):
        for _ in range(30):
            block = random_block(rng)
            spec_m = block.eig_m.eigenvalues
            shifts = np.concatenate([spec_m, rng.uniform(-30.0, 30.0, 4)])
            stack = schur_complement(block, shifts)
            assert stack.shape == (shifts.size, block.n1, block.n1)
            for lam, s in zip(shifts, stack):
                single = schur_complement(block, float(lam))
                assert np.array_equal(s.view(np.uint64), single.view(np.uint64))
        assert schur_complement(block, shifts[:0]).shape == (0, block.n1, block.n1)

    def test_singular_shift_in_an_array_rejected(self, m3):
        with pytest.raises(SingularShiftError, match="shift -1 is within"):
            schur_complement(m3, np.array([0.5, -1.0, 3.0]))
        with pytest.raises(ArgumentError):
            schur_complement(m3, np.ones((2, 2)))


class TestResolventBlock:
    def test_decoupled_block_diagonal(self):
        a = np.diag([1.0, 4.0])
        c = np.diag([9.0])
        block = BlockOperatorMatrix(A=a, B=np.zeros((2, 1)), C=c)
        alpha = 2.0
        res = resolvent_block(block, alpha)
        expected = np.diag([1.0 / (1.0 - alpha), 1.0 / (4.0 - alpha),
                            1.0 / (9.0 - alpha)])
        assert np.allclose(res, expected, atol=1e-12)

    def test_matches_direct_inverse(self, m3):
        res = resolvent_block(m3, 6.0)
        direct = np.linalg.inv(M3_FULL - 6.0 * np.eye(3))
        assert np.allclose(res, direct, atol=1e-8 * np.linalg.norm(direct, 2))

    def test_one_by_one_exact(self):
        block = BlockOperatorMatrix(A=[[2.0]], B=[[1.0]], C=[[0.0]])
        res = resolvent_block(block, -1.0)
        assert np.allclose(res, [[0.5, -0.5], [-0.5, 1.5]], atol=1e-12)

    def test_shift_on_spectrum_rejected(self, m3):
        lam = hermitian_eig(M3_FULL).eigenvalues[1]
        with pytest.raises(SingularShiftError):
            resolvent_block(m3, float(lam))

    def test_random_instances_match_inverse(self, rng):
        for _ in range(25):
            block = random_block(rng)
            full = assemble(block)
            spec_m = hermitian_eig(full).eigenvalues
            spec_c = hermitian_eig(block.C).eigenvalues
            alpha = float(spec_m[-1]) + 1.0
            if min(spectral_distance(alpha, spec_m),
                   spectral_distance(alpha, spec_c)) < 1e-6:
                continue
            res = resolvent_block(block, alpha)
            direct = np.linalg.inv(full - alpha * np.eye(full.shape[0]))
            rel = np.linalg.norm(res - direct, 2) / np.linalg.norm(direct, 2)
            assert rel <= 1e-8


class TestRelativeBound:
    def test_negative_constants_rejected(self):
        with pytest.raises(ArgumentError):
            RelativeBound(-0.1, 0.0)

    def test_minimal_b_at_zero(self, m3):
        # BB* = [[1, 1], [1, 1]] has top eigenvalue 2
        assert minimal_b_for_a(m3, 0.0).b == pytest.approx(2.0, abs=1e-12)

    def test_decoupled_needs_nothing(self):
        block = BlockOperatorMatrix(A=np.diag([1.0, 2.0]), B=np.zeros((2, 1)),
                                    C=[[0.0]])
        for a in (0.0, 0.7, 3.0):
            assert minimal_b_for_a(block, a).b == 0.0

    def test_a_one_already_dominates(self, m3):
        # lambda_max of [[-1, 1], [1, -9]] is -5 + sqrt(17) < 0
        lo, hi = herm2x2_eigs(-1.0, 1.0, -9.0)
        assert hi == pytest.approx(-5.0 + np.sqrt(17.0), abs=1e-12)
        assert hi < 0
        assert minimal_b_for_a(m3, 1.0).b == 0.0

    def test_a_zero_reads_the_cached_coupling_top(self, rng, monkeypatch):
        blocks = [random_block(rng) for _ in range(5)] + [golden_block()]
        tops = [block.coupling_top for block in blocks]

        def unexpected(*args, **kwargs):
            raise AssertionError("B B* - 0 A solved again")

        monkeypatch.setattr(np.linalg, "eigvalsh", unexpected)
        for block, top in zip(blocks, tops):
            assert minimal_b_for_a(block, 0.0) == RelativeBound(0.0, max(0.0, top))

    def test_negative_a_rejected(self, m3):
        with pytest.raises(ArgumentError):
            minimal_b_for_a(m3, -1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_raises_argument_error(self, m3):
        # The derived matrices are solved without validation; an overflow
        # in forming them raises with its cause, and numpy does not warn.
        with pytest.raises(ArgumentError) as info:
            minimal_b_for_a(m3, 1e308)
        assert str(info.value) == "B B* - a A overflows double precision"
        with pytest.raises(ArgumentError) as info:
            relative_bound_margin(m3, RelativeBound(1e308, 0.0))
        assert str(info.value) == "a A + b I - B B* overflows double precision"
        # B B* is finite here, but not its Hermitian part (G + G*)/2.
        big = BlockOperatorMatrix(A=np.eye(2), B=[[1e154], [1e154]], C=[[0.0]])
        assert np.isfinite(big.B @ big.B.T).all()
        with pytest.raises(ArgumentError, match="coupling Gram matrix B B"):
            big.coupling_top

    def test_margin_and_tightness(self, rng):
        for _ in range(30):
            block = random_block(rng)
            rb = minimal_b_for_a(block, float(rng.uniform(0.0, 2.0)))
            margin = relative_bound_margin(block, rb)
            assert margin >= -1e-9
            if rb.b > 0.0:
                assert abs(margin) <= 1e-6
                # the witness achieves near equality in the quadratic form
                gap = (rb.a * block.A + rb.b * np.eye(block.n1)
                       - block.B @ block.B.conj().T)
                witness = np.linalg.eigh(gap)[1][:, 0]
                lhs = np.linalg.norm(block.B.conj().T @ witness) ** 2
                rhs = (rb.a * np.real(witness.conj() @ (block.A @ witness))
                       + rb.b)
                assert lhs == pytest.approx(rhs, abs=1e-6 * max(1.0, abs(rhs)))

    def test_best_scan_beats_or_ties_zero(self, m3):
        rb = best_relative_bound(m3)
        margin = relative_bound_margin(m3, rb)
        assert margin >= -1e-9
        mu = 2.0
        c = -1.0
        width = eigenvalue_window(mu, c, rb).width
        width0 = eigenvalue_window(mu, c, minimal_b_for_a(m3, 0.0)).width
        assert width <= width0 + 1e-12

    def test_best_scan_decoupled(self):
        block = BlockOperatorMatrix(A=np.diag([1.0, 2.0]), B=np.zeros((2, 1)),
                                    C=[[0.0]])
        rb = best_relative_bound(block)
        assert rb.a == 0.0 and rb.b == 0.0

    def test_best_scan_empty_a(self):
        block = BlockOperatorMatrix(A=np.zeros((0, 0)), B=np.zeros((0, 2)),
                                    C=np.eye(2))
        assert best_relative_bound(block) == RelativeBound(0.0, 0.0)


def reference_gram_top(block):
    """lambda_max(B B*) of the validated product, with no help from the
    block's caches."""
    product = block.B @ block.B.conj().T
    return float(hermitian_part_eigvals(require_hermitian(product))[-1])


def scan_grid(block):
    """The 21 grid points of the scan and disc at each: a = 0 reads
    lambda_max(B B*), since B B* - 0 A is B B*, and every other point goes
    through minimal_b_for_a, one a at a time."""
    lam_bbs = reference_gram_top(block)
    mu = float(block.eig_a.eigenvalues[0])
    c = block.c
    denom = max(mu, matrix_tol(block.A), BASE_TOL)
    points = []
    for a in np.linspace(0.0, lam_bbs / denom, 21):
        rb = (minimal_b_for_a(block, float(a)) if a
              else RelativeBound(0.0, max(0.0, lam_bbs)))
        points.append((rb, ((mu - c) / 2.0) ** 2 + rb.a * (rb.a + c) + rb.b))
    return points


def reference_best_relative_bound(block):
    """The full scan, one a at a time."""
    if reference_gram_top(block) <= 0.0:
        return RelativeBound(0.0, 0.0)
    points = scan_grid(block)
    best, best_width = points[0][0], np.inf
    for rb, disc in points:
        if disc >= 0.0 and 2.0 * np.sqrt(disc) < best_width:
            best, best_width = rb, 2.0 * np.sqrt(disc)
    return best


def golden_block():
    return load_problem(GOLDEN_BLOCK).block


def large_complex_block(seed):
    """n1 = 200, n2 = 100 with a complex coupling and A >= 100 - O(30)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((200, 200))
    c = rng.standard_normal((100, 100))
    return BlockOperatorMatrix(
        A=a + a.T + 100.0 * np.eye(200),
        B=rng.standard_normal((200, 100)) + 1j * rng.standard_normal((200, 100)),
        C=c + c.T)


def scan_block(seed, spectrum_a, top_c, n2=20, coupling=0.3):
    """A with the given spectrum in a random unitary basis, a complex
    Gaussian B of the given scale and a diagonal C with max sigma(C) = top_c."""
    rng = np.random.default_rng(seed)
    n1 = spectrum_a.size
    q, _ = np.linalg.qr(rng.standard_normal((n1, n1))
                        + 1j * rng.standard_normal((n1, n1)))
    b = coupling * (rng.standard_normal((n1, n2))
                    + 1j * rng.standard_normal((n1, n2)))
    return BlockOperatorMatrix(A=(q * spectrum_a) @ q.conj().T, B=b,
                               C=np.diag(top_c - np.arange(n2, dtype=float)))


def count_grid_solves(monkeypatch, block):
    """best_relative_bound(block) and the number of matrices it hands to
    eigvalsh besides B B*, which the fresh block solves once for a = 0."""
    solved = []
    original = np.linalg.eigvalsh

    def spy(mat, *args, **kwargs):
        solved.append(1 if np.ndim(mat) == 2 else len(mat))
        return original(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    rb = best_relative_bound(block)
    monkeypatch.undo()
    return rb, sum(solved) - 1


class TestStackedRelativeBoundScan:
    def test_matches_the_per_a_loop(self, rng):
        interior = 0
        for idx in range(50):
            block = random_block(rng)
            if idx % 2:
                # a positive definite A puts the best a inside the grid
                lift = float(rng.uniform(1.0, 60.0)) - block.eig_a.eigenvalues[0]
                block = BlockOperatorMatrix(A=block.A + lift * np.eye(block.n1),
                                            B=block.B, C=block.C)
            rb = best_relative_bound(block)
            assert rb == reference_best_relative_bound(block)
            interior += rb.a > 0.0
        assert interior >= 10

    def test_matches_the_per_a_loop_on_a_large_block(self):
        block = large_complex_block(7)
        rb = best_relative_bound(block)
        assert rb == reference_best_relative_bound(block)
        assert rb.a > 0.0 and rb.b > 0.0

    def test_matches_the_per_a_loop_on_the_golden_block(self):
        block = golden_block()
        assert best_relative_bound(block) == reference_best_relative_bound(block)

    def test_matches_the_per_a_loop_with_a_zero_row_in_b(self, rng):
        block = random_block(rng)
        while block.n1 < 3:
            block = random_block(rng)
        b = np.array(block.B)
        b[1] = 0.0
        lift = 5.0 - block.eig_a.eigenvalues[0]
        for a in (block.A, block.A + lift * np.eye(block.n1)):
            zero_row = BlockOperatorMatrix(A=a, B=b, C=block.C)
            assert not zero_row.coupling_gram[1].any()
            assert (best_relative_bound(zero_row)
                    == reference_best_relative_bound(zero_row))

    # Chunks of 18, 4 and 1 grid matrices; top_c places the argmin of disc
    # at the first point, inside the grid or at the last point.
    @pytest.mark.parametrize("n1", [60, 120, 200])
    @pytest.mark.parametrize("top_c, where", [(50.0, "first"),
                                              (-20.0, "interior"),
                                              (-1000.0, "last")])
    def test_several_chunks(self, monkeypatch, n1, top_c, where):
        block = scan_block(n1, np.linspace(1.0, 10.0, n1), top_c)
        rb, solved = count_grid_solves(monkeypatch, block)
        assert rb == reference_best_relative_bound(block)
        index = [p.a for p, _ in scan_grid(block)].index(rb.a)
        assert {"first": index == 0, "interior": 0 < index < 20,
                "last": index == 20}[where]
        assert solved == 20 if where == "last" else solved < 20

    @pytest.mark.parametrize("n1", [60, 120, 200])
    def test_negative_disc_points_are_skipped(self, n1):
        # A has -1 in a channel that B does not reach, and c < 0 puts the
        # exact zero of disc at grid point 1, where rounding makes it < 0
        # for this seed.
        rng = np.random.default_rng(6)
        a = np.diag(np.concatenate([[-1.0], rng.uniform(1.0, 10.0, n1 - 1)]))
        b = rng.standard_normal((n1, 6))
        b[0] = 0.0
        a_max = (float(hermitian_part_eigvals(require_hermitian(b @ b.T))[-1])
                 / matrix_tol(a))
        top = 1.0 + 2.0 * np.linspace(0.0, a_max, 21)[1]
        block = BlockOperatorMatrix(A=a, B=b,
                                    C=np.diag(-top - np.arange(6.0)))
        assert block.c < 0.0
        discs = [disc for _, disc in scan_grid(block)]
        assert discs[1] < 0.0 and min(discs[2:]) > 0.0
        rb = best_relative_bound(block)
        assert rb == reference_best_relative_bound(block)
        assert rb.a == scan_grid(block)[2][0].a

    @pytest.mark.parametrize("n1", [120, 200])
    def test_rises_at_rounding_level_do_not_end_the_scan(self, n1):
        # A = 1e8 I and c = 1e8 - a_max: the exact disc varies by about
        # 1e-13 over the grid, so the computed one rises and falls with
        # rounding before its minimum.
        block = scan_block(n1, np.full(n1, 1e8), 0.0)
        a_max = scan_grid(block)[-1][0].a
        block = BlockOperatorMatrix(
            A=block.A, B=block.B, C=np.diag(1e8 - a_max - np.arange(20.0)))
        rb = best_relative_bound(block)
        assert rb == reference_best_relative_bound(block)
        points = scan_grid(block)
        index = [p.a for p, _ in points].index(rb.a)
        assert np.any(np.diff([disc for _, disc in points])[:index] > 0.0)

    @pytest.mark.parametrize("n1", [8, 60, 200])
    def test_tiny_coupling(self, n1):
        block = scan_block(n1, 1.0 + np.arange(n1) ** 2 / 2.0, -2.0,
                           coupling=1e-5)
        assert scan_grid(block)[-1][0].a <= 1e-6
        assert best_relative_bound(block) == reference_best_relative_bound(block)

    def test_block_sweep_shape_solves_two_grid_points(self, monkeypatch):
        # The shape of the benchmark's block-sweep input: A with the ladder
        # 1 + k^2/2, max sigma(C) = -2 and B of scale 0.3.  The minimum of
        # disc is at grid point 1, and the rise to point 2 ends the scan;
        # point 0 reads lambda_max(B B*).
        block = scan_block(43, 1.0 + np.arange(200) ** 2 / 2.0, -2.0,
                           n2=100, coupling=0.3 / np.sqrt(2.0))
        rb, solved = count_grid_solves(monkeypatch, block)
        assert rb == reference_best_relative_bound(block)
        assert rb.a == scan_grid(block)[1][0].a
        assert solved == 2


class TestLandmarks:
    def test_cubic_fixture(self, m3):
        marks = m3.landmarks
        roots = cubic_fixture_roots()
        assert marks.c == pytest.approx(-1.0, abs=1e-12)
        assert marks.c_tilde == pytest.approx(0.5 * (-1.0 + roots[1]), abs=1e-9)
        assert marks.kappa == 0
        assert np.allclose(marks.lambda_above_c, roots[1:], atol=1e-9)

    def test_decoupled(self):
        block = BlockOperatorMatrix(A=[[5.0]], B=[[0.0]], C=[[1.0]])
        marks = block.landmarks
        assert marks.c == 1.0
        assert marks.c_tilde == pytest.approx(3.0, abs=1e-12)
        assert marks.kappa == 0

    def test_depressed_channel_kappa_confirmed_by_schur_oracle(self):
        # kappa here comes out 0: the Schur complement at c~ is positive in
        # both channels, confirmed by direct 2x2 arithmetic.
        block = BlockOperatorMatrix(A=np.diag([0.5, 20.0]), B=[[2.0], [0.0]],
                                    C=[[-2.0]])
        marks = block.landmarks
        ct = marks.c_tilde
        s_diag = (0.5 - ct - 4.0 / (-2.0 - ct), 20.0 - ct)
        oracle_kappa = sum(1 for v in s_diag if v < 0.0)
        assert oracle_kappa == 0
        assert marks.kappa == oracle_kappa

    def test_gap_above_c_is_clean(self, rng):
        # (c, c_tilde] never contains assembled spectrum
        for _ in range(40):
            block = random_block(rng)
            try:
                marks = block.landmarks
            except LandmarkError:
                continue
            spec_m = hermitian_eig(assemble(block)).eigenvalues
            inside = (spec_m > marks.c + 1e-9) & (spec_m <= marks.c_tilde)
            assert not np.any(inside)

    def test_no_spectrum_above_c(self):
        block = BlockOperatorMatrix(A=[[-5.0]], B=[[0.0]], C=[[1.0]])
        for _ in range(2):  # the error is raised again, not cached
            with pytest.raises(LandmarkError):
                block.landmarks

    def test_solved_once_per_block(self, monkeypatch):
        calls = []
        original = blocks_module.schur_complement

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(blocks_module, "schur_complement", counting)
        block = BlockOperatorMatrix(A=np.diag([2.0, 10.0]), B=[[1.0], [1.0]],
                                    C=[[-1.0]])
        marks = block.landmarks
        assert block.landmarks is marks
        assert calls == [marks.c_tilde]
        assert not marks.lambda_above_c.flags.writeable


    def test_schur_complements_are_not_validated_again(self, monkeypatch):
        # schur_complement returns an exact Hermitian part: kappa and the
        # resolvent's singularity test solve it without require_hermitian
        rng = np.random.default_rng(17)
        blocks = [block for block in (random_block(rng) for _ in range(30))
                  if block.eig_m.eigenvalues[-1] > block.c + 1e-6]
        kappas = [hermitian_part_eigvals(require_hermitian(schur_complement(
            block, block.landmarks.c_tilde))) for block in blocks]
        calls = []
        original = linalg_module.require_hermitian

        def counting(mat):
            calls.append(np.shape(mat))
            return original(mat)

        monkeypatch.setattr(linalg_module, "require_hermitian", counting)
        monkeypatch.setattr(blocks_module, "require_hermitian", counting)
        for block, vals in zip(blocks, kappas):
            fresh = BlockOperatorMatrix(A=block.A, B=block.B, C=block.C)
            calls.clear()
            marks = fresh.landmarks
            alpha = float(fresh.eig_m.eigenvalues[-1]) + 1.0
            resolvent_block(fresh, alpha)
            assert calls == []
            assert marks.kappa == int(np.sum(
                vals < -matrix_tol(schur_complement(block, marks.c_tilde))))


def test_schur_spectrum_equivalence(rng):
    # both directions of the zero-eigenvalue criterion on random instances
    for _ in range(60):
        block = random_block(rng)
        full = assemble(block)
        spec_m = hermitian_eig(full).eigenvalues
        spec_c = hermitian_eig(block.C).eigenvalues
        for lam in spec_m:
            if spectral_distance(float(lam), spec_c) <= 1e-6:
                continue
            s_eigs = hermitian_eig(schur_complement(block, float(lam))).eigenvalues
            assert np.min(np.abs(s_eigs)) <= 1e-6
        scan = np.linspace(float(spec_m[0]) - 1.0, float(spec_m[-1]) + 1.0, 11)
        for lam in np.concatenate([spec_m, scan]):
            if spectral_distance(float(lam), spec_c) <= 1e-6:
                continue
            s_eigs = hermitian_eig(schur_complement(block, float(lam))).eigenvalues
            if np.min(np.abs(s_eigs)) <= 1e-9:
                assert spectral_distance(float(lam), spec_m) <= 1e-6


def _symmetric(rng, n):
    x = rng.uniform(-10.0, 10.0, (n, n))
    return 0.5 * (x + x.T)


def _mhd_blocks():
    """MHD blocks, which discretize emits in the real similar form."""
    yield discretize(constant_profile(), 24).block
    profile = profile_from_functions(lambda x: 1.0 + x, 1.0, 1.0, 1.0, 1.0,
                                     g=0.3, grid_n=33)
    yield discretize(profile, 32).block


def _imaginary_coupling_blocks(rng):
    """Real A and C with B = iR: the MHD blocks with their coupling iR, and
    random blocks."""
    for block in _mhd_blocks():
        yield BlockOperatorMatrix(A=block.A, B=-1j * block.B, C=block.C)
    for n1, n2 in ((1, 1), (3, 5), (8, 2), (12, 12)):
        yield BlockOperatorMatrix(A=_symmetric(rng, n1),
                                  B=1j * rng.uniform(-10.0, 10.0, (n1, n2)),
                                  C=_symmetric(rng, n2))


def _solved_matrices(monkeypatch, block):
    """The matrices eig_m hands to hermitian_eig or hermitian_part_eig."""
    seen = []
    for name in ("hermitian_eig", "hermitian_part_eig"):
        def spy(mat, original=getattr(blocks_module, name)):
            seen.append(np.array(mat, copy=True))
            return original(mat)

        monkeypatch.setattr(blocks_module, name, spy)
    block.eig_m
    return seen


def _validated_matrices(monkeypatch, block):
    """The matrices require_hermitian checks while eig_m runs."""
    seen = []
    original = linalg_module.require_hermitian

    def spy(mat):
        seen.append(np.array(mat, copy=True))
        return original(mat)

    monkeypatch.setattr(linalg_module, "require_hermitian", spy)
    monkeypatch.setattr(blocks_module, "require_hermitian", spy)
    block.eig_m
    return seen


def _similar(block):
    """The real similar block (A, -R, C) = D*(A, iR, C)D, D = diag(I, iI)."""
    return BlockOperatorMatrix(A=block.A, B=-block.B.imag, C=block.C)


def _assert_phase_rule(vectors):
    for col in vectors.T:
        pivot = col[np.nonzero(np.abs(col) > PHASE_ZERO_TOL)[0][0]]
        assert pivot.imag == 0.0 and pivot.real > 0.0


class TestImaginaryCoupling:
    """Real A, C and B = iR take the general complex path: eig(M) solves the
    complex assembled matrix.  The real similar block (A, -R, C) =
    D*(A, iR, C)D with D = diag(I, iI) is solved in float64 and has the same
    spectrum, with eigenvectors mapped by D."""

    def test_eigenpairs_of_the_assembled_matrix(self, rng, monkeypatch):
        for block in _imaginary_coupling_blocks(rng):
            assert not np.count_nonzero(block.B.real)
            assert block.A.dtype == block.C.dtype == np.float64
            solved = _solved_matrices(monkeypatch, block)
            assert len(solved) == 1
            assert np.array_equal(solved[0], assemble(block))
            dec = block.eig_m
            full = assemble(block)
            tol = block.assembled_tol
            assert np.max(np.abs(dec.eigenvalues
                                 - np.linalg.eigvalsh(full))) <= tol
            residual = full @ dec.vectors - dec.vectors * dec.eigenvalues
            assert np.linalg.norm(residual, 2) <= tol
            assert orthonormality_defect(dec.vectors) <= 1e-12 * full.shape[0]
            assert dec.vectors.dtype == np.complex128
            similar = _similar(block)
            assert similar.eig_m.vectors.dtype == np.float64
            assert np.max(np.abs(similar.eig_m.eigenvalues
                                 - dec.eigenvalues)) <= tol
            for arr in (dec.eigenvalues, dec.vectors):
                with pytest.raises(ValueError):
                    arr[0, ...] = 0.0

    def test_the_similar_matrix_is_not_validated_again(self, rng,
                                                       monkeypatch):
        for block in _imaginary_coupling_blocks(rng):
            assert _validated_matrices(monkeypatch, block) == []
            assert _validated_matrices(monkeypatch, _similar(block)) == []

    def test_phase_rule_holds_after_the_mapping(self, rng):
        for block in _imaginary_coupling_blocks(rng):
            _assert_phase_rule(block.eig_m.vectors)
            dec = _similar(block).eig_m
            _assert_phase_rule(dec.vectors)
            # D maps eigenvectors of the similar block to those of M.
            d = np.concatenate([np.ones(block.n1), np.full(block.n2, 1j)])
            mapped = linalg_module._normalize_phases(d[:, None] * dec.vectors)
            _assert_phase_rule(mapped)
            full = assemble(block)
            residual = full @ mapped - mapped * dec.eigenvalues
            assert np.linalg.norm(residual, 2) <= block.assembled_tol

    def test_mixed_input_takes_the_complex_path(self, rng, monkeypatch):
        a, c = _symmetric(rng, 4), _symmetric(rng, 3)
        r = rng.uniform(-10.0, 10.0, (4, 3))
        skew_a, skew_c = (1j * (x - x.T) for x in (rng.uniform(size=(4, 4)),
                                                   rng.uniform(size=(3, 3))))
        for block in (BlockOperatorMatrix(A=a, B=r + 1j * r, C=c),
                      BlockOperatorMatrix(A=a + skew_a, B=1j * r, C=c),
                      BlockOperatorMatrix(A=a, B=1j * r, C=c + skew_c)):
            solved = _solved_matrices(monkeypatch, block)
            assert len(solved) == 1
            assert np.array_equal(solved[0], assemble(block))
            assert np.count_nonzero(solved[0].imag)

    def test_real_coupling_solves_the_assembled_matrix(self, m3, monkeypatch):
        solved = _solved_matrices(monkeypatch, m3)
        assert len(solved) == 1 and np.array_equal(solved[0], assemble(m3))

    def test_assembled_matrices_are_validated(self, rng, monkeypatch):
        # Through A and C, once, when the block is built.
        seen = []
        original = linalg_module.require_hermitian

        def spy(mat):
            seen.append(np.array(mat, copy=True))
            return original(mat)

        monkeypatch.setattr(blocks_module, "require_hermitian", spy)
        a, c = _symmetric(rng, 4), _symmetric(rng, 3)
        BlockOperatorMatrix(A=a, B=(1.0 + 1j) * rng.uniform(size=(4, 3)), C=c)
        assert len(seen) == 2
        assert np.array_equal(seen[0], a) and np.array_equal(seen[1], c)

    def test_the_assembled_matrix_is_not_validated_again(self, rng, m3,
                                                         monkeypatch):
        def skew(n):
            x = rng.uniform(-1.0, 1.0, (n, n))
            return 1j * (x - x.T)

        parts = [(m3.A, m3.B, m3.C),
                 (_symmetric(rng, 4), (1.0 + 1j) * rng.uniform(size=(4, 3)),
                  _symmetric(rng, 3)),
                 (_symmetric(rng, 6) + skew(6),
                  rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5)),
                  _symmetric(rng, 5) + skew(5))]
        for _ in range(20):
            blk = random_block(rng)
            parts.append((blk.A, blk.B, blk.C))
        for a, b, c in parts:
            block = BlockOperatorMatrix(A=a, B=b, C=c)
            assert _validated_matrices(monkeypatch, block) == []
            block = BlockOperatorMatrix(A=a, B=b, C=c)
            solved = _solved_matrices(monkeypatch, block)
            assert len(solved) == 1
            assert np.array_equal(solved[0], assemble(block))
            # The result is the one validating M first would give.
            checked = linalg_module.hermitian_eig(assemble(block))
            assert block.eig_m.eigenvalues.tobytes() == \
                checked.eigenvalues.tobytes()
            assert block.eig_m.vectors.tobytes() == checked.vectors.tobytes()


def complex_schur(block, shifts):
    """The complex128 Schur formula: (B V_C) diag(1/(gamma - lam)) (B V_C)*,
    in complex arithmetic whatever the stored dtypes."""
    lams = np.asarray(shifts, dtype=float)
    bv = block.B.astype(complex) @ block.eig_c.vectors.astype(complex)
    gaps = block.eig_c.eigenvalues - lams[:, None]
    s = (block.A.astype(complex) - lams[:, None, None] * np.eye(block.n1)
         - (bv / gaps[:, None, :]) @ bv.conj().T)
    return 0.5 * (s + s.conj().swapaxes(-2, -1))


def _real_form_blocks(rng):
    """Real A, B and C: the MHD blocks, the real similar forms of the B = iR
    blocks, and random blocks with a real B."""
    yield from _mhd_blocks()
    for block in _imaginary_coupling_blocks(rng):
        yield _similar(block)
    for n1, n2 in ((1, 1), (3, 5), (8, 2), (12, 12)):
        yield BlockOperatorMatrix(A=_symmetric(rng, n1),
                                  B=rng.uniform(-10.0, 10.0, (n1, n2)),
                                  C=_symmetric(rng, n2))


def _shifts_off_sigma_c(block, rng):
    spec_c = block.eig_c.eigenvalues
    shifts = np.concatenate([[spec_c[0] - 0.7, spec_c[-1] + 0.3],
                             block.c + rng.uniform(0.5, 20.0, 3)])
    keep = [lam for lam in shifts
            if np.min(np.abs(spec_c - lam)) > 1e-3 * max(1.0, abs(lam))]
    return np.array(keep)


class TestRealFormSchur:
    """Real A, B and C: the Schur complement is formed from the real factor
    B V_C and returned as float64; any complex block keeps complex
    arithmetic."""

    def test_real_entries_are_stored_as_float64(self, rng, m3):
        for block in [m3, *_real_form_blocks(rng)]:
            assert block.A.dtype == block.B.dtype == block.C.dtype == np.float64
        a, c = _symmetric(rng, 4), _symmetric(rng, 3)
        r = rng.uniform(-10.0, 10.0, (4, 3))
        signed = r.astype(complex)
        signed.imag[:] = -0.0
        block = BlockOperatorMatrix(A=a.astype(complex), B=signed, C=c)
        assert block.A.dtype == block.B.dtype == np.float64
        assert np.array_equal(block.B, r) and np.array_equal(block.A, a)
        x = rng.uniform(size=(4, 4))
        skew = 1j * (x - x.T)
        for block, stored in (
                (BlockOperatorMatrix(A=a, B=r + 1j * r, C=c), "fcf"),
                (BlockOperatorMatrix(A=a + skew, B=r, C=c), "cff"),
                (BlockOperatorMatrix(A=a, B=1j * r, C=c), "fcf"),
                (BlockOperatorMatrix(A=a + skew, B=1j * r, C=c), "ccf")):
            kinds = "".join(arr.dtype.kind
                            for arr in (block.A, block.B, block.C))
            assert kinds == stored

    def test_float64_within_matrix_tol_of_the_complex_formula(self, rng):
        for block in _real_form_blocks(rng):
            shifts = _shifts_off_sigma_c(block, rng)
            w = block.coupling_in_c_basis
            assert w.dtype == np.float64
            bv = block.B.astype(complex) @ block.eig_c.vectors.astype(complex)
            d = rng.uniform(-1.0, 1.0, block.n2)
            gram = (bv * d) @ bv.conj().T
            assert np.max(np.abs((w * d) @ w.T - gram)) <= matrix_tol(gram)
            stack = schur_complement(block, shifts)
            want = complex_schur(block, shifts)
            assert stack.dtype == np.float64
            for lam, s, ref in zip(shifts, stack, want):
                single = schur_complement(block, float(lam))
                assert single.dtype == np.float64
                assert np.array_equal(single, s)
                assert np.array_equal(single, single.T)
                assert np.max(np.abs(single - ref)) <= matrix_tol(ref)

    def test_complex_blocks_keep_the_complex_arithmetic(self, rng):
        for _ in range(10):
            block = random_block(rng)
            shifts = _shifts_off_sigma_c(block, rng)
            assert block.coupling_in_c_basis.dtype == np.complex128
            stack = schur_complement(block, shifts)
            assert stack.dtype == np.complex128
            assert np.array_equal(stack, complex_schur(block, shifts))

    def test_a_complex_a_keeps_its_imaginary_part(self, rng):
        # A real B and C give a float64 W; S still carries Im A.
        for n1, n2 in ((2, 1), (4, 3), (9, 1)):
            x = rng.uniform(-1.0, 1.0, (n1, n1))
            block = BlockOperatorMatrix(
                A=_symmetric(rng, n1) + 1j * (x - x.T),
                B=rng.uniform(-3.0, 3.0, (n1, n2)), C=_symmetric(rng, n2))
            assert block.coupling_in_c_basis.dtype == np.float64
            shifts = _shifts_off_sigma_c(block, rng)
            stack = schur_complement(block, shifts)
            assert stack.dtype == np.complex128
            for s, ref in zip(stack, complex_schur(block, shifts)):
                assert np.array_equal(s.imag, block.A.imag)
                assert np.max(np.abs(s - ref)) <= matrix_tol(ref)
