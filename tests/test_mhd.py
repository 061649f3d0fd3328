import dataclasses
import json

import numpy as np
import pytest

from specblock import (
    ArgumentError,
    BlockOperatorMatrix,
    ProfileError,
    PlasmaProfile,
    RelativeBound,
    assemble,
    constant_profile,
    constants,
    discretize,
    essential_bands,
    hermitian_eig,
    minimal_b_for_a,
    profile_from_functions,
    relative_bound_margin,
    best_relative_bound,
    run_report,
)
from specblock import checks as checks_module
from specblock.mhd import BUILTIN_FIELDS, trial_space
from specblock.report import emit_json
from specblock.tolerance import EIGVEC_RESIDUAL_REL

from test_phases import assert_close


class TestPlasmaProfile:
    def test_rejects_nonpositive_density(self):
        with pytest.raises(ProfileError):
            constant_profile(rho=0.0)

    def test_rejects_vanishing_speeds(self):
        with pytest.raises(ProfileError):
            constant_profile(va2=0.0, vs2=0.0)

    def test_rejects_mismatched_grids(self):
        ones = np.ones(5)
        with pytest.raises(ProfileError):
            PlasmaProfile(ones, ones, np.ones(6), ones, ones, 0.0)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ProfileError):
            constant_profile(grid_n=2)

    def test_interpolation(self):
        p = profile_from_functions(lambda x: 1.0 + x, 1.0, 1.0, 1.0, 1.0,
                                   grid_n=11)
        assert p.at("rho", np.array([0.25])) == pytest.approx(1.25)


class TestConstants:
    def test_uniform_slab_closed_forms(self):
        a, b, c = constants(constant_profile())
        assert a == pytest.approx(2.5, abs=1e-12)
        assert b == pytest.approx(0.0, abs=1e-12)
        assert c == pytest.approx(2.0 + np.sqrt(2.0), abs=1e-12)

    def test_no_wave_vector_degenerates(self):
        a, b, c = constants(constant_profile(kperp=0.0, kpar=0.0))
        assert a == 0.0 and b == 0.0 and c == 0.0

    def test_linear_density_derivative_two_ways(self):
        # flux = rho (w kperp + vs2 kpar) = 3 (1 + x): derivative exactly 3,
        # so with g = 1 the b display evaluates in closed form
        p = profile_from_functions(lambda x: 1.0 + x, 1.0, 1.0, 1.0, 1.0,
                                   g=1.0, grid_n=41)
        a, b, c = constants(p)
        k2 = 2.0
        core = np.max(k2 * 1.0 - (1.0 / p.rho) * 3.0)
        expected = max(core - a * np.min(k2 * p.va2), 0.0)
        assert b == pytest.approx(expected, abs=1e-10)


class TestEssentialBands:
    def test_uniform_slab_squared(self):
        bands = essential_bands(constant_profile())
        assert (bands[0].lo, bands[0].hi) == (1.0, 1.0)
        assert (bands[1].lo, bands[1].hi) == (0.5, 0.5)

    def test_linear_kpar_sweeps_band(self):
        p = profile_from_functions(1.0, 1.0, 1.0, 1.0, lambda x: x, grid_n=41)
        bands = essential_bands(p)
        assert bands[0].lo == pytest.approx(0.0)
        assert bands[0].hi == pytest.approx(1.0)

    def test_zero_wave_vector_pins_zero(self):
        bands = essential_bands(constant_profile(kperp=0.0, kpar=0.0))
        assert bands[0].lo == bands[0].hi == 0.0
        assert bands[1].lo == bands[1].hi == 0.0

    def test_literal_variant_differs(self):
        p = constant_profile(kpar=2.0)
        squared = essential_bands(p, squared=True)
        literal = essential_bands(p, squared=False)
        assert squared[0].hi == pytest.approx(4.0)
        assert literal[0].hi == pytest.approx(2.0)


class TestDiscretize:
    def test_minimum_resolution(self):
        with pytest.raises(ArgumentError):
            discretize(constant_profile(), 4)

    def test_sturm_liouville_eigenvalues(self):
        disc = discretize(constant_profile(), 128)
        spec_a = hermitian_eig(disc.block.A).eigenvalues
        for n in (1, 2, 3):
            exact = 2.0 * np.pi ** 2 * n ** 2 + 2.0
            assert abs(spec_a[n - 1] - exact) / exact <= 0.02

    def test_a_block_real_symmetric_positive(self):
        disc = discretize(constant_profile(), 32)
        a = disc.block.A
        assert np.max(np.abs(a.imag)) == 0.0
        assert np.max(np.abs(a - a.conj().T)) == 0.0
        assert hermitian_eig(a).eigenvalues[0] > 0.0

    def test_assembly_hermitian_for_rough_profiles(self):
        p = profile_from_functions(
            lambda x: 1.0 + 0.4 * np.sin(2 * np.pi * x),
            lambda x: 1.0 + 0.2 * x,
            lambda x: 0.8 + 0.3 * np.cos(np.pi * x),
            lambda x: 1.0 + 0.5 * x,
            lambda x: 0.5 + x,
            g=0.7, grid_n=65)
        disc = discretize(p, 48)
        full = assemble(disc.block)
        scale = np.max(np.abs(full))
        assert np.max(np.abs(full - full.conj().T)) <= 1e-12 * scale

    def test_decoupled_spectrum_union(self):
        p = constant_profile(kperp=0.0, kpar=0.0)
        disc = discretize(p, 16)
        assert np.max(np.abs(disc.block.B)) == 0.0
        spec_m = hermitian_eig(assemble(disc.block)).eigenvalues
        spec_a = hermitian_eig(disc.block.A).eigenvalues
        spec_c = hermitian_eig(disc.block.C).eigenvalues
        union = np.sort(np.concatenate([spec_a, spec_c]))
        assert np.allclose(spec_m, union, atol=1e-9)

    def test_resolution_consistency(self):
        p = constant_profile()
        lead = {}
        for n in (64, 128):
            marks = discretize(p, n).block.landmarks
            lead[n] = marks.lambda_above_c[:5]
        rel = np.abs(lead[64] - lead[128]) / np.abs(lead[128])
        assert np.max(rel) <= 0.01


class TestContinuumConstantsOnDiscretization:
    def test_relative_bound_soundness(self):
        p = constant_profile()
        a, b, _ = constants(p)
        disc = discretize(p, 64)
        margin = relative_bound_margin(disc.block, RelativeBound(a, b))
        top = float(hermitian_eig(disc.block.coupling_gram).eigenvalues[-1])
        assert margin >= -(10.0 / 64) * max(1.0, top)
        assert minimal_b_for_a(disc.block, a).b <= b + (10.0 / 64) * max(1.0, top)


class TestRieszOnLeadingModes:
    def test_first_ten_eigenvectors_above_c(self):
        # the leading part of the ladder is invariant as well
        from specblock import GraphSubspace, Interval, angular_operator, riesz_check
        disc = discretize(constant_profile(), 64)
        block = disc.block
        marks = block.landmarks
        dec = hermitian_eig(assemble(block))
        idx = np.nonzero(dec.eigenvalues > marks.c + 1e-9)[0][:10]
        cols = dec.vectors[:, idx]
        sub = GraphSubspace(basis_first=cols[:block.n1],
                            basis_second=cols[block.n1:])
        k = angular_operator(sub)
        assert riesz_check(block, sub) <= EIGVEC_RESIDUAL_REL
        s = np.linalg.svd(sub.basis_first, compute_uv=False)
        assert s[-1] ** 2 == pytest.approx(1.0 / (1.0 + k.norm ** 2), rel=1e-12)
        assert s[0] <= 1.0 + 1e-12


class TestTrialSpace:
    def test_orthonormal_and_sized(self):
        disc = discretize(constant_profile(), 32)
        q = trial_space(disc, 20)
        assert q.shape == (96, 20)
        gram = q.conj().T @ q
        assert np.max(np.abs(gram - np.eye(20))) <= 1e-10

    def test_dimension_limits(self):
        disc = discretize(constant_profile(), 8)
        with pytest.raises(ArgumentError):
            trial_space(disc, 0)
        with pytest.raises(ArgumentError):
            trial_space(disc, 100)


class TestRunReport:
    def test_uniform_slab_all_pass(self):
        checks = run_report(discretize(constant_profile(), 64), 6)
        assert all(c.status == "pass" for c in checks), \
            [(c.name, c.status) for c in checks if c.status != "pass"]

    def test_decoupled_profile_trivially_passes(self):
        checks = run_report(
            discretize(constant_profile(kperp=0.0, kpar=0.0), 32), 4)
        by_name = {c.name: c for c in checks}
        assert by_name["mhd/angular-operator"].outputs["k_norm"] <= 1e-12
        assert all(c.status == "pass" for c in checks), \
            [(c.name, c.status) for c in checks if c.status != "pass"]


def _complex_twin(block):
    """(A, iR, C) for a block stored in the real similar form (A, -R, C) =
    D*(A, iR, C)D, D = diag(I, iI)."""
    return BlockOperatorMatrix(A=block.A, B=-1j * block.B, C=block.C)


def _floats(tree, path, out):
    # emit_json may write an integral float without a fraction
    if isinstance(tree, (int, float)) and not isinstance(tree, bool):
        out[path] = tree
    elif isinstance(tree, dict):
        for key, value in tree.items():
            _floats(value, f"{path}/{key}", out)
    elif isinstance(tree, list):
        for i, value in enumerate(tree):
            _floats(value, f"{path}[{i}]", out)
    return out


def assert_same_report(real, twin):
    """Statuses equal by position; every number within 1e-9 relative, or
    1e-15 absolute for round-off-level terms such as Bari terms near 1e-7,
    except the Riccati residual, which is <= 1e-12 on both sides."""
    assert [(c.name, c.status) for c in real] == \
        [(c.name, c.status) for c in twin]
    for ours, theirs in zip(real, twin):
        tree = [ours.inputs, ours.outputs, ours.margin]
        want = _floats(json.loads(emit_json(tree)), ours.name, {})
        got = _floats(json.loads(emit_json(
            [theirs.inputs, theirs.outputs, theirs.margin])), ours.name, {})
        assert got.keys() == want.keys(), set(got) ^ set(want)
        for key, x in want.items():
            y = got[key]
            if key.endswith("/riccati_residual"):
                assert max(x, y) <= 1e-12, key
            else:
                assert abs(x - y) <= 1e-9 * max(abs(x), abs(y)) + 1e-15, \
                    (key, x, y)


def _bench_profile(seed):
    """The seeded profile of the mhd-profile benchmark workload."""
    rng = np.random.default_rng(seed)
    slope, wobble = rng.uniform(0.2, 0.8), rng.uniform(0.1, 0.4)
    return profile_from_functions(
        lambda x: 1.0 + slope * x,
        lambda x: 1.0 + wobble * np.sin(np.pi * x), 1.0, 1.0, 1.0, g=0.3,
        grid_n=257)


def _real_block(seed):
    """A separated block with real A, C and coupling, as the selftest builds
    complex ones."""
    rng = np.random.default_rng(seed)
    n1, n2 = int(rng.integers(4, 9)), int(rng.integers(1, 5))
    mus = 5.0 + np.cumsum(rng.uniform(6.0, 16.0, n1))
    x = rng.uniform(-3.0, 3.0, (n2, n2))
    c0 = 0.5 * (x + x.T)
    c0 -= (np.linalg.eigvalsh(c0)[-1] - mus[0] + rng.uniform(4.0, 8.0)) \
        * np.eye(n2)
    r = rng.uniform(-1.5, 1.5, (n1, n2))
    return BlockOperatorMatrix(A=np.diag(mus), B=-r, C=c0)


class TestRealSimilarForm:
    """discretize emits (A, -R, C) = D*(A, iR, C)D: every report equals the
    one of the complex coupling iR up to round-off."""

    @pytest.mark.parametrize("profile, n", [
        (constant_profile(grid_n=65), 64),
        (profile_from_functions(BUILTIN_FIELDS["linear"],
                                BUILTIN_FIELDS["sinusoidal"], 1.0, 1.0, 1.0,
                                g=0.3, grid_n=65), 64),
        (_bench_profile(1), 256)])
    def test_mhd_report_matches_the_complex_coupling(self, profile, n):
        disc = discretize(profile, n)
        twin = dataclasses.replace(disc, block=_complex_twin(disc.block))
        assert twin.block.B.dtype == np.complex128
        assert_same_report(run_report(disc, 6), run_report(twin, 6))

    @pytest.mark.parametrize("seed", range(4))
    def test_real_blocks_match_the_complex_coupling(self, seed):
        block = _real_block(seed)
        twin = _complex_twin(block)
        reports = []
        for blk in (block, twin):
            rb = best_relative_bound(blk)
            reports.append([
                *(c for build in checks_module.ENCLOSE for c in build(blk, rb)),
                *checks_module.angular(blk, rb, None),
                *checks_module.basis(blk, rb, 6)])
        assert_same_report(*reports)

    def test_the_mhd_pipeline_stays_in_float64(self):
        block = discretize(_bench_profile(1), 64).block
        for arr in (block.A, block.B, block.C, block.eig_m.vectors,
                    block.graph_subspace.basis_first,
                    block.graph_subspace.basis_second,
                    block.graph_subspace.angular.K):
            assert arr.dtype == np.float64


# Both golden profiles, the decoupled one (C = 0) and one whose kperp
# vanishes on the first 30 of 65 samples, so that some pairs of C are
# diagonal; all at N = 64.
PAIRWISE_PROFILES = {
    "constant": constant_profile(grid_n=65),
    "linear-sinusoidal": profile_from_functions(
        BUILTIN_FIELDS["linear"], BUILTIN_FIELDS["sinusoidal"], 1.0, 1.0,
        1.0, g=0.3, grid_n=65),
    "decoupled": profile_from_functions(
        BUILTIN_FIELDS["linear"], BUILTIN_FIELDS["sinusoidal"], 1.0, 0.0,
        0.0, g=0.3, grid_n=65),
    "partial-kperp": profile_from_functions(
        BUILTIN_FIELDS["linear"], BUILTIN_FIELDS["sinusoidal"], 1.0,
        lambda x: (np.arange(x.size) >= 30).astype(float), 1.0, g=0.3,
        grid_n=65),
}


class TestPairwiseEigC:
    """discretize gives its block eig(C) from the N pointwise 2x2 blocks of
    C on the index pairs (i, N + i); numpy's dense solve is the oracle."""

    @pytest.mark.parametrize("name", PAIRWISE_PROFILES)
    def test_matches_the_dense_solve(self, name):
        block = discretize(PAIRWISE_PROFILES[name], 64).block
        assert "eig_c" in block.__dict__
        c, dec, n = block.C, block.eig_c, 64
        vals, vecs = dec.eigenvalues, dec.vectors
        tol = 2 * n * np.finfo(float).eps * np.max(np.abs(c))
        assert np.max(np.abs(vals - np.linalg.eigvalsh(c))) <= tol
        assert np.all(np.diff(vals) >= 0.0)
        assert vecs.dtype == np.float64 and not vecs.flags.writeable
        gram = vecs.T @ vecs
        assert np.max(np.abs(gram - np.eye(2 * n))) <= 4 * np.finfo(float).eps
        assert np.max(np.abs(c @ vecs - vecs * vals)) <= tol
        # each column is zero off one pair (i, N + i)
        for j in range(2 * n):
            rows = np.flatnonzero(vecs[:, j])
            assert rows.size == 1 or rows.tolist() == [rows[0], rows[0] + n]
        if name == "decoupled":
            assert not c.any()

    @pytest.mark.parametrize("name", PAIRWISE_PROFILES)
    def test_report_equals_the_dense_solves(self, name):
        plain = discretize(PAIRWISE_PROFILES[name], 64)
        dense = discretize(PAIRWISE_PROFILES[name], 64)
        dense.block.__dict__.pop("eig_c")  # read again: a dense solve of C
        want, got = run_report(plain, 6), run_report(dense, 6)
        assert ([(c.name, c.status) for c in got]
                == [(c.name, c.status) for c in want])
        for ours, theirs in zip(got, want):
            assert_close(dataclasses.asdict(ours), dataclasses.asdict(theirs),
                         theirs.name)
