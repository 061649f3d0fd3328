import numpy as np
import pytest

from specblock import (
    ArgumentError,
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
    run_report,
)
from specblock.mhd import trial_space
from specblock.tolerance import EIGVEC_RESIDUAL_REL


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
        top = float(hermitian_eig(disc.block.coupling_gram()).eigenvalues[-1])
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
