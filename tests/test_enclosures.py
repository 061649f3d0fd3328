from pathlib import Path

import numpy as np
import pytest

from specblock import (
    ArgumentError,
    BlockOperatorMatrix,
    HypothesisError,
    RelativeBound,
    assemble,
    dist_bound,
    eigenvalue_window,
    exclusion_window,
    hermitian_eig,
    resolvent_interval,
    soq_enclosure,
    subspace_dim_check,
    variational_bounds,
)
from specblock.enclosures import (
    QepEnclosure,
    resolvent_pairs,
    soq_bracket,
    soq_misses,
    window_owners,
)
from specblock.blocks import best_relative_bound
from specblock.linalg import Interval, spectral_distance
from specblock.problems import load_problem
from specblock.tolerance import SLACK, SOQ_MARGIN_REL, scalar_tol
from specblock.selftest import random_block, separated_block

from oracles import (
    cluster_tops,
    cubic_fixture_roots,
    exclusion_reference,
    inclusion_reference,
    poly_roots_durand_kerner,
)

GOLDEN_BLOCK = Path(__file__).parent / "data" / "golden_block.json"
RB = RelativeBound(0.0, 2.0)  # minimal bound of the cubic fixture at a = 0


class TestDistBound:
    def test_cubic_fixture_first_eigenvalue(self):
        lam1 = cubic_fixture_roots()[1]
        dist_to_a, bound = dist_bound(lam1, [2.0, 10.0], [-1.0], RB).at(0)
        assert dist_to_a == pytest.approx(lam1 - 2.0, abs=1e-12)
        assert bound == pytest.approx(2.0 / (lam1 + 1.0), abs=1e-12)
        assert dist_to_a <= bound + SLACK

    def test_cubic_fixture_second_eigenvalue(self):
        lam2 = cubic_fixture_roots()[2]
        dist_to_a, bound = dist_bound(lam2, [2.0, 10.0], [-1.0], RB).at(0)
        assert dist_to_a == pytest.approx(lam2 - 10.0, abs=1e-12)
        assert bound == pytest.approx(2.0 / (lam2 + 1.0), abs=1e-12)
        assert dist_to_a <= bound + SLACK

    def test_both_fixture_eigenvalues_in_one_call(self):
        lams = cubic_fixture_roots()[1:3]
        rep = dist_bound(lams, [2.0, 10.0], [-1.0], RB)
        assert rep.applies.all()
        assert rep.dist_to_A.tolist() == [dist_bound(lam, [2.0, 10.0], [-1.0],
                                                     RB).at(0)[0]
                                          for lam in lams]

    def test_decoupled_pins_spectrum_to_a(self):
        # with a = b = 0 the bound is zero: spectrum away from C must be in A
        dist_to_a, bound = dist_bound(2.0, [2.0, 10.0], [-1.0],
                                      RelativeBound(0.0, 0.0)).at(0)
        assert bound == 0.0
        assert dist_to_a <= 1e-9
        assert dist_to_a <= bound + SLACK

    def test_hypothesis_violation(self):
        rep = dist_bound(0.0, [2.0], [-1.0], RelativeBound(5.0, 0.0))
        assert not rep.applies[0]
        with pytest.raises(HypothesisError, match="does not exceed a = 5"):
            rep.at(0)


def scalar_dist_bound(lam, spec_a, spec_c, rb):
    """The distance bound at one point, one Python float at a time:
    (dist_to_A, bound), or the HypothesisError message where
    dist[lam, sigma(C)] <= a + scalar_tol(a, dist[lam, sigma(C)])."""
    lam = float(lam)
    d_c = spectral_distance(lam, spec_c)
    if d_c <= rb.a + scalar_tol(rb.a, d_c):
        return (f"dist[lam, sigma(C)] = {d_c:.6g} does not exceed "
                f"a = {rb.a:.6g}")
    return spectral_distance(lam, spec_a), abs(rb.a * lam + rb.b) / (d_c - rb.a)


def assert_matches_scalar_loop(lams, spec_a, spec_c, rb):
    """dist_bound over ``lams`` equals the scalar loop bit for bit, its
    hypothesis messages included; returns how many points broke it."""
    rep = dist_bound(lams, spec_a, spec_c, rb)
    broken = 0
    for i, lam in enumerate(lams):
        want = scalar_dist_bound(lam, spec_a, spec_c, rb)
        if isinstance(want, str):
            broken += 1
            assert not rep.applies[i]
            with pytest.raises(HypothesisError) as exc:
                rep.at(i)
            assert str(exc.value) == want
        else:
            assert rep.applies[i]
            assert [x.hex() for x in rep.at(i)] == [x.hex() for x in want]
    return broken


def sweep_block(seed, n1=200, n2=100):
    """A complex block built like the block-sweep benchmark's: A with
    spectrum 1 + k^2/2, C topped at -2, a coupling of scale 0.3."""
    rng = np.random.default_rng(seed)

    def hermitian(spectrum):
        n = spectrum.size
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(z)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        mat = (u * spectrum) @ u.conj().T
        return 0.5 * (mat + mat.conj().T)

    gamma = -2.0 - np.sort(rng.uniform(0.0, 10.0, n2))
    gamma[0] = -2.0
    a = hermitian(1.0 + np.arange(n1) ** 2 / 2.0)
    c = hermitian(gamma)
    b = 0.3 * (rng.standard_normal((n1, n2))
               + 1j * rng.standard_normal((n1, n2))) / np.sqrt(2.0)
    return BlockOperatorMatrix(A=a, B=b, C=c)


def bound_cases(block):
    """Points and relative bounds that exercise both sides of the
    hypothesis: every eigenvalue of M, the points of sigma(A) and sigma(C),
    under the best bound and under a's that cut through the points."""
    spec_a = block.eig_a.eigenvalues
    spec_c = block.eig_c.eigenvalues
    lams = np.concatenate([block.eig_m.eigenvalues, spec_a, spec_c])
    d_c = np.min(np.abs(spec_c - lams[:, None]), axis=1)
    rbs = [best_relative_bound(block), RelativeBound(0.0, 0.0),
           RelativeBound(float(np.median(d_c)), 1.0),
           RelativeBound(float(d_c.max()), 0.5)]
    return lams, spec_a, spec_c, rbs


class TestDistBoundArray:
    """One dist_bound call over many points equals the scalar loop."""

    @pytest.mark.parametrize("make_block", [
        lambda: load_problem(GOLDEN_BLOCK).block,
        lambda: sweep_block(3),
    ], ids=["golden", "complex-n1-200"])
    def test_blocks(self, make_block):
        lams, spec_a, spec_c, rbs = bound_cases(make_block())
        broken = [assert_matches_scalar_loop(lams, spec_a, spec_c, rb)
                  for rb in rbs]
        assert broken[1] == lams.size - np.count_nonzero(
            np.min(np.abs(spec_c - lams[:, None]), axis=1) > 1e-10)
        assert 0 < broken[2] < lams.size

    def test_random_blocks(self):
        rng = np.random.default_rng(24)
        broken = 0
        for _ in range(50):
            lams, spec_a, spec_c, rbs = bound_cases(random_block(rng))
            for rb in rbs:
                broken += assert_matches_scalar_loop(lams, spec_a, spec_c, rb)
        assert broken > 0

    def test_empty_spectra(self):
        rb = RelativeBound(0.5, 1.0)
        assert assert_matches_scalar_loop([1.0, 3.0], [2.0], [], rb) == 0
        assert assert_matches_scalar_loop([1.0, 3.0], [], [-1.0], rb) == 0
        rep = dist_bound([], [2.0], [-1.0], rb)
        assert rep.dist_to_A.size == rep.bound.size == rep.applies.size == 0


class TestEigenvalueWindow:
    def test_degenerate_collapse(self):
        win = eigenvalue_window(4.0, 1.5, RelativeBound(0.0, 0.0))
        assert not (win.open_lo or win.open_hi)
        assert win.lo == pytest.approx(1.5, abs=1e-12)
        assert win.hi == pytest.approx(4.0, abs=1e-12)

    def test_cubic_fixture_mu2(self):
        win = eigenvalue_window(2.0, -1.0, RB)
        assert win.lo == pytest.approx(0.5 - np.sqrt(4.25), abs=1e-12)
        assert win.hi == pytest.approx(0.5 + np.sqrt(4.25), abs=1e-12)
        lam1 = cubic_fixture_roots()[1]
        assert win.lo <= lam1 <= win.hi

    def test_cubic_fixture_mu10(self):
        win = eigenvalue_window(10.0, -1.0, RB)
        assert win.lo == pytest.approx(4.5 - np.sqrt(32.25), abs=1e-12)
        assert win.hi == pytest.approx(4.5 + np.sqrt(32.25), abs=1e-12)
        lam2 = cubic_fixture_roots()[2]
        assert win.lo <= lam2 <= win.hi


class TestExclusionWindow:
    def test_degenerate_collapse(self):
        win = exclusion_window(4.0, 1.5, RelativeBound(0.0, 0.0))
        assert win.open_lo and win.open_hi
        assert win.lo == pytest.approx(1.5, abs=1e-12)
        assert win.hi == pytest.approx(4.0, abs=1e-12)

    def test_cubic_fixture_mu10(self):
        win = exclusion_window(10.0, -1.0, RB)
        assert win.lo == pytest.approx(4.5 - np.sqrt(28.25), abs=1e-12)
        assert win.hi == pytest.approx(4.5 + np.sqrt(28.25), abs=1e-12)
        # applicable sub-range below mu = 10 is ((2+10)/2, 10] = (6, 10];
        # intersected with the window nothing of the spectrum may appear
        roots = cubic_fixture_roots()
        for lam in roots:
            if 6.0 < lam <= 10.0:
                assert not (win.lo < lam < win.hi)

    def test_cubic_fixture_mu2(self):
        # (mu - c)^2 = 9 > 8 = 4 a mu + 4 b, so the window exists and the
        # closed form gives (mu + c)/2 ± sqrt(9/4 - 2) = (0, 1)
        win = exclusion_window(2.0, -1.0, RB)
        assert win.lo == pytest.approx(0.0, abs=1e-12)
        assert win.hi == pytest.approx(1.0, abs=1e-12)

    def test_hypothesis_failure_is_structured(self):
        with pytest.raises(HypothesisError,
                           match=r"^\(mu - c\)\^2 does not exceed 4 a mu"):
            exclusion_window(2.0, 1.9, RB)


class TestResolventInterval:
    def test_cubic_fixture_bracket(self):
        win = resolvent_interval(2.0, 10.0, -1.0, RB)
        assert win.open_lo and win.open_hi
        assert win.lo == pytest.approx(0.5 + np.sqrt(4.25), abs=1e-12)
        assert win.hi == pytest.approx(4.5 + np.sqrt(28.25), abs=1e-12)
        for lam in cubic_fixture_roots():
            assert not (win.lo + 1e-9 < lam < win.hi - 1e-9)

    def test_degenerate_collapse(self):
        win = resolvent_interval(3.0, 7.0, 1.0, RelativeBound(0.0, 0.0))
        assert win.lo == pytest.approx(3.0, abs=1e-12)
        assert win.hi == pytest.approx(7.0, abs=1e-12)

    def test_narrow_gap_fails_ordering(self):
        # alpha1+ = 2.5616 exceeds beta2+ = 1 + sqrt(2): the hypothesis
        # fails
        alpha1p = 0.5 + np.sqrt(4.25)
        beta2p = 1.0 + np.sqrt(2.0)
        assert alpha1p > beta2p
        with pytest.raises(HypothesisError, match=r"alpha1\+"):
            resolvent_interval(2.0, 3.0, -1.0, RB)

    def test_low_mu1_fails(self):
        with pytest.raises(HypothesisError, match=r"a \+ c"):
            resolvent_interval(-0.5, 10.0, -1.0, RelativeBound(1.0, 0.0))


def resolvent_holds(mu1, mu2, c, rb):
    """The resolvent-interval hypotheses hold for (mu1, mu2)."""
    try:
        resolvent_interval(mu1, mu2, c, rb)
    except HypothesisError:
        return False
    return True


class TestOverflow:
    # ((mu - c)/2)^2 = 1e320 is no double: a window that is not finite
    # certifies nothing, and its hypothesis counts as unmet
    RB = RelativeBound(0.0, 1.0)

    def test_inclusion_window(self):
        with pytest.raises(HypothesisError,
                           match="^the inclusion window overflows"):
            eigenvalue_window(1e160, -1e160, self.RB)

    def test_exclusion_window(self):
        with pytest.raises(HypothesisError,
                           match="^the exclusion window overflows"):
            exclusion_window(1e160, -1e160, self.RB)

    def test_resolvent_interval(self):
        with pytest.raises(HypothesisError,
                           match="^the inclusion window overflows"):
            resolvent_interval(1e160, 3e160, -1e160, self.RB)

    def test_variational_bounds(self):
        with pytest.raises(HypothesisError,
                           match="^the variational upper bound overflows"):
            variational_bounds([1e160, 3e160], -1e160, self.RB, 0)

    def test_large_finite_windows_stay(self):
        win = exclusion_window(1e150, -1e150, self.RB)
        assert win.lo == pytest.approx(-1e150) and win.hi == 1e150
        assert eigenvalue_window(1e150, -1e150, self.RB).hi == 1e150


class TestSubspaceDimCheck:
    def test_decoupled_counts_match(self):
        block = BlockOperatorMatrix(A=np.diag([2.0, 10.0, 40.0]),
                                    B=np.zeros((3, 1)), C=[[-1.0]])
        count_m, count_a = subspace_dim_check(block, 5.0, 50.0)
        assert count_m == count_a == 2

    def test_four_level_ladder(self):
        # two valid pair windows around (2, 10) and (40, 90)
        block = BlockOperatorMatrix(
            A=np.diag([2.0, 10.0, 40.0, 90.0]),
            B=np.array([[0.3], [0.3], [0.3], [0.3]]), C=[[-1.0]])
        rb = RelativeBound(0.0, 4 * 0.09)
        c = -1.0
        # both pair windows exist: neither call raises HypothesisError
        resolvent_interval(2.0, 10.0, c, rb)
        resolvent_interval(40.0, 90.0, c, rb)
        b2p = exclusion_window(10.0, c, rb).hi
        a3p = eigenvalue_window(40.0, c, rb).hi
        assert b2p < a3p
        count_m, count_a = subspace_dim_check(block, b2p, a3p)
        assert count_a == 2  # the levels 10 and 40
        assert count_m == count_a

    def test_resolvent_pairs_on_ladder(self):
        # the ladder of test_four_level_ladder, given unsorted: every
        # consecutive pair validates; a level at 10.05 breaks the pair it
        # opens with 10 (alpha1+ would pass beta2+)
        rb = RelativeBound(0.0, 4 * 0.09)
        assert resolvent_pairs([90.0, 2.0, 40.0, 10.0], -1.0, rb) \
            == [(2.0, 10.0), (10.0, 40.0), (40.0, 90.0)]
        assert resolvent_pairs([2.0, 10.0, 10.05, 40.0, 90.0], -1.0, rb) \
            == [(2.0, 10.0), (10.05, 40.0), (40.0, 90.0)]

    def test_separated_instances(self, rng):
        for _ in range(25):
            block, rb, c = separated_block(rng)
            spec_a = hermitian_eig(block.A).eigenvalues
            valid = [i for i in range(spec_a.size - 1)
                     if resolvent_holds(float(spec_a[i]),
                                        float(spec_a[i + 1]), c, rb)]
            b2p = exclusion_window(float(spec_a[valid[0] + 1]), c, rb).hi
            a3p = eigenvalue_window(float(spec_a[valid[-1]]), c, rb).hi
            if not b2p < a3p:
                continue
            count_m, count_a = subspace_dim_check(block, b2p, a3p)
            assert count_m == count_a

    def test_bad_bracket(self, m3):
        with pytest.raises(ArgumentError):
            subspace_dim_check(m3, 5.0, 5.0)


class TestVariationalBounds:
    def test_degenerate_upper_is_mu(self):
        ivs = variational_bounds([2.0, 10.0], -1.0, RelativeBound(0.0, 0.0), 0)
        assert ivs[0].hi == pytest.approx(2.0, abs=1e-12)
        assert ivs[1].hi == pytest.approx(10.0, abs=1e-12)

    def test_cubic_fixture(self):
        ivs = variational_bounds([2.0, 10.0], -1.0, RB, 0)
        roots = cubic_fixture_roots()
        assert ivs[0].lo == 2.0
        assert ivs[0].hi == pytest.approx(0.5 + np.sqrt(4.25), abs=1e-12)
        assert ivs[0].contains(roots[1])
        assert ivs[1].lo == 10.0
        assert ivs[1].hi == pytest.approx(4.5 + np.sqrt(32.25), abs=1e-12)
        assert ivs[1].contains(roots[2])

    def test_asymptotic_expansion(self):
        # upper - mu approaches a + (ac + b - a^2)/(mu - c) at rate 1/mu^2
        a, b, c = 0.7, 3.0, -2.0
        rb = RelativeBound(a, b)

        def residual(mu):
            hi = variational_bounds([mu], c, rb, 0)[0].hi
            return (hi - mu) - (a + (a * c + b - a * a) / (mu - c))

        r3, r4, r5 = (abs(residual(mu)) for mu in (1e3, 1e4, 1e5))
        assert r4 <= r3 / 50.0
        assert r5 <= r4 / 50.0

    def test_range_errors(self):
        with pytest.raises(ArgumentError):
            variational_bounds([2.0, 10.0], -1.0, RB, 1, n_max=2)


class TestSoqEnclosure:
    def test_full_space_degenerates_to_spectrum(self, m3):
        roots = np.array(cubic_fixture_roots())
        encl = soq_enclosure(m3, np.eye(3, dtype=complex), -5.0, 50.0, 50.0)
        zs = sorted(e.z.real for e in encl)
        # double companion roots carry sqrt(eps)-level noise
        assert np.max(np.abs(np.array(zs)[:3] - roots[:3])) <= 5e-6 \
            or len(zs) == 3 and np.max(np.abs(np.array(zs) - roots)) <= 5e-6
        for e in encl:
            assert abs(e.z.imag) <= 1e-5
            if e.admitted:
                assert e.interval.width <= 1e-9

    def test_coordinate_subspace_matches_scalar_quartic(self, m3):
        # compressing onto span{e1, e3} gives S1 = [[2, 1], [1, -1]],
        # S2 = [[5, 1], [1, 3]]; expanding det(z² - 2 z S1 + S2) by hand:
        # z^4 - 2 z^3 - 4 z^2 + 2 z + 14
        q = np.zeros((3, 2), dtype=complex)
        q[0, 0] = 1.0
        q[2, 1] = 1.0
        oracle = poly_roots_durand_kerner([1.0, -2.0, -4.0, 2.0, 14.0])
        oracle = sorted([z for z in oracle if z.imag >= 0],
                        key=lambda z: z.real)
        encl = soq_enclosure(m3, q, 0.0, 6.0, 6.0)
        got = sorted((e.z for e in encl), key=lambda z: z.real)
        assert len(got) == 2
        for z, w in zip(got, oracle):
            assert z == pytest.approx(w, abs=1e-8)
        admitted = [e for e in encl if e.admitted]
        assert len(admitted) == 1
        lam1 = cubic_fixture_roots()[1]
        assert admitted[0].interval.contains(lam1)

    def test_disc_inputs_validated(self, m3):
        q = np.eye(3, dtype=complex)
        with pytest.raises(ArgumentError):
            soq_enclosure(m3, q, 5.0, 4.0, 6.0)  # b4m < a1p
        with pytest.raises(ArgumentError):
            soq_enclosure(m3, 2.0 * q, -5.0, 50.0, 50.0)  # not orthonormal

    def test_admitted_points_enclose_spectrum(self, rng):
        hits = 0
        for _ in range(25):
            block, rb, c = separated_block(rng)
            spec_a = hermitian_eig(block.A).eigenvalues
            bracket = soq_bracket(spec_a, c, rb)
            if bracket is None:
                continue
            a1p, b4m, b4p = bracket
            full = assemble(block)
            spec_m = hermitian_eig(full).eigenvalues
            n = full.shape[0]
            noise = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            noise = 0.5 * (noise + noise.conj().T) / np.sqrt(n)
            pert = full + 0.02 * np.linalg.norm(full, 2) * noise
            dec = hermitian_eig(0.5 * (pert + pert.conj().T))
            sel = (dec.eigenvalues > a1p - 5.0) & (dec.eigenvalues < b4p + 5.0)
            if not np.any(sel):
                continue
            q, _ = np.linalg.qr(dec.vectors[:, sel])
            for e in soq_enclosure(block, q, a1p, b4m, b4p):
                if not e.admitted:
                    continue
                hits += 1
                margin = 1e-6 * max(1.0, abs(e.z.real))
                assert any(
                    e.interval.contains(float(lam))
                    or min(abs(lam - e.interval.lo),
                           abs(lam - e.interval.hi)) <= margin
                    for lam in spec_m)
        assert hits > 0


class TestSoqMisses:
    # z = 100 + 0.5i with the admitted interval [99, 101]
    MARGIN = SOQ_MARGIN_REL * 100.0

    @pytest.mark.parametrize("lam, admitted, missed", [
        (100.5, True, False),                 # inside the interval
        (101.0 + 0.5 * MARGIN, True, False),  # within the margin of an end
        (101.0 + 2.0 * MARGIN, True, True),   # beyond the margin
        (99.0 - 2.0 * MARGIN, True, True),
        (101.0 + 2.0 * MARGIN, False, False),  # not admitted: never a miss
    ])
    def test_margin_and_admission(self, lam, admitted, missed):
        encl = QepEnclosure(z=100.0 + 0.5j,
                            interval=Interval(99.0, 101.0) if admitted else None,
                            admitted=admitted)
        assert soq_misses([encl], [lam]) == ([encl] if missed else [])

    def test_matches_pointwise_rule(self, rng):
        # interval ends just inside or outside the margin of a point
        spectrum = np.sort(rng.uniform(0.0, 50.0, 20))
        encls = []
        for k in range(40):
            mu = float(spectrum[k % 20])
            margin = SOQ_MARGIN_REL * max(1.0, mu)
            lo = mu + float(rng.choice([-0.5, 0.5, 2.0, 3.0])) * margin
            encls.append(QepEnclosure(
                z=complex(lo + 1e-3, 0.1), interval=Interval(lo, lo + 2e-3),
                admitted=bool(k % 5)))

        def missed(e):
            margin = SOQ_MARGIN_REL * max(1.0, abs(e.z.real))
            return e.admitted and not any(
                e.interval.contains(float(lam))
                or min(abs(lam - e.interval.lo),
                       abs(lam - e.interval.hi)) <= margin
                for lam in spectrum)

        expected = [e for e in encls if missed(e)]
        assert expected and len(expected) < sum(e.admitted for e in encls)
        assert soq_misses(encls, spectrum) == expected


def owner_mismatches(block):
    """The points at which window_owners names another cluster than the
    per-point reference does: the eigenvalues of A and M, the midpoints of
    sigma(A) and points a hair to either side of them."""
    spec_a = block.eig_a.eigenvalues
    mids = 0.5 * (spec_a[1:] + spec_a[:-1])
    lams = np.concatenate([spec_a, block.eig_m.eigenvalues, mids,
                           np.nextafter(mids, -np.inf), mids * (1 + 1e-9),
                           [spec_a[0] - 1.0, spec_a[-1] + 1.0]])
    incl, excl = window_owners(block.a_points, cluster_tops(block), lams)

    def label(mu):
        if mu is None:
            return -1
        return int(block.a_clusters[np.searchsorted(spec_a, mu)])

    return sum(label(inclusion_reference(spec_a, lam)) != k_in
               or label(exclusion_reference(spec_a, lam)) != k_ex
               for lam, k_in, k_ex in zip(lams.tolist(), incl, excl))


class TestPairingHelpers:
    def test_inclusion_reference(self):
        # left half of the gap, right half, above the top, below the bottom
        incl, _ = window_owners([2.0, 10.0], [2.0, 10.0], [2.5, 7.0, 11.0, 1.0])
        assert incl.tolist() == [0, -1, 1, -1]

    def test_exclusion_reference(self):
        _, excl = window_owners([2.0, 10.0], [2.0, 10.0], [7.0, 2.5, 1.0, 11.0])
        assert excl.tolist() == [1, -1, 0, -1]

    def test_a_point_gets_both_of_its_windows(self):
        incl, excl = window_owners([2.0, 10.0], [2.0, 10.0], [2.0, 10.0])
        assert incl.tolist() == excl.tolist() == [0, 1]

    def test_cluster_span_gets_both_windows(self):
        # cluster 1 spans [10, 10.5]: every point in it reads both windows
        lams = [10.0, 10.2, 10.5, 10.6, 9.9]
        incl, excl = window_owners([2.0, 10.0], [2.0, 10.5], lams)
        assert incl.tolist() == [1, 1, 1, 1, -1]
        assert excl.tolist() == [1, 1, 1, -1, 1]

    def test_no_clusters(self):
        incl, excl = window_owners([], [], [1.0, 2.0])
        assert incl.tolist() == excl.tolist() == [-1, -1]

    @pytest.mark.parametrize("make_block", [
        lambda: load_problem(GOLDEN_BLOCK).block,
        lambda: sweep_block(1),
    ], ids=["golden", "complex-n1-200"])
    def test_owners_match_the_per_point_reference(self, make_block):
        assert owner_mismatches(make_block()) == 0

    def test_owners_match_the_per_point_reference_on_random_blocks(self):
        rng = np.random.default_rng(26)
        assert sum(owner_mismatches(random_block(rng)) for _ in range(50)) == 0

    def test_soq_bracket_on_ladder(self):
        block = BlockOperatorMatrix(
            A=np.diag([2.0, 10.0, 40.0, 90.0]),
            B=np.array([[0.3], [0.3], [0.3], [0.3]]), C=[[-1.0]])
        rb = RelativeBound(0.0, 0.36)
        bracket = soq_bracket([2.0, 10.0, 40.0, 90.0], -1.0, rb)
        assert bracket is not None
        a1p, b4m, b4p = bracket
        assert a1p == pytest.approx(eigenvalue_window(2.0, -1.0, rb).hi)
        assert b4p == pytest.approx(exclusion_window(90.0, -1.0, rb).hi)
        assert a1p < b4m <= b4p
