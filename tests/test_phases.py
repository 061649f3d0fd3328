"""Reports do not depend on the phases of eigenvectors.

An eigenvector is fixed only up to a unit factor, and the decompositions
keep whatever factor LAPACK gave each column.  Every statement checked is
about spectral subspaces, so multiplying the cached columns of eig(A),
eig(C) and eig(M) by random unit factors (random signs for float64 columns)
must leave every verdict and, up to round-off, every number as it was.
The MHD block is given its eig(C) by discretize, and that one is rotated
too.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from specblock import checks
from specblock.blocks import best_relative_bound
from specblock.enclosures import soq_bracket
from specblock.linalg import SpectralDecomposition
from specblock.mhd import (discretize, profile_from_functions, run_report,
                           trial_space)
from specblock.problems import load_problem

from test_enclosures import sweep_block

GOLDEN_BLOCK = Path(__file__).parent / "data" / "golden_block.json"

DECOMPOSITIONS = ("eig_a", "eig_c", "eig_m")


def rotate_phases(block, rng):
    """Replace the block's cached decompositions, before any check reads
    them, by ones whose columns carry random unit factors."""
    for name in DECOMPOSITIONS:
        dec = getattr(block, name)
        vectors = dec.vectors
        if np.iscomplexobj(vectors):
            angles = rng.uniform(0.0, 2.0 * np.pi, vectors.shape[1])
            factors = np.exp(1j * angles)
        else:
            factors = rng.choice([-1.0, 1.0], vectors.shape[1])
        block.__dict__[name] = SpectralDecomposition(
            dec.eigenvalues.copy(), vectors * factors).freeze()


def golden():
    return load_problem(str(GOLDEN_BLOCK)).block, None


def sweep():
    return sweep_block(5), None


def mhd():
    profile = profile_from_functions(
        lambda x: 1.0 + x, lambda x: 1.0 + 0.3 * np.sin(np.pi * x),
        1.0, 1.0, 1.0, g=0.3, grid_n=17)
    disc = discretize(profile, 16)
    return disc.block, disc


def reports(build, rotate):
    """The checks of enclose, angular, basis and soq on a block, and of
    run_report on a discretization."""
    block, disc = build()
    given = {"eig_c"} if disc is not None else set()
    assert set(DECOMPOSITIONS) & set(block.__dict__) == given
    if rotate:
        rotate_phases(block, np.random.default_rng(7))
    rb = best_relative_bound(block)
    found = [check for family in checks.ENCLOSE for check in family(block, rb)]
    found += checks.angular(block, rb, None)
    found += checks.basis(block, rb, 6)
    dim = min(block.n1 + block.n2, 12)
    q = (np.eye(block.n1 + block.n2, dtype=complex)[:, :dim] if disc is None
         else trial_space(disc, dim))
    found += checks.soq(block, q, soq_bracket(block.ladder(rb)))
    if disc is not None:
        found += run_report(disc, 6)
    return found


def assert_close(got, want, where):
    if isinstance(want, float) and isinstance(got, float):
        assert (got == want or np.isnan(got) and np.isnan(want)
                or abs(got - want) <= 1e-10 * max(1.0, abs(want))), \
            (where, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want), where
        for k, (a, b) in enumerate(zip(got, want)):
            assert_close(a, b, f"{where}[{k}]")
    else:
        assert got == want, (where, got, want)


@pytest.mark.parametrize("build", [golden, sweep, mhd],
                         ids=["golden", "sweep", "mhd"])
def test_reports_ignore_eigenvector_phases(build):
    plain, rotated = reports(build, False), reports(build, True)
    assert ([(c.name, c.status) for c in rotated]
            == [(c.name, c.status) for c in plain])
    assert any(c.status == "pass" for c in plain)
    for got, want in zip(rotated, plain):
        assert_close(dataclasses.asdict(got), dataclasses.asdict(want),
                     want.name)
