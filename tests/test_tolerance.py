import numpy as np
import pytest

from specblock.tolerance import BASE_TOL, matrix_tol, scalar_tol


def test_default_base_tol(monkeypatch):
    # The base tolerance is a constant: no environment setting moves it.
    monkeypatch.setenv("SPECBLOCK_TOL", "1e-3")
    assert BASE_TOL == 1e-10
    assert matrix_tol(np.ones((4, 4))) == pytest.approx(4e-10)


def test_matrix_tol_scales_with_dim_and_entries():
    assert matrix_tol(10.0 * np.ones((5, 5))) == pytest.approx(5e-9)


def test_scalar_tol_floors_at_one():
    assert scalar_tol(0.5) == pytest.approx(1e-10)
    assert scalar_tol(100.0) == pytest.approx(1e-8)
