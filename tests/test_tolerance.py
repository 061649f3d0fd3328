import numpy as np
import pytest

from specblock.tolerance import BASE_TOL, matrix_tol, scalar_tol, scalar_tols


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


@pytest.mark.parametrize("scalars", [(), (0.25,), (3.0, -7.5), (1e305, np.inf),
                                     (np.nan, -2.0)])
def test_scalar_tols_is_scalar_tol_elementwise(scalars):
    values = np.array([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 1e300, -1e300,
                       np.inf, -np.inf, np.nan])
    got = scalar_tols(values, *scalars)
    assert got.shape == values.shape
    assert [x.hex() for x in got.tolist()] \
        == [scalar_tol(v, *scalars).hex() for v in values.tolist()]
