import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from specblock import BlockOperatorMatrix


@pytest.fixture
def m3():
    """The cubic fixture: A = diag(2, 10), B = (1, 1)^T, C = (-1)."""
    return BlockOperatorMatrix(A=np.diag([2.0, 10.0]), B=[[1.0], [1.0]],
                               C=[[-1.0]])


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture(scope="session")
def selftest_42_runs(tmp_path_factory):
    """Two runs of ``specblock selftest --seed 42``: (exit code, report path)
    each, shared by the tests that read the seed-42 report."""
    from specblock.cli import main

    out = tmp_path_factory.mktemp("selftest-42")
    runs = []
    for name in ("a.json", "b.json"):
        path = out / name
        runs.append((main(["selftest", "--seed", "42", "--out", str(path)]),
                     path))
    return runs
