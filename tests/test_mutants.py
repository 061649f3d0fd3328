"""Mutants: a library result perturbed so that a check must report fail.

A check that cannot fail verifies nothing.  Each mutant here names the
checks it must fail; the unperturbed runs must pass the same checks.

The rotated graph subspace: the subspace of M above c~, with one vector
turned by 1e-3 rad toward a random direction outside it.  It stays a graph
with an angular operator K, but it is no longer M-invariant, so K misses
its Riccati equation and the angular operator and Riesz checks fail.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from specblock import (
    BlockOperatorMatrix,
    GraphSubspace,
    RelativeBound,
    checks,
    constants,
    discretize,
    spectral_subspace,
)
from specblock.cli import main
from specblock.problems import load_problem
from specblock.report import FAIL, PASS

from oracles import rotate_last_column

GOLDEN_BLOCK = str(Path(__file__).parent / "data" / "golden_block.json")
ANGLE = 1e-3
RICCATI_CHECKS = {
    "angular": ["angular/operator"],
    "basis": ["basis/riesz"],
    "mhd": ["mhd/angular-operator", "mhd/riesz-bounds"],
}
MHD_PROFILE = {"grid_n": 65, "rho": "linear", "va2": "sinusoidal",
               "vs2": "constant", "kperp": "constant", "kpar": "constant",
               "g": 0.3}


def rotated_graph_subspace(block):
    sub = spectral_subspace(block, block.landmarks.c_tilde)
    w = rotate_last_column(sub.stacked(), ANGLE, np.random.default_rng(0))
    return GraphSubspace(basis_first=w[:block.n1], basis_second=w[block.n1:])


def statuses(tmp_path, args):
    """Exit code and {name: status} of one command."""
    out = tmp_path / "report.json"
    code = main(args + ["--out", str(out)])
    return code, {c["name"]: c["status"]
                  for c in json.loads(out.read_text())["checks"]}


def command_args(tmp_path, command, n=64):
    if command != "mhd":
        return [command, "--input", GOLDEN_BLOCK]
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"mhd": MHD_PROFILE}))
    return ["mhd", "--input", str(path), "--n", str(n)]


@pytest.mark.parametrize("command", sorted(RICCATI_CHECKS))
def test_rotated_graph_subspace_fails_the_riccati_checks(tmp_path, monkeypatch,
                                                         command):
    args = command_args(tmp_path, command)
    code, found = statuses(tmp_path, args)
    assert code == 0
    assert [found[name] for name in RICCATI_CHECKS[command]] == [PASS] * len(
        RICCATI_CHECKS[command])
    monkeypatch.setattr(BlockOperatorMatrix, "graph_subspace",
                        property(rotated_graph_subspace))
    code, found = statuses(tmp_path, args)
    assert code == 1
    assert [found[name] for name in RICCATI_CHECKS[command]] == [FAIL] * len(
        RICCATI_CHECKS[command])


@pytest.mark.parametrize("n", [256, 512])
def test_unperturbed_mhd_passes_the_riccati_checks(tmp_path, n):
    # the builder checks mhd/angular-operator and mhd/riesz-bounds rename
    profile = load_problem(command_args(tmp_path, "mhd")[2]).profile
    a, b, _ = constants(profile)
    block = discretize(profile, n).block
    found = [checks.angular_at_c_tilde(block, RelativeBound(a, b)),
             *checks.riesz(block)]
    assert [c.status for c in found] == [PASS, PASS]
