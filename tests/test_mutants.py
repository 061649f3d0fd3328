"""Mutants: a library result perturbed so that a check must report fail.

A check that cannot fail verifies nothing.  Each mutant here names the
checks it must fail; the unperturbed runs must pass the same checks.

The rotated graph subspace: the subspace of M above c~, with one vector
turned by 1e-3 rad toward a random direction outside it.  It stays a graph
with an angular operator K, but it is no longer M-invariant, so K misses
its Riccati equation and the angular operator and Riesz checks fail.

The ladder mutants: one window or resolvent interval with one end moved
onto its point of sigma(A) as it is solved, so that the block's ladder, and
every family that reads it, holds the moved piece.  On the golden block the
inclusion window at mu = 33 narrowed to end at 33, and the resolvent
interval from 33 widened to open at 33, leave lambda = 33.016 of M outside
the window and inside the interval; the dimension bracket then ends at the
point 33 of sigma(A), which it counts, and below lambda, which it does not.
No exclusion window of the golden block has an eigenvalue of M to judge, so
the widened exclusion window runs on a two-level block whose coupling
pushes lambda = 3.02 up under the exclusion window at mu = 5.
"""

import json
import math
from dataclasses import replace
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
    enclosures,
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
LADDER_FAMILIES = ("inclusion-window/", "exclusion-window/",
                   "resolvent-interval/", "dim-check/bracket")
# A = diag(1, 5), C = [[0]], B couples mu = 1 alone to C with beta^2 = 6.1.
PUSHED_BLOCK = {"blocks": {"A": [[1.0, 0.0], [0.0, 5.0]],
                           "B": [[math.sqrt(6.1)], [0.0]], "C": [[0.0]]},
                "rb": [0.0, 6.1]}
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


@pytest.mark.parametrize("problem, solve, mu, end, failing", [
    ("golden", "eigenvalue_window", 33, "hi",
     ["inclusion-window/mu=33", "resolvent-interval/mu1=33",
      "dim-check/bracket"]),
    ("golden", "resolvent_interval", 33, "lo",
     ["resolvent-interval/mu1=33", "dim-check/bracket"]),
    ("pushed", "exclusion_window", 5, "hi", ["exclusion-window/mu=5"]),
], ids=["inclusion-narrowed", "interval-widened", "exclusion-widened"])
def test_moved_ladder_piece_fails_the_families_that_read_it(
        tmp_path, monkeypatch, problem, solve, mu, end, failing):
    if problem == "golden":
        path = GOLDEN_BLOCK
    else:
        path = tmp_path / "pushed.json"
        path.write_text(json.dumps(PUSHED_BLOCK))
    args = ["enclose", "--input", str(path)]
    point, = [x for x in load_problem(path).block.a_points.tolist()
              if round(x) == mu]

    def failed(found):
        return sorted(name for name, status in found.items()
                      if name.startswith(LADDER_FAMILIES) and status == FAIL)

    code, found = statuses(tmp_path, args)
    assert code == 0 and failed(found) == []
    assert [found[name] for name in failing] == [PASS] * len(failing)
    real = getattr(enclosures, solve)

    def moved(*args, **kwargs):
        piece = real(*args, **kwargs)
        return replace(piece, **{end: point}) if args[0] == point else piece

    monkeypatch.setattr(enclosures, solve, moved)
    code, found = statuses(tmp_path, args)
    assert code == 1
    assert failed(found) == sorted(failing)
