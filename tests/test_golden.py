"""Golden verdicts, report schemas and decomposition counts.

``data/golden_verdicts.json`` holds the exit code and the (name, status) list
of every check for fixed inputs: ``selftest --seed 42``, ``mhd`` at N = 64 on
two profiles, and the four block commands on ``data/golden_block.json``.
Refactors must reproduce them; a changed verdict has to be a named bug fix.
``data/golden_schema.json`` holds, for the same runs, each check's name,
anchor and the sorted keys of its inputs, outputs and tolerances: no floats,
so it holds on every platform.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from specblock import assemble, discretize, linalg, run_report
from specblock.cli import main
from specblock.mhd import profile_from_functions

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "golden_verdicts.json").read_text())
SCHEMA = json.loads((DATA / "golden_schema.json").read_text())

MHD_PROBLEMS = {
    "mhd-constant-64": {
        "grid_n": 65, "rho": "constant", "va2": "constant",
        "vs2": "constant", "kperp": "constant", "kpar": "constant", "g": 0.0},
    "mhd-linear-sinusoidal-64": {
        "grid_n": 65, "rho": "linear", "va2": "sinusoidal",
        "vs2": "constant", "kperp": "constant", "kpar": "constant", "g": 0.3},
}


def verdicts(code, report_path):
    checks = json.loads(report_path.read_text())["checks"]
    return {"exit": code,
            "verdicts": [[c["name"], c["status"]] for c in checks]}


def run_cli(tmp_path, args):
    out = tmp_path / "report.json"
    return verdicts(main(args + ["--out", str(out)]), out)


def test_selftest_seed_42(selftest_42_runs):
    assert verdicts(*selftest_42_runs[0]) == GOLDEN["selftest-42"]


@pytest.mark.parametrize("name", sorted(MHD_PROBLEMS))
def test_mhd_profiles(tmp_path, name):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"mhd": MHD_PROBLEMS[name]}))
    assert run_cli(tmp_path, ["mhd", "--input", str(path), "--n", "64"]) \
        == GOLDEN[name]


@pytest.mark.parametrize("command", ["enclose", "angular", "basis", "soq"])
def test_block_commands(tmp_path, command):
    args = [command, "--input", str(DATA / "golden_block.json")]
    assert run_cli(tmp_path, args) == GOLDEN[f"block-{command}"]


def golden_args(tmp_path, name):
    """The command line of one golden run other than the selftest."""
    if name in MHD_PROBLEMS:
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"mhd": MHD_PROBLEMS[name]}))
        return ["mhd", "--input", str(path), "--n", "64"]
    return [name.removeprefix("block-"), "--input",
            str(DATA / "golden_block.json")]


@pytest.mark.parametrize("name", sorted(SCHEMA))
def test_report_schema(tmp_path, selftest_42_runs, name):
    if name == "selftest-42":
        _, out = selftest_42_runs[0]
    else:
        out = tmp_path / "report.json"
        main(golden_args(tmp_path, name) + ["--out", str(out)])
    schema = [{"name": c["name"], "anchor": c["anchor"],
               "inputs": sorted(c["inputs"]), "outputs": sorted(c["outputs"]),
               "tolerances": sorted(c["tolerances"])}
              for c in json.loads(out.read_text())["checks"]]
    assert schema == SCHEMA[name]


def spy_on(monkeypatch, function, seen):
    """Append a copy of the matrix of every call of ``function`` to ``seen``.
    Modules import functions by name; rebind it wherever it is held."""
    def recording(mat):
        seen.append(np.array(mat, copy=True))
        return function(mat)

    for name, module in list(sys.modules.items()):
        if name.startswith("specblock"):
            for attr, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, attr, recording)


def block_forms():
    """The seeded profile run_report gets below, and the forms in which its
    blocks A, C and M can reach the linear algebra."""
    profile = profile_from_functions(lambda x: 1.0 + x, 1.0, 1.0, 1.0, 1.0,
                                     g=0.3, grid_n=33)
    ref = discretize(profile, 32).block
    # B is purely imaginary, so eig(M) may solve the real symmetric matrix
    # diag(I, iI)* M diag(I, iI) = [[A, -Im B], [-Im B^T, C]] instead of M.
    r = ref.B.imag
    similar = np.block([[ref.A.real, -r], [-r.T, ref.C.real]])
    return profile, {"A": [ref.A], "C": [ref.C], "M": [assemble(ref), similar]}


def count_forms(seen, targets):
    return {key: sum(any(x.shape == t.shape and np.array_equal(x, t)
                         for t in forms)
                     for x in seen)
            for key, forms in targets.items()}


def test_run_report_decomposes_a_c_and_m_once_per_call(monkeypatch):
    profile, targets = block_forms()
    seen = []
    # Every full eigendecomposition ends in hermitian_part_eig or in the
    # block-wise hermitian_part_eig_by_components: eig_a calls the first on
    # the stored Hermitian part of A, hermitian_eig on the validated M, and
    # eig_c the second on C.  This C is the pointwise 2x2 block, so its
    # block-wise solve never reaches hermitian_part_eig; a dense fallback
    # would count C twice.
    spy_on(monkeypatch, linalg.hermitian_part_eig, seen)
    spy_on(monkeypatch, linalg.hermitian_part_eig_by_components, seen)

    # A fresh discretization per call: a reused one answers from its caches.
    run_report(discretize(profile, 32), 4)
    assert count_forms(seen, targets) == {"A": 1, "C": 1, "M": 1}
    run_report(discretize(profile, 32), 4)
    assert count_forms(seen, targets) == {"A": 2, "C": 2, "M": 2}


def test_run_report_validates_a_and_c_once_per_call(monkeypatch):
    profile, targets = block_forms()
    del targets["M"]
    seen = []
    spy_on(monkeypatch, linalg.require_hermitian, seen)

    run_report(discretize(profile, 32), 4)
    assert count_forms(seen, targets) == {"A": 1, "C": 1}
    run_report(discretize(profile, 32), 4)
    assert count_forms(seen, targets) == {"A": 2, "C": 2}
