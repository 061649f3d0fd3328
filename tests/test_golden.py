"""Golden verdicts, report schemas, margins and decomposition counts.

``data/golden_verdicts.json`` holds the exit code and the (name, status) list
of every check for fixed inputs: ``selftest`` at seeds 42, 1, 7 and 14,
``mhd`` at N = 64 on two profiles, ``soq`` at N = 64 with
``--subspace-dim`` 20 on the linear/sinusoidal one, and the four block
commands on ``data/golden_block.json``, ``soq`` also with ``--subspace-dim``
8 and 9.  Refactors must reproduce them; a changed verdict has to be a named
bug fix.  Seed 14, the block trial dimensions 8 and 9 and the MHD trial
dimension 20 pin known failures.
``data/golden_schema.json`` holds, for the seed-42 selftest, the two MHD
runs and the four block commands, each check's name, anchor and the sorted
keys of its inputs, outputs and tolerances: no floats, so it holds on every
platform.  Every golden run also has each pass or fail check carry a finite
margin of the sign of its status, except the checks in NO_MARGIN.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from specblock import assemble, basis, discretize, linalg, run_report
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
    """The command line of one golden run."""
    if name.startswith("soq-mhd-"):
        profile, dim = name.removeprefix("soq-").rsplit("-", 1)
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"mhd": MHD_PROBLEMS[profile]}))
        return ["soq", "--input", str(path), "--n", "64",
                "--subspace-dim", dim]
    if name in MHD_PROBLEMS:
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"mhd": MHD_PROBLEMS[name]}))
        return ["mhd", "--input", str(path), "--n", "64"]
    if name.startswith("selftest-"):
        return ["selftest", "--seed", name.removeprefix("selftest-")]
    command, *dim = name.removeprefix("block-").split("-")
    args = [command, "--input", str(DATA / "golden_block.json")]
    return args + ["--subspace-dim", *dim] if dim else args


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory, selftest_42_runs):
    """(exit code, report path) of a golden run, each run once per module."""
    runs = {"selftest-42": selftest_42_runs[0]}

    def run(name):
        if name not in runs:
            tmp = tmp_path_factory.mktemp(name)
            out = tmp / "report.json"
            runs[name] = main(golden_args(tmp, name) + ["--out", str(out)]), out
        return runs[name]
    return run


@pytest.mark.parametrize("name", ["selftest-1", "selftest-7", "selftest-14",
                                  "block-soq-8", "block-soq-9",
                                  "soq-mhd-linear-sinusoidal-64-20"])
def test_pinned_runs(golden_run, name):
    assert verdicts(*golden_run(name)) == GOLDEN[name]


# Pass/fail checks without a margin: counts.
NO_MARGIN = {
    "angular/codim-kappa", "dim-check/bracket", "mhd/essential-bands",
    "mhd/gap-growth", "mhd/angular-operator", "enclosures/dim-check",
    "invariant-subspace/codim-kappa", "invariant-subspace/delta-soundness",
    "mhd/codim-kappa",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_margins_agree_with_statuses(golden_run, name):
    checks = json.loads(golden_run(name)[1].read_text())["checks"]
    for check in checks:
        margin, status = check["margin"], check["status"]
        if status == "not-applicable" or check["name"] in NO_MARGIN:
            assert margin is None, check["name"]
        else:
            assert type(margin) is float and math.isfinite(margin), check
            assert (margin >= 0.0) == (status == "pass"), check
            assert margin != 0.0 or status == "pass"
    if name == "block-soq-8":
        assert checks[0]["name"] == "soq/enclosures" and checks[0]["margin"] < 0


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
    return profile, {"A": [ref.A], "C": [ref.C], "M": [assemble(ref)]}


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


def test_run_report_factors_the_first_component_block_once_per_call(
        monkeypatch):
    # The angular and basis checks share the block's subspace above c~ and
    # its thin SVD (GraphSubspace.first_svd).
    profile, _ = block_forms()
    first = discretize(profile, 32).block.graph_subspace.basis_first
    targets = {"U": [first]}
    seen = []
    svd = np.linalg.svd

    def recording(mat, *args, **kwargs):
        seen.append(np.array(mat, copy=True))
        return svd(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    run_report(discretize(profile, 32), 4)
    assert count_forms(seen, targets) == {"U": 1}
    run_report(discretize(profile, 32), 4)
    assert count_forms(seen, targets) == {"U": 2}


def test_run_report_multiplies_m_by_the_subspace_once_per_call(monkeypatch):
    # angular/operator, angular/c-tilde and basis/riesz read one Riccati
    # residual at c~ (BlockOperatorMatrix.riccati_residual), so one M W
    profile, _ = block_forms()
    calls = []
    product = basis._assembled_product

    def recording(block, first, second):
        calls.append(first.shape)
        return product(block, first, second)

    monkeypatch.setattr(basis, "_assembled_product", recording)
    run_report(discretize(profile, 32), 4)
    assert len(calls) == 1
    run_report(discretize(profile, 32), 4)
    assert len(calls) == 2
