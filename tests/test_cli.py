import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from specblock import BlockOperatorMatrix, problems, selftest
from specblock.cli import main
from specblock.report import emit_json
from specblock.selftest import fixture_block

GOLDEN_BLOCK = str(Path(__file__).parent / "data" / "golden_block.json")


def write_problem(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


M3_PROBLEM = {"blocks": {"A": [[2, 0], [0, 10]], "B": [[1], [1]],
                         "C": [[-1]]}, "rb": [0.0, 2.0]}

MHD_PROBLEM = {"mhd": {"grid_n": 33, "rho": "constant", "va2": "constant",
                       "vs2": "constant", "kperp": "constant",
                       "kpar": "constant", "g": 0.0}}


DEEP = "[" * 2000 + "]" * 2000

# Valid JSON text whose numbers or nesting the program cannot take.
UNREPRESENTABLE = {
    # A 401-digit integer as a matrix entry, alpha and a rho sample.
    "matrix-entry": json.dumps({"blocks": {"A": [[2, 0], [0, 10 ** 400]],
                                           "B": [[1], [1]], "C": [[-1]]}}),
    "alpha": json.dumps(dict(M3_PROBLEM, alpha=10 ** 400)),
    "rho-sample": json.dumps({"mhd": dict(MHD_PROBLEM["mhd"], grid_n=3,
                                          rho=[1.0, 10 ** 400, 1.0])}),
    # A 401-digit grid_n against 3 rho samples: rejected unallocated.
    "grid-n-samples": json.dumps({"mhd": dict(MHD_PROBLEM["mhd"],
                                              grid_n=10 ** 400,
                                              rho=[1.0, 1.0, 1.0])}),
    # Over Python's limit of 4300 digits for an integer literal.
    "digit-limit": '{"blocks": {"A": [[' + "1" * 5001
                   + ']], "B": [[0]], "C": [[0]]}}',
    # Nesting deeper than the JSON decoder recurses: directly under blocks,
    # as a matrix entry and as a value the builder does not look into.
    "nesting": '{"blocks": ' + "[" * 100_000 + "]" * 100_000 + "}",
    "nesting-entry": '{"blocks": {"A": [[' + DEEP + ']], "B": [[0]], '
                     '"C": [[0]]}}',
    "nesting-flags": '{"blocks": {"A": [[1]], "B": [[0]], "C": [[0]]}, '
                     '"flags": {"x": ' + DEEP + '}}',
}


def run_to_file(tmp_path, args):
    out = tmp_path / "report.json"
    code = main(args + ["--out", str(out)])
    return code, json.loads(out.read_text())


class TestExitCodes:
    def test_enclose_passes_on_fixture(self, tmp_path):
        path = write_problem(tmp_path, "m3.json", M3_PROBLEM)
        code, rep = run_to_file(tmp_path, ["enclose", "--input", path])
        assert code == 0
        assert rep["summary"]["fail"] == 0
        assert rep["summary"]["pass"] > 0

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["enclose", "--input", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["enclose", "--input", "/nonexistent.json"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["enclose", "angular", "basis"])
    def test_coupling_gram_overflow_exits_2(self, tmp_path, capsys, command):
        payload = {"blocks": {"A": [[2, 0], [0, 10]], "B": [[1e200], [1]],
                              "C": [[-1]]}}
        path = write_problem(tmp_path, "big.json", payload)
        assert main([command, "--input", path]) == 2
        err = capsys.readouterr().err
        assert "coupling Gram matrix B B* overflows" in err
        assert "finite" not in err
        assert err.count("\n") == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("coupling", [1e149, 2e149])
    def test_relative_bound_scan_at_overflowing_a_max_exits_0(
            self, tmp_path, capsys, coupling):
        # a_max = lambda_max(BB*) / 2e-10 is 5e307 for 1e149 and overflows
        # for 2e149, where the scan keeps the pair at a = 0
        payload = {"blocks": {"A": [[1e-300, 0], [0, 1]], "B": [[coupling], [0]],
                              "C": [[-1]]}}
        path = write_problem(tmp_path, "p.json", payload)
        code, rep = run_to_file(tmp_path, ["enclose", "--input", path])
        assert code == 0
        assert rep["summary"] == {"pass": 4, "fail": 0, "not_applicable": 5}
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["enclose", "angular", "basis", "soq"])
    @pytest.mark.parametrize("a1, a2, c", [(1e160, 3e160, -1e160),
                                           (1e-160, 3e-160, -1e-160)])
    def test_extreme_scale_exits_0(self, tmp_path, capsys, command, a1, a2, c):
        # ((mu - c)/2)^2 overflows at 1e160: the windows it opens are
        # not-applicable, and no check fails
        payload = {"blocks": {"A": [[a1, 0], [0, a2]], "B": [[1], [1]],
                              "C": [[c]]}}
        path = write_problem(tmp_path, "scaled.json", payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, rep = run_to_file(tmp_path, [command, "--input", path])
        assert code == 0
        assert rep["summary"]["fail"] == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["enclose", "basis"])
    @pytest.mark.parametrize("rb, text", [
        ([0, 1], "'rb' = [0, 1] is not a relative bound for the blocks: "
                 "lambda_min(aA + bI - BB*) = -1.000e+00 is below"),
        ([0, 0], "'rb' = [0, 0] is not a relative bound for the blocks: "
                 "lambda_min(aA + bI - BB*) = -2.000e+00 is below"),
        ([1e308, 0], "'rb' = [1e+308, 0] cannot be checked: "
                     "a A + b I - B B* overflows double precision"),
    ], ids=["b-too-small", "zero", "overflow"])
    def test_file_rb_that_is_no_relative_bound_exits_2(self, tmp_path, capsys,
                                                       command, rb, text):
        # lambda_max(BB*) = 2 on M3, so BB* <= bI fails for b < 2
        path = write_problem(tmp_path, "p.json", dict(M3_PROBLEM, rb=rb))
        assert main([command, "--input", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"specblock: error: {text}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("args, problem", [
        (["selftest", "--seed", "-1"], None),
        (["soq", "--input", GOLDEN_BLOCK, "--subspace-dim", "-5"], None),
        (["soq", "--input", GOLDEN_BLOCK, "--subspace-dim", "0"], None),
        (["basis", "--input", GOLDEN_BLOCK, "--n-max", "-2"], None),
        (["basis", "--input", GOLDEN_BLOCK, "--n-max", "two"], None),
        (["enclose", "--input", GOLDEN_BLOCK, "--n", "0"], None),
        (["mhd"], dict(MHD_PROBLEM, n_max=True)),
        (["basis"], dict(M3_PROBLEM, n_max=True)),
        (["angular"], dict(M3_PROBLEM, alpha=True)),
        (["enclose"], dict(M3_PROBLEM, rb=[True, False])),
        (["enclose"], {"blocks": {"A": [[True, 0], [0, 10]], "B": [[1], [1]],
                                  "C": [[-1]]}}),
        (["enclose"], {"blocks": {"A": [[2, 0], [0, 10]], "B": [[1], [1]],
                                  "C": [[[True, 0.0]]]}}),
        (["mhd"], {"mhd": dict(MHD_PROBLEM["mhd"], g=True)}),
        # g * g overflows in the constants; B B* overflows and is reported.
        (["mhd"], {"mhd": dict(MHD_PROBLEM["mhd"], g=1e200)}),
        (["mhd"], {"mhd": dict(MHD_PROBLEM["mhd"], grid_n=True)}),
        (["mhd"], {"mhd": dict(MHD_PROBLEM["mhd"], grid_n=9.7)}),
        (["mhd"], {"mhd": dict(MHD_PROBLEM["mhd"], grid_n="65")}),
        (["mhd"], {"mhd": dict(MHD_PROBLEM["mhd"], grid_n=65.0)}),
        (["mhd"], {"mhd": dict(MHD_PROBLEM["mhd"], grid_n=3,
                               rho=[1.0, True, 1.0])}),
        (["mhd"], {"mhd": dict(MHD_PROBLEM["mhd"], grid_n=3,
                               rho=[1.0, "dense", 1.0])}),
        (["mhd"], dict(MHD_PROBLEM, flags={"squared_bands": "false"})),
        (["mhd"], dict(MHD_PROBLEM, flags={"squared_bands": 0})),
        (["mhd"], dict(MHD_PROBLEM, flags={"squared_bands": [1]})),
        # Grids numpy rejects before allocating anything.
        (["mhd"], {"mhd": dict(MHD_PROBLEM["mhd"], grid_n=-1)}),
        (["mhd"], {"mhd": dict(MHD_PROBLEM["mhd"], grid_n=2 ** 62)}),
        (["mhd"], {"mhd": dict(MHD_PROBLEM["mhd"], grid_n=10 ** 400)}),
    ])
    def test_invalid_numbers_exit_2(self, tmp_path, capsys, args, problem):
        if problem is not None:
            args = args + ["--input", write_problem(tmp_path, "p.json", problem)]
        try:
            code = main(args + ["--out", str(tmp_path / "r.json")])
        except SystemExit as exc:  # argparse rejects the option value
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert "error" in err and "Traceback" not in err
        if problem is not None:  # past argparse: one line of our own
            assert err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("text", UNREPRESENTABLE.values(),
                             ids=UNREPRESENTABLE.keys())
    def test_unrepresentable_input_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "p.json"
        path.write_text(text)
        out = tmp_path / "r.json"
        assert main(["enclose", "--input", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("specblock: error: ")
        assert err.count("\n") == 1
        assert "0" * 40 not in err and "1" * 40 not in err
        assert not out.exists()

    @pytest.mark.parametrize("text", UNREPRESENTABLE.values(),
                             ids=UNREPRESENTABLE.keys())
    def test_unrepresentable_input_same_without_orjson(
            self, tmp_path, capsys, monkeypatch, text):
        path = tmp_path / "p.json"
        path.write_text(text)
        argv = ["enclose", "--input", str(path), "--out", str(tmp_path / "r")]
        fast = main(argv), capsys.readouterr().err
        monkeypatch.setattr(problems, "orjson", None)
        assert (main(argv), capsys.readouterr().err) == fast

    @pytest.mark.parametrize("entry", [
        "[" * 900 + "]" * 900,
        "[" + ", ".join(["1"] * 99_999) + ', "x"]',
    ], ids=["depth-900", "100000-elements"])
    def test_bad_entry_echo_is_bounded(self, tmp_path, capsys, monkeypatch,
                                       entry):
        path = tmp_path / "p.json"
        path.write_text('{"blocks": {"A": [[2, 0], [0, 10]], "B": [[' + entry
                        + '], [1]], "C": [[-1]]}}')
        argv = ["enclose", "--input", str(path), "--out", str(tmp_path / "r")]
        fast = main(argv), capsys.readouterr().err
        monkeypatch.setattr(problems, "orjson", None)
        assert (main(argv), capsys.readouterr().err) == fast
        code, err = fast
        assert code == 2
        assert err.startswith("specblock: error: matrix entry must be")
        assert err.count("\n") == 1
        assert len(err.encode("utf-8")) < 300

    @pytest.mark.parametrize("where", ["csv-cell", "csv-path", "rho-name",
                                       "csv-newline", "path-newline",
                                       "path-long"])
    def test_long_echo_is_bounded(self, tmp_path, capsys, monkeypatch, where):
        long = "x" * 100_000
        path = None
        if where == "csv-cell":
            (tmp_path / "b.csv").write_text(long + "\n1\n")
            payload = {"blocks": {"A": [[2, 0], [0, 10]], "B": "b.csv",
                                  "C": [[-1]]}}
            command, start = "enclose", "cannot parse entry 'xxx...xxxx'"
        elif where == "csv-path":
            payload = {"blocks": {"A": [[2, 0], [0, 10]], "B": long,
                                  "C": [[-1]]}}
            command, start = "enclose", "x: File name too long\n"
        elif where == "csv-newline":
            payload = {"blocks": {"A": [[2, 0], [0, 10]], "B": "b\nc.csv",
                                  "C": [[-1]]}}
            command = "enclose"
            start = "b\\nc.csv: No such file or directory\n"
        elif where == "path-newline":
            path = str(tmp_path / "no\nsuch.json")
            command = "enclose"
            start = "no\\nsuch.json: No such file or directory\n"
        elif where == "path-long":
            path = str(tmp_path / long)
            command, start = "enclose", "x: File name too long\n"
        else:
            payload = {"mhd": dict(MHD_PROBLEM["mhd"], rho=long)}
            command, start = "mhd", "unknown built-in 'xxx...xxxx' for rho"
        if path is None:
            path = write_problem(tmp_path, "p.json", payload)
        argv = [command, "--input", path, "--out", str(tmp_path / "r")]
        fast = main(argv), capsys.readouterr().err
        monkeypatch.setattr(problems, "orjson", None)
        assert (main(argv), capsys.readouterr().err) == fast
        code, err = fast
        assert code == 2
        assert err.startswith("specblock: error: ")
        assert start in err
        assert err.count("\n") == 1
        assert len(err.encode("utf-8")) < 300

    @pytest.mark.parametrize("flag", [True, False])
    def test_squared_bands_flag(self, tmp_path, flag):
        path = write_problem(tmp_path, "p.json",
                             dict(MHD_PROBLEM, flags={"squared_bands": flag}))
        code, rep = run_to_file(tmp_path, ["mhd", "--input", path, "--n", "16"])
        bands, = [c for c in rep["checks"]
                  if c["name"] == "mhd/essential-bands"]
        assert bands["inputs"]["squared_variant"] is flag

    def test_corrupted_selftest_exits_1(self, tmp_path, monkeypatch):
        # The cubic fixture with A = diag(2, 10.5) misses its own eigenvalues.
        def corrupted():
            block = fixture_block()
            return BlockOperatorMatrix(A=np.diag([2.0, 10.5]), B=block.B,
                                       C=block.C)

        monkeypatch.setattr(selftest, "fixture_block", corrupted)
        out = tmp_path / "r.json"
        code = main(["selftest", "--seed", "7", "--out", str(out)])
        assert code == 1
        rep = json.loads(out.read_text())
        assert rep["summary"]["fail"] >= 1


class TestEnclose:
    def test_decoupled_blocks_degenerate_windows(self, tmp_path):
        payload = {"blocks": {"A": [[2, 0], [0, 10]], "B": [[0], [0]],
                              "C": [[-1]]}}
        path = write_problem(tmp_path, "p.json", payload)
        code, rep = run_to_file(tmp_path, ["enclose", "--input", path])
        assert code == 0
        assert rep["summary"]["fail"] == 0
        names = {c["name"]: c for c in rep["checks"]}
        win = names["inclusion-window/mu=2"]
        assert win["outputs"]["lo"] == pytest.approx(-1.0)
        assert win["outputs"]["hi"] == pytest.approx(2.0)

    def test_near_equal_points_of_sigma_a_share_checks(self, tmp_path):
        # 2 and 2 + 1e-14 are one point of sigma(A) up to round-off
        verdicts = []
        for second in (2.0, 2.0 + 1e-14):
            payload = {"blocks": {
                "A": [[2, 0, 0, 0], [0, second, 0, 0], [0, 0, 10, 0],
                      [0, 0, 0, 30]],
                "B": [[0.3], [0.3], [0.3], [0.3]], "C": [[-1]]}}
            path = write_problem(tmp_path, "p.json", payload)
            _, rep = run_to_file(tmp_path, ["enclose", "--input", path])
            verdicts.append([(c["name"], c["status"]) for c in rep["checks"]])
        assert verdicts[0] == verdicts[1]
        names = [name for name, _ in verdicts[1]]
        assert len(names) == len(set(names))

    def test_eigenvalue_inside_a_cluster_span_reads_its_exclusion_window(
            self, tmp_path):
        # Shifted by 1e9, the two lowest eigenvalues of A, 1e9 + 1 and
        # 1e9 + 1.5, are one cluster, and the eigenvalue 1e9 + 1.083 of M
        # between them falls to its exclusion window as well.
        raw = json.loads(Path(GOLDEN_BLOCK).read_text())
        for key in ("A", "C"):
            for i, row in enumerate(raw["blocks"][key]):
                row[i][0] += 1e9
        path = write_problem(tmp_path, "shifted.json", raw)
        _, rep = run_to_file(tmp_path, ["enclose", "--input", path])
        check, = [c for c in rep["checks"]
                  if c["name"] == "exclusion-window/mu=1e+09"
                  and c["inputs"]["mu"] == 1e9 + 1]
        assert check["status"] == "pass"
        lam, = check["outputs"]["applicable"]
        assert lam == pytest.approx(1e9 + 1.083, abs=1e-3)
        assert not check["outputs"]["intruding"]

    def test_every_check_carries_anchor(self, tmp_path):
        path = write_problem(tmp_path, "m3.json", M3_PROBLEM)
        _, rep = run_to_file(tmp_path, ["enclose", "--input", path])
        assert all(c["anchor"] for c in rep["checks"])

    def test_hypothesis_failures_not_applicable(self, tmp_path):
        path = write_problem(tmp_path, "m3.json", M3_PROBLEM)
        code, rep = run_to_file(tmp_path, ["enclose", "--input", path])
        statuses = {c["status"] for c in rep["checks"]}
        assert "not-applicable" in statuses  # single-pair fixture
        assert code == 0


class TestAngular:
    def test_codim_one_at_alpha_six(self, tmp_path):
        path = write_problem(tmp_path, "m3.json", M3_PROBLEM)
        code, rep = run_to_file(
            tmp_path, ["angular", "--input", path, "--alpha", "6"])
        assert code == 0
        names = {c["name"]: c for c in rep["checks"]}
        assert names["angular/operator"]["outputs"]["codim"] == 1
        assert names["angular/delta"]["outputs"]["delta"] == pytest.approx(
            1.0 / 14.0, abs=1e-12)

    def test_default_alpha_uses_landmark(self, tmp_path):
        path = write_problem(tmp_path, "m3.json", M3_PROBLEM)
        code, rep = run_to_file(tmp_path, ["angular", "--input", path])
        names = {c["name"]: c for c in rep["checks"]}
        assert names["angular/codim-kappa"]["status"] == "pass"
        assert names["angular/codim-kappa"]["outputs"]["codim"] == 0

    def test_zero_block_cut_below_its_spectrum(self, tmp_path, capsys):
        # M = 0 above alpha = -1 is the whole space, no graph: the operator
        # check does not apply, and nothing divides by ||M|| = 0
        payload = {"blocks": {"A": [[0.0, 0.0], [0.0, 0.0]],
                              "B": [[0.0], [0.0]], "C": [[0.0]]}}
        path = write_problem(tmp_path, "zero.json", payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, rep = run_to_file(
                tmp_path, ["angular", "--input", path, "--alpha", "-1"])
        assert code == 0
        assert capsys.readouterr().err == ""
        names = {c["name"]: c["status"] for c in rep["checks"]}
        assert names["angular/operator"] == "not-applicable"

    @pytest.mark.parametrize("k", [-600, 500])
    def test_riccati_residual_has_degree_zero(self, tmp_path, k):
        # the golden block times 2^k, an exact scaling
        blocks = json.loads(Path(GOLDEN_BLOCK).read_text())["blocks"]

        def checks(scale):
            path = write_problem(tmp_path, "scaled.json", {"blocks": {
                name: np.multiply(blocks[name], scale).tolist()
                for name in "ABC"}})
            found = {}
            for command in ("angular", "basis"):
                code, rep = run_to_file(tmp_path, [command, "--input", path])
                assert code == 0
                found.update({c["name"]: c for c in rep["checks"]})
            return found

        base, scaled = checks(1.0), checks(2.0 ** k)
        for name in ("angular/delta", "angular/graph", "angular/operator",
                     "angular/codim-kappa", "basis/riesz"):
            assert scaled[name]["status"] == base[name]["status"], name
        for name in ("angular/operator", "basis/riesz"):
            residual = scaled[name]["outputs"]["riccati_residual"]
            assert scaled[name]["status"] == "pass"
            assert residual == pytest.approx(
                base[name]["outputs"]["riccati_residual"], abs=1e-15)


    def test_decay_underflow_is_not_applicable(self, tmp_path):
        # The golden block times 2^-600: dist[z, sigma(A)] (lambda - c)
        # underflows, so delta_n is 0/0; both statements say why.
        blocks = json.loads(Path(GOLDEN_BLOCK).read_text())["blocks"]
        path = write_problem(tmp_path, "tiny.json", {"blocks": {
            name: np.multiply(blocks[name], 2.0 ** -600).tolist()
            for name in "ABC"}})
        code, rep = run_to_file(tmp_path, ["basis", "--input", path])
        assert code == 0
        found = {c["name"]: c for c in rep["checks"]}
        for name in ("basis/decay", "basis/bari"):
            assert found[name]["status"] == "not-applicable"
            assert "underflows" in found[name]["outputs"]["reason"], name
        assert found["basis/riesz"]["status"] == "pass"


class TestBasisSoqMhd:
    def test_basis_fixture(self, tmp_path):
        path = write_problem(tmp_path, "m3.json", M3_PROBLEM)
        code, rep = run_to_file(tmp_path, ["basis", "--input", path])
        assert code == 0
        assert rep["summary"]["fail"] == 0

    def test_soq_full_dimension_degenerates(self, tmp_path):
        # a ladder with two valid pair windows; full-space trial basis
        payload = {"blocks": {"A": [[2, 0, 0, 0], [0, 10, 0, 0],
                                    [0, 0, 40, 0], [0, 0, 0, 90]],
                              "B": [[0.3], [0.3], [0.3], [0.3]],
                              "C": [[-1]]}, "rb": [0.0, 0.36]}
        path = write_problem(tmp_path, "p.json", payload)
        code, rep = run_to_file(tmp_path, ["soq", "--input", path])
        assert code == 0
        check = rep["checks"][0]
        assert check["status"] in ("pass", "not-applicable")
        if check["status"] == "pass":
            for point in check["outputs"]["points"]:
                if point["admitted"]:
                    lo, hi = point["interval"]
                    assert hi - lo <= 1e-6

    def test_mhd_pipeline(self, tmp_path):
        path = write_problem(tmp_path, "mhd.json", MHD_PROBLEM)
        code, rep = run_to_file(
            tmp_path, ["mhd", "--input", path, "--n", "32", "--n-max", "4"])
        assert code == 0
        assert rep["summary"]["fail"] == 0
        assert any(c["name"] == "mhd/projection-decay" for c in rep["checks"])

    def test_mhd_reads_n_max_from_the_problem_file(self, tmp_path):
        path = write_problem(tmp_path, "mhd.json", dict(MHD_PROBLEM, n_max=2))
        code, rep = run_to_file(tmp_path, ["mhd", "--input", path, "--n", "32"])
        assert code == 0
        names = {c["name"]: c for c in rep["checks"]}
        assert names["mhd/bari-sums"]["inputs"]["n_max"] == 2
        assert names["mhd/projection-decay"]["inputs"]["n_max"] == 2

    @pytest.mark.parametrize("g", [1e20, 1e50, 1e100, 1e150])
    def test_mhd_huge_g_decay_not_applicable(self, tmp_path, capsys, g):
        # The huge coupling collides the rungs under assembled_tol: the
        # projection decay claims nothing, and the report goes on.
        path = write_problem(tmp_path, "mhd.json",
                             {"mhd": dict(MHD_PROBLEM["mhd"], g=g)})
        code, rep = run_to_file(tmp_path, ["mhd", "--input", path, "--n", "16"])
        assert code == 0
        assert capsys.readouterr().err == ""
        decay, = [c for c in rep["checks"]
                  if c["name"] == "mhd/projection-decay"]
        assert decay["status"] == "not-applicable"
        assert "collides with a neighbour" in decay["outputs"]["reason"]

    def test_mhd_command_requires_profile(self, tmp_path, capsys):
        path = write_problem(tmp_path, "m3.json", M3_PROBLEM)
        assert main(["mhd", "--input", path]) == 2
        capsys.readouterr()

    def test_profile_accepted_by_enclose(self, tmp_path):
        path = write_problem(tmp_path, "mhd.json", MHD_PROBLEM)
        code, rep = run_to_file(
            tmp_path, ["enclose", "--input", path, "--n", "16"])
        assert code == 0
        assert rep["summary"]["fail"] == 0


class TestOutputPlumbing:
    def test_environment_does_not_change_reports(self, tmp_path, monkeypatch):
        mhd = write_problem(tmp_path, "mhd.json", MHD_PROBLEM)
        runs = [["enclose", "--input", GOLDEN_BLOCK],
                ["mhd", "--input", mhd, "--n", "16"]]

        def reports(tag):
            out = []
            for i, argv in enumerate(runs):
                path = tmp_path / f"{tag}-{i}.json"
                out.append((main(argv + ["--out", str(path)]),
                            path.read_bytes()))
            return out

        for name in ("SPECBLOCK_TOL", "SPECBLOCK_SELFTEST_CORRUPT"):
            monkeypatch.delenv(name, raising=False)
        unset = reports("unset")
        monkeypatch.setenv("SPECBLOCK_TOL", "1e-3")
        monkeypatch.setenv("SPECBLOCK_SELFTEST_CORRUPT", "1")
        assert reports("set") == unset

    def test_stdout_report(self, tmp_path, capsys):
        path = write_problem(tmp_path, "m3.json", M3_PROBLEM)
        code = main(["enclose", "--input", path])
        captured = capsys.readouterr()
        assert code == 0
        rep = json.loads(captured.out)
        assert rep["command"] == "enclose"
        assert len(rep["input_digest"]) == 64

    def test_report_round_trips(self, tmp_path):
        path = write_problem(tmp_path, "m3.json", M3_PROBLEM)
        out = tmp_path / "rep.json"
        main(["enclose", "--input", path, "--out", str(out)])
        text = out.read_text().rstrip("\n")
        assert emit_json(json.loads(text)) == text

    def test_csv_per_family(self, tmp_path):
        path = write_problem(tmp_path, "m3.json", M3_PROBLEM)
        csv_dir = tmp_path / "csv"
        main(["enclose", "--input", path, "--csv", str(csv_dir)])
        names = sorted(p.name for p in csv_dir.iterdir())
        assert "dist-bound.csv" in names
        assert "inclusion-window.csv" in names
        header = (csv_dir / "dist-bound.csv").read_text().splitlines()[0]
        assert header.split(",")[:3] == ["name", "status", "anchor"]

    def test_selftest_deterministic_bytes(self, selftest_42_runs):
        (code_a, a), (code_b, b) = selftest_42_runs
        assert code_a == code_b
        assert a.read_bytes() == b.read_bytes()
