import gc
import json
import random
import reprlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from specblock import ParseError, problems
from specblock.problems import load_problem, parse_matrix_entries, read_csv_matrix


def write(tmp_path, name, payload):
    path = tmp_path / name
    if isinstance(payload, (dict, list)):
        path.write_text(json.dumps(payload))
    else:
        path.write_text(payload)
    return path


class TestMatrixParsing:
    def test_real_entries(self):
        mat = parse_matrix_entries([[1, 2], [3, 4]])
        assert np.array_equal(mat, np.array([[1, 2], [3, 4]], dtype=complex))

    def test_re_im_pairs(self):
        mat = parse_matrix_entries([[[1, 2]], [[0, -1]]])
        assert mat[0, 0] == 1 + 2j
        assert mat[1, 0] == -1j

    def test_ragged_rows_rejected(self):
        with pytest.raises(ParseError):
            parse_matrix_entries([[1, 2], [3]])

    def test_bad_entry_rejected(self):
        with pytest.raises(ParseError):
            parse_matrix_entries([["x"]])

    def test_mixed_row(self):
        mat = parse_matrix_entries([[1, [0.5, -2]], [[3, 0], 4.25]])
        assert mat.tolist() == [[1, 0.5 - 2j], [3, 4.25]]

    def test_negative_zero_imaginary_part_keeps_its_sign(self):
        for rows, signs in (([[1.0, [2.0, -0.0]]], [False, True]),
                            ([[[2.0, -0.0], [1.0, 0.0]]], [True, False])):
            mat = parse_matrix_entries(rows)
            assert np.signbit(mat[0].imag).tolist() == signs

    def test_negative_zero_real_part_keeps_its_sign(self):
        mat = parse_matrix_entries([[-0.0, [-0.0, 1.0]]])
        assert np.signbit(mat.real).all()

    @pytest.mark.parametrize("value", [2 ** 53 + 1, 2 ** 64 + 1, 10 ** 30,
                                       -(2 ** 63) - 1])
    def test_large_integers_round_like_complex(self, value):
        for rows in ([[value, 1]], [[[value, value], [1, 0]]],
                     [[value, [1, value]]]):
            mat = parse_matrix_entries(rows)
            expected = [complex(*e) if isinstance(e, list) else complex(e)
                        for e in rows[0]]
            assert mat[0].tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("rows", [
        [[10 ** 400]], [[1, 10 ** 400]], [[[1, 10 ** 400]]],
        [[[1, 0], 10 ** 400]]])
    def test_integer_outside_double_range_rejected(self, rows):
        with pytest.raises(ParseError, match="invalid matrix entry"):
            parse_matrix_entries(rows)

    @pytest.mark.parametrize("rows", [
        [[[True, 1]]], [[[1, 0], [True, 1]]], [[2, [True, 1]]]])
    def test_boolean_inside_a_pair_rejected(self, rows):
        with pytest.raises(ParseError, match=r"got \[True, 1\]"):
            parse_matrix_entries(rows)

    def test_ragged_row_before_a_bad_entry_raises_the_length_error(self):
        with pytest.raises(ParseError, match="inconsistent lengths"):
            parse_matrix_entries([[1, 2], [3], ["x", 4]])
        with pytest.raises(ParseError, match="inconsistent lengths"):
            parse_matrix_entries([[[1, 0], [2, 0]], [[3, 0]], [[True, 0]]])

    def test_rows_of_pairs_skip_the_entry_loop(self, monkeypatch):
        calls = []
        original = problems._parse_entry

        def counting(entry):
            calls.append(entry)
            return original(entry)

        monkeypatch.setattr(problems, "_parse_entry", counting)
        rng = np.random.default_rng(8)
        values = rng.standard_normal((200, 200, 2))
        mat = parse_matrix_entries(values.tolist())
        assert calls == []
        assert mat.tobytes() == values.tobytes()
        parse_matrix_entries([[1, [2, 3]]])
        assert calls == [1, [2, 3]]


# A bad entry is echoed to two levels, three list items or two dict items
# per level, 12 characters of a string and 16 of any other scalar.
ECHO = reprlib.Repr()
ECHO.maxlevel = 2
ECHO.maxlist = 3
ECHO.maxdict = 2
ECHO.maxstring = 12
ECHO.maxlong = ECHO.maxother = 16


def reference_parse(rows):
    """The matrix parser before rows were converted whole: entry by entry."""
    def is_number(value):
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    def parse_entry(entry):
        try:
            if is_number(entry):
                return complex(entry)
            if (isinstance(entry, (list, tuple)) and len(entry) == 2
                    and all(is_number(p) for p in entry)):
                return complex(entry[0], entry[1])
        except OverflowError as exc:
            raise ParseError(f"invalid matrix entry: {exc}") from exc
        raise ParseError("matrix entry must be a number or [re, im] pair, "
                         f"got {ECHO.repr(entry)}")

    if not isinstance(rows, list) or not rows:
        raise ParseError("matrix must be a non-empty list of rows")
    if all(is_number(e) for e in rows):
        rows = [rows]
    width = None
    parsed = []
    for row in rows:
        if not isinstance(row, list) or not row:
            raise ParseError("matrix rows must be non-empty lists")
        values = [parse_entry(e) for e in row]
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise ParseError("matrix rows have inconsistent lengths")
        parsed.append(values)
    return np.array(parsed, dtype=complex)


NUMBERS = [0, 1, -7, 2 ** 53 + 1, 2 ** 60, 2 ** 64 + 1, -(10 ** 30), 0.0, -0.0,
           0.5, -2.75, 1e300, -1e-300, 5e-324, float("inf"), float("nan")]
NOT_NUMBERS = [True, False, None, "1", "x", [], [1], [1, 2, 3], [True, 1],
               [1, None], ["1", 2], [[1, 2]], {}, {"re": 1}]


def random_entry(rng: random.Random, bad: float):
    roll = rng.random()
    if roll < bad:
        return rng.choice(NOT_NUMBERS)
    if roll < 0.5:
        return rng.choice(NUMBERS)
    return [rng.choice(NUMBERS), rng.choice(NUMBERS)]


# Numbers a row of [re, im] pairs, converted by one call, must treat as the
# entry loop does: a signed zero, an integer doubles round, one outside
# double range, and a boolean.
PAIR_SEEDS = [-0.0, 2 ** 53 + 1, 10 ** 400, True]


def pair_rows(rng: random.Random):
    """Equally long rows of [re, im] pairs, now and then with a seeded
    number in one pair, a ragged last row or a non-list row."""
    width = rng.randint(1, 4)
    rows = [[[rng.choice(NUMBERS), rng.choice(NUMBERS)] for _ in range(width)]
            for _ in range(rng.randint(1, 4))]
    spoil = rng.random()
    if spoil < 0.3:
        pair = rng.choice(rng.choice(rows))
        pair[rng.randrange(2)] = rng.choice(PAIR_SEEDS)
    elif spoil < 0.35:
        rows[-1] = rows[-1][:rng.randrange(width)]
    elif spoil < 0.4:
        rows[-1] = rows[-1] + [[1, 0]]
    elif spoil < 0.5:
        rows[rng.randrange(len(rows))] = rng.choice(
            NUMBERS + NOT_NUMBERS + [((1, 0),) * width])
    return rows


def random_rows(rng: random.Random):
    """A matrix-like value: rows of numbers, of pairs or mixed, now and then
    a bad entry, a ragged or empty row, a non-list row or a flat list; or
    one of pair_rows."""
    shape = rng.random()
    bad = rng.choice([0.0, 0.0, 0.02, 0.2])
    if shape > 0.6:
        return pair_rows(rng)
    if shape < 0.03:
        return rng.choice([[], None, 3, "rows", {}])
    if shape < 0.12:
        return [random_entry(rng, bad) for _ in range(rng.randint(1, 4))]
    width = rng.randint(1, 4)
    kind = rng.random()
    rows = []
    for _ in range(rng.randint(1, 4)):
        n = width if rng.random() > 0.05 else rng.randint(0, 5)
        if kind < 0.35:
            row = [rng.choice(NUMBERS) for _ in range(n)]
        elif kind < 0.7:
            row = [[rng.choice(NUMBERS), rng.choice(NUMBERS)]
                   for _ in range(n)]
        else:
            row = [random_entry(rng, 0.0) for _ in range(n)]
        if row and rng.random() < bad:
            row[rng.randrange(len(row))] = rng.choice(NOT_NUMBERS)
        rows.append(row if rng.random() > 0.02 else rng.choice(NUMBERS))
    return rows


def outcome(parse, rows):
    try:
        mat = parse(rows)
    except ParseError as exc:
        return "error", str(exc)
    return mat.shape, mat.dtype, mat.tobytes()


def test_matches_the_entry_by_entry_parser():
    rng = random.Random(20261018)
    errors = 0
    for _ in range(20_000):
        rows = random_rows(rng)
        expected = outcome(reference_parse, rows)
        assert outcome(parse_matrix_entries, rows) == expected, rows
        errors += expected[0] == "error"
    # Both outcomes are exercised.
    assert 2_000 < errors < 18_000


class TestCsvMatrix:
    def test_complex_and_real_cells(self, tmp_path):
        path = write(tmp_path, "m.csv", "1.5, 0.5+0.25j\n-2, 3j\n")
        mat = read_csv_matrix(path)
        assert mat[0, 1] == 0.5 + 0.25j
        assert mat[1, 1] == 3j

    def test_ragged_rejected(self, tmp_path):
        path = write(tmp_path, "m.csv", "1,2\n3\n")
        with pytest.raises(ParseError):
            read_csv_matrix(path)

    def test_unparsable_cell(self, tmp_path):
        path = write(tmp_path, "m.csv", "1,zap\n")
        with pytest.raises(ParseError):
            read_csv_matrix(path)

    def test_missing_file_prints_its_path_whole_and_once(self, tmp_path):
        path = tmp_path / "missing.csv"
        with pytest.raises(ParseError) as info:
            read_csv_matrix(path)
        assert str(info.value) == (f"cannot read matrix file {path}: "
                                   "No such file or directory")

    def test_long_paths_are_cut_in_the_middle(self, tmp_path):
        path = tmp_path / ("x" * 150) / ("y" * 150 + ".csv")
        path.parent.mkdir()
        path.write_text("1,\n")
        with pytest.raises(ParseError) as info:
            read_csv_matrix(path)
        text = str(path)
        assert str(info.value) == (f"{text[:98]}...{text[-98:]}:1: empty cell")

    def test_unreadable_file_rejected(self, tmp_path):
        (tmp_path / "m.csv").write_bytes(b"\xff\xfe1,2\n")
        for path in (tmp_path / "m.csv", tmp_path / "m\x00.csv"):
            with pytest.raises(ParseError, match="cannot read matrix file"):
                read_csv_matrix(path)


class TestProblemFiles:
    def test_blocks_inline(self, tmp_path):
        path = write(tmp_path, "p.json", {
            "blocks": {"A": [[2, 0], [0, 10]], "B": [[1], [1]], "C": [[-1]]},
            "rb": [0.0, 2.0], "alpha": 6.0, "n_max": 2})
        prob = load_problem(path)
        assert prob.block is not None
        assert prob.block.n1 == 2 and prob.block.n2 == 1
        assert prob.rb.a == 0.0 and prob.rb.b == 2.0
        assert prob.alpha == 6.0
        assert prob.n_max == 2

    def test_blocks_from_csv_reference(self, tmp_path):
        write(tmp_path, "a.csv", "2,0\n0,10\n")
        write(tmp_path, "b.csv", "1\n1\n")
        write(tmp_path, "c.csv", "-1\n")
        path = write(tmp_path, "p.json", {
            "blocks": {"A": "a.csv", "B": "b.csv", "C": "c.csv"}})
        prob = load_problem(path)
        assert np.array_equal(prob.block.A.real, np.diag([2.0, 10.0]))

    def test_mhd_with_builtins(self, tmp_path):
        path = write(tmp_path, "p.json", {
            "mhd": {"grid_n": 33, "rho": "linear", "va2": "constant",
                    "vs2": "constant", "kperp": "constant",
                    "kpar": "sinusoidal", "g": 0.5}})
        prob = load_problem(path)
        assert prob.profile is not None
        assert prob.profile.grid_n == 33
        assert prob.profile.rho[0] == pytest.approx(1.0)
        assert prob.profile.rho[-1] == pytest.approx(2.0)
        assert prob.profile.g == 0.5

    def test_mhd_with_sample_arrays(self, tmp_path):
        ones = [1.0] * 9
        path = write(tmp_path, "p.json", {
            "mhd": {"grid_n": 9, "rho": ones, "va2": ones, "vs2": ones,
                    "kperp": ones, "kpar": ones, "g": 0}})
        prob = load_problem(path)
        assert prob.profile.grid_n == 9

    def test_exactly_one_of_blocks_mhd(self, tmp_path):
        path = write(tmp_path, "p.json", {"flags": {}})
        with pytest.raises(ParseError):
            load_problem(path)
        path = write(tmp_path, "q.json", {
            "blocks": {"A": [[1]], "B": [[0]], "C": [[0]]},
            "mhd": {"grid_n": 9}})
        with pytest.raises(ParseError):
            load_problem(path)

    def test_malformed_json(self, tmp_path):
        path = write(tmp_path, "p.json", "{not json")
        with pytest.raises(ParseError):
            load_problem(path)

    def test_wrong_sample_count(self, tmp_path):
        path = write(tmp_path, "p.json", {
            "mhd": {"grid_n": 9, "rho": [1.0] * 8, "va2": "constant",
                    "vs2": "constant", "kperp": "constant",
                    "kpar": "constant"}})
        with pytest.raises(ParseError):
            load_problem(path)

    def test_unknown_builtin(self, tmp_path):
        path = write(tmp_path, "p.json", {
            "mhd": {"grid_n": 9, "rho": "galaxy", "va2": "constant",
                    "vs2": "constant", "kperp": "constant",
                    "kpar": "constant"}})
        with pytest.raises(ParseError):
            load_problem(path)

    def test_bad_rb(self, tmp_path):
        path = write(tmp_path, "p.json", {
            "blocks": {"A": [[1]], "B": [[0]], "C": [[0]]}, "rb": [-1, 0]})
        with pytest.raises(ParseError):
            load_problem(path)

    def test_invalid_blocks_dimensions(self, tmp_path):
        path = write(tmp_path, "p.json", {
            "blocks": {"A": [[1, 0], [0, 1]], "B": [[1]], "C": [[0]]}})
        with pytest.raises(ParseError):
            load_problem(path)


def decoded(path):
    """What load_problem makes of a file: its arrays as bytes and the repr
    of its other fields, or the ParseError text."""
    try:
        prob = load_problem(path)
    except ParseError as exc:
        return "error", str(exc)
    arrays = []
    if prob.block is not None:
        arrays += [prob.block.A, prob.block.B, prob.block.C]
    if prob.profile is not None:
        arrays += [prob.profile.rho, prob.profile.va2, prob.profile.vs2,
                   prob.profile.kperp, prob.profile.kpar]
        arrays.append(np.float64(prob.profile.g))
    return ([a.tobytes() for a in arrays],
            repr((prob.rb, prob.alpha, prob.n_max, prob.flags)))


def both_decoders(monkeypatch, path):
    """decoded(path) as loaded, and with the orjson fast path removed."""
    fast = decoded(path)
    with monkeypatch.context() as patch:
        patch.setattr(problems, "orjson", None)
        return fast, decoded(path)


BLOCKS = '"blocks": {"A": [[2, 0], [0, 10]], "B": [[1], [1]], "C": [[-1]]}'
PROFILE = ('"mhd": {"grid_n": 9, "rho": "linear", "va2": "constant", '
           '"vs2": "constant", "kperp": "constant", "kpar": "constant"}')


def deep(depth):
    return "[" * depth + "]" * depth


DECODER_INPUTS = {
    "grid-n-2^64": "{" + PROFILE.replace("9", str(2 ** 64)) + "}",
    "n-max-2^64": "{" + BLOCKS + f', "n_max": {2 ** 64}}}',
    "alpha-2^64": "{" + BLOCKS + f', "alpha": {2 ** 64 + 1}}}',
    "entry-2^70": "{" + BLOCKS.replace("10]", f"{2 ** 70}]") + "}",
    "entry-2^70+1": "{" + BLOCKS.replace("[[1], [1]]",
                                         f"[[{2 ** 70 + 1}], [1]]") + "}",
    "entry-near-overflow": "{" + BLOCKS.replace(
        "[[1], [1]]", f"[[{2 ** 1024 - 2 ** 970 - 1}], [1]]") + "}",
    "entry-overflow": "{" + BLOCKS.replace(
        "[[1], [1]]", f"[[{2 ** 1024 - 2 ** 970}], [1]]") + "}",
    "nan": "{" + BLOCKS.replace("[[1], [1]]", "[[NaN], [1]]") + "}",
    "1e400": "{" + BLOCKS.replace("[[1], [1]]", "[[1e400], [1]]") + "}",
    "lone-surrogate-key": "{" + BLOCKS + ', "\\ud800": 1}',
    "lone-surrogate-flag": "{" + BLOCKS + ', "flags": {"x": "\\udc00"}}',
    "bom": "﻿{" + BLOCKS + "}",
    "trailing-data": "{" + BLOCKS + "} x",
    "duplicate-keys": "{" + BLOCKS + ', "alpha": 1, "alpha": 2.5}',
    "minus-zero": "{" + BLOCKS.replace("[[1], [1]]", "[[-0], [-0.0]]") + "}",
    "minus-zero-pairs": "{" + BLOCKS.replace(
        "[[1], [1]]", "[[[-0, -0.0]], [[-0.0, -0]]]") + "}",
    "profile-samples": "{" + PROFILE.replace(
        '"linear"', "[1, 1.5, 2, 2.5, 3, 3.5, 4, 4.5, 1e2]") + "}",
    "flags": "{" + BLOCKS + ', "flags": {"squared_bands": false, "e": 1e19, '
                            f'"n": {2 ** 64}}}}}',
    "not-utf-8": "{" + BLOCKS + ', "x": "\udcff"}',
}
for _depth in (50, 101, 900, 2000):
    DECODER_INPUTS.update({
        f"depth-{_depth}-entry": "{" + BLOCKS.replace(
            "[[1], [1]]", f"[[{deep(_depth)}], [1]]") + "}",
        f"depth-{_depth}-flags": "{" + BLOCKS + f', "flags": {{"x": {deep(_depth)}}}}}',
        f"depth-{_depth}-unknown-key": "{" + BLOCKS + f', "x": {deep(_depth)}}}',
        f"depth-{_depth}-blocks-key": "{" + BLOCKS[:-1] + f', "D": {deep(_depth)}}}}}',
        f"depth-{_depth}-mhd-key": "{" + PROFILE[:-1] + f', "D": {deep(_depth)}}}}}',
        f"depth-{_depth}-rb": "{" + BLOCKS + f', "rb": [1, {deep(_depth)}]}}',
    })


class TestDecoders:
    """The orjson fast path gives what the stdlib decoder gives: the same
    arrays bit for bit, the same fields and the same error texts."""

    @pytest.mark.parametrize("name", DECODER_INPUTS)
    def test_same_outcome_without_orjson(self, tmp_path, monkeypatch, name):
        path = tmp_path / "p.json"
        path.write_bytes(DECODER_INPUTS[name].encode("utf-8", "surrogatepass"))
        fast, slow = both_decoders(monkeypatch, path)
        assert fast == slow

    @pytest.mark.skipif(problems.orjson is None, reason="orjson not installed")
    def test_valid_files_skip_the_stdlib_decoder(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the stdlib decoder ran")

        monkeypatch.setattr(problems.json, "loads", refuse)
        prob = load_problem(Path(__file__).parent / "data" / "golden_block.json")
        assert prob.block.n1 > 0

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.builds("{}{}.{:024d}e{}".format, st.sampled_from(["", "-"]),
                  st.integers(0, 9), st.integers(0, 10 ** 24 - 1),
                  st.integers(-345, 310))), min_size=7, max_size=7))
    def test_same_numbers_without_orjson(self, tmp_path, monkeypatch, numbers):
        a, b, c, d, e, f, g = numbers
        path = tmp_path / "p.json"
        path.write_text(
            f'{{"blocks": {{"A": [[1, 0], [0, 2]], "B": [[{a}, [{b}, {c}]], '
            f'[[{d}, {e}], {f}]], "C": [[0, 0], [0, 0]]}}, "alpha": {g}}}')
        fast, slow = both_decoders(monkeypatch, path)
        assert fast == slow


def pair_file(tmp_path, n1, n2):
    """A problem file of [re, im] pairs with complex Hermitian A and C."""
    rng = np.random.default_rng(3)

    def pairs(mat):
        return np.stack([mat.real, mat.imag], axis=-1).tolist()

    def hermitian(n):
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return x + x.conj().T

    b = rng.standard_normal((n1, n2)) + 1j * rng.standard_normal((n1, n2))
    return write(tmp_path, "p.json", {"blocks": {
        "A": pairs(hermitian(n1)), "B": pairs(b), "C": pairs(hermitian(n2))}})


class TestCollectorPause:
    """load_problem builds its result with the cyclic collector paused and
    leaves it as it found it."""

    @pytest.mark.parametrize("fast", [True, False], ids=["orjson", "stdlib"])
    def test_loading_a_pair_file_collects_nothing(self, tmp_path, monkeypatch,
                                                  fast):
        if not fast:
            monkeypatch.setattr(problems, "orjson", None)
        path = pair_file(tmp_path, 200, 50)
        phases = []

        def record(phase, info):
            phases.append(phase)

        gc.collect()
        gc.callbacks.append(record)
        try:
            prob = load_problem(path)
        finally:
            gc.callbacks.remove(record)
        assert prob.block.n1 == 200
        assert phases == []

    @pytest.mark.parametrize("name", ["valid", "flags", "nan", "bom",
                                      "depth-2000-entry"])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_is_restored(self, tmp_path, name, enabled):
        path = tmp_path / "p.json"
        text = "{" + BLOCKS + "}" if name == "valid" else DECODER_INPUTS[name]
        path.write_text(text)
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            try:
                load_problem(path)
            except ParseError:
                pass
            after = gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        assert after is enabled

    @pytest.mark.skipif(problems.orjson is None, reason="orjson not installed")
    def test_fallback_to_the_stdlib_decoder_restores_the_state(
            self, tmp_path, monkeypatch):
        states = []
        original = problems.json.loads

        def loads(*args, **kwargs):
            states.append(gc.isenabled())
            return original(*args, **kwargs)

        monkeypatch.setattr(problems.json, "loads", loads)
        path = tmp_path / "p.json"
        path.write_text(DECODER_INPUTS["flags"])
        assert load_problem(path).flags["n"] == 2 ** 64
        assert states == [False]
        assert gc.isenabled()
