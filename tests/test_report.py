import json
import math
from enum import IntEnum

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from specblock.report import (
    Check,
    FAIL,
    NOT_APPLICABLE,
    PASS,
    Report,
    emit_json,
    sanitize,
)


def make_report(statuses):
    checks = [Check(name=f"family/check-{i}", anchor="x <= y", inputs={"x": 1.0},
                    outputs={"y": 2.0}, status=s, tolerances={"tol": 1e-9})
              for i, s in enumerate(statuses)]
    return Report(tool="specblock", version="0.1.0", command="test",
                  input_digest="d" * 64, checks=checks)


class TestEmitJson:
    def test_seventeen_significant_digits(self):
        text = emit_json({"x": 0.1})
        assert text == '{"x":0.10000000000000001}'

    def test_integers_stay_integers(self):
        assert emit_json({"n": 3}) == '{"n":3}'

    def test_whole_floats_round_trip(self):
        text = emit_json({"x": 2.0})
        assert json.loads(text)["x"] == 2
        assert emit_json(json.loads(text)) == text

    def test_round_trip_is_identity(self):
        payload = {"a": [1.5, -2.25, 1e-300], "b": {"c": "text", "d": None},
                   "e": [True, False, 12]}
        text = emit_json(payload)
        assert emit_json(json.loads(text)) == text

    def test_insertion_order_preserved(self):
        assert emit_json({"b": 1, "a": 2}) == '{"b":1,"a":2}'


class TestSanitize:
    def test_numpy_scalars_and_arrays(self):
        out = sanitize({"v": np.float64(1.5), "n": np.int32(2),
                        "arr": np.array([1.0, 2.0])})
        assert out == {"v": 1.5, "n": 2, "arr": [1.0, 2.0]}

    def test_complex_becomes_object(self):
        assert sanitize(1 + 2j) == {"re": 1.0, "im": 2.0}

    def test_non_finite_becomes_string(self):
        assert sanitize(float("inf")) == "inf"
        assert sanitize(float("nan")) == "nan"

    def test_bool_is_not_an_int(self):
        assert emit_json({"flag": True}) == '{"flag":true}'


class TestReport:
    def test_summary_counts(self):
        rep = make_report([PASS, PASS, FAIL, NOT_APPLICABLE])
        payload = rep.to_payload()
        assert payload["summary"] == {"pass": 2, "fail": 1, "not_applicable": 1}

    def test_worst_status(self):
        assert make_report([PASS]).worst_status() == PASS
        assert make_report([PASS, NOT_APPLICABLE]).worst_status() == NOT_APPLICABLE
        assert make_report([NOT_APPLICABLE, FAIL]).worst_status() == FAIL

    def test_json_round_trip(self):
        rep = make_report([PASS, FAIL])
        text = rep.to_json()
        assert text.endswith("\n")
        body = text.rstrip("\n")
        assert emit_json(json.loads(body)) == body

    def test_anchor_present_on_every_check(self):
        rep = make_report([PASS, FAIL, NOT_APPLICABLE])
        for check in rep.to_payload()["checks"]:
            assert check["anchor"]

    def test_family(self):
        rep = make_report([PASS])
        assert rep.checks[0].family == "family"


def reference_sanitize(value):
    """sanitize() as it was when the emitter ran after it."""
    if isinstance(value, dict):
        return {str(k): reference_sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_sanitize(v) for v in value]
    if isinstance(value, np.ndarray):
        return [reference_sanitize(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (complex, np.complexfloating)):
        z = complex(value)
        return {"re": reference_sanitize(z.real), "im": reference_sanitize(z.imag)}
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if not math.isfinite(x):
            return repr(x)
        return x
    if value is None or isinstance(value, str):
        return value
    return str(value)


def _reference_write(value, pieces: list):
    if value is None:
        pieces.append("null")
    elif value is True:
        pieces.append("true")
    elif value is False:
        pieces.append("false")
    elif isinstance(value, str):
        pieces.append(json.dumps(value, ensure_ascii=False))
    elif isinstance(value, int):
        pieces.append(str(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("non-finite float reached the serializer")
        pieces.append(format(value, ".17g"))
    elif isinstance(value, dict):
        pieces.append("{")
        for i, (key, item) in enumerate(value.items()):
            if i:
                pieces.append(",")
            pieces.append(json.dumps(str(key), ensure_ascii=False))
            pieces.append(":")
            _reference_write(item, pieces)
        pieces.append("}")
    elif isinstance(value, (list, tuple)):
        pieces.append("[")
        for i, item in enumerate(value):
            if i:
                pieces.append(",")
            _reference_write(item, pieces)
        pieces.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value)!r}")


def reference_emit(value) -> str:
    """The emitter as it was: sanitize the whole tree, then write it."""
    pieces: list = []
    _reference_write(reference_sanitize(value), pieces)
    return "".join(pieces)


class Level(IntEnum):
    LOW = -1
    HIGH = 7


class Label(str):
    pass


class Count(int):
    pass


class Named:
    def __str__(self):
        return "named \u00e9 \"value\""


FLOATS = st.one_of(st.floats(), st.sampled_from(
    [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1.7976931348623157e308]))
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), FLOATS, st.text(),
    FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    st.booleans().map(np.bool_),
    st.integers(-2 ** 31, 2 ** 31 - 1).map(np.int32),
    st.integers(0, 2 ** 64 - 1).map(np.uint64), st.sampled_from(Level),
    st.text().map(Label), st.integers().map(Count), st.just(Named()),
    st.complex_numbers(), st.builds(complex, FLOATS, FLOATS),
    st.builds(complex, FLOATS, FLOATS).map(np.complex128),
)
KEYS = st.one_of(st.text(max_size=3), st.integers(-3, 3), FLOATS,
                 st.booleans(), st.none(), st.text(max_size=3).map(Label),
                 st.sampled_from(Level), FLOATS.map(np.float64),
                 st.tuples(st.integers(0, 2)))
ARRAYS = st.one_of(
    st.lists(FLOATS, max_size=4).map(np.array),
    st.lists(st.lists(st.builds(complex, FLOATS, FLOATS), min_size=2,
                      max_size=2), max_size=3).map(np.array),
    st.lists(st.integers(-9, 9), max_size=4).map(np.array),
    st.lists(st.booleans(), max_size=4).map(np.array),
)
TREES = st.recursive(
    st.one_of(SCALARS, ARRAYS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(KEYS, children, max_size=4)),
    max_leaves=40)


def deep(tree, kinds):
    """``tree`` under one list, tuple or single-key dict per entry of kinds."""
    for kind in kinds:
        if kind == "dict":
            tree = {0: [tree]}
        elif kind == "list":
            tree = [tree]
        else:
            tree = (tree,)
    return tree


def outcome(emit, value):
    try:
        return emit(value)
    except Exception as exc:  # the same failure counts as the same outcome
        return type(exc), str(exc)


class TestEmitterDifferential:
    """emit_json writes what sanitizing the tree and then emitting it
    wrote, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(TREES)
    def test_same_bytes_as_sanitize_then_emit(self, tree):
        assert outcome(emit_json, tree) == outcome(reference_emit, tree)

    @settings(max_examples=50, deadline=None)
    @given(TREES, st.lists(st.sampled_from(["list", "tuple", "dict"]),
                           min_size=50, max_size=300))
    def test_same_bytes_deeply_nested(self, tree, kinds):
        tree = deep(tree, kinds)
        assert outcome(emit_json, tree) == outcome(reference_emit, tree)

    def test_colliding_keys_keep_the_last_value_in_the_first_place(self):
        tree = {1: "a", "x": 2, "1": "b", Label("x"): np.float64(3.5)}
        assert emit_json(tree) == reference_emit(tree) == '{"1":"b","x":3.5}'

    def test_emitting_a_report_calls_no_json_dumps(self, monkeypatch):
        calls = []
        original = json.dumps

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(json, "dumps", counting)
        rep = make_report([PASS, FAIL, NOT_APPLICABLE])
        rep.checks[0].outputs.update(
            z=1 + 2j, v=np.arange(3.0), s="caf\u00e9 \"q\"\n", inf=np.inf)
        text = rep.to_json()
        assert calls == []
        assert text == reference_emit(rep.to_payload()) + "\n"
