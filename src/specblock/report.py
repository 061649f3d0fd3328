"""Structured check reports with deterministic JSON serialization.

Every check carries a short name, the formula string it verifies (its
anchor), the inputs and outputs that matter, a three-way status, a signed
margin and the tolerances in force.  ``judge`` is the one place a check's
status and margin are decided, from its comparisons.  Reports serialize to a
canonical JSON text: keys in insertion order, floats as 17-significant-digit
decimals, so that parsing and re-emitting a report reproduces it byte for
byte and equal runs produce equal bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"

_STATUS_ORDER = {PASS: 0, NOT_APPLICABLE: 1, FAIL: 2}


# The senses of a comparison (value, limit, sense, scale) besides "within"
# and "outside", and the side of the limit the slack moves it to.
_OPERATORS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge,
              ">": operator.gt, "==": operator.eq}
_SIDE = {"<=": 1.0, "<": 1.0, ">=": -1.0, ">": -1.0}


@dataclass
class Check:
    """One verified statement: name, formula anchor, data, status, tolerances
    and margin (see ``judge``)."""

    name: str
    anchor: str
    inputs: dict
    outputs: dict
    status: str
    tolerances: dict
    margin: float | None = None

    @property
    def family(self) -> str:
        return self.name.split("/", 1)[0]


def _evaluate(comparison, slack: float):
    """Whether a comparison holds, element by element, and its slack-inclusive
    distances to the limit over the scale (None for a count).

    The sense is "<=", "<", ">=", ">" or "==", or "within" and "outside" with
    a pair (lo, hi) as the limit: the closed interval the value must lie in
    and the open one it must stay out of.  The slack times the scale widens
    the limit: value <= limit + slack scale, value >= limit - slack scale,
    the interval [lo - slack scale, hi + slack scale] and the interval
    (lo + slack scale, hi - slack scale).  A scale of None makes a count:
    exact, without slack or distance.
    """
    value, limit, sense, scale = comparison
    if scale is None:
        return _OPERATORS[sense](np.asarray(value), limit), None
    value, scale = np.asarray(value, dtype=float), np.asarray(scale, dtype=float)
    room = slack * scale
    with np.errstate(invalid="ignore", over="ignore"):
        if sense == "within":
            lower, upper = limit[0] - room, limit[1] + room
            ok = (lower <= value) & (value <= upper)
            gap = np.minimum(value - lower, upper - value)
        elif sense == "outside":
            lower, upper = limit[0] + room, limit[1] - room
            ok = ~((lower < value) & (value < upper))
            gap = np.maximum(lower - value, value - upper)
        else:
            side = _SIDE[sense]
            edge = limit + side * room
            ok = _OPERATORS[sense](value, edge)
            gap = side * (edge - value)
        return ok, gap / scale


def holds(comparison, slack: float = 0.0) -> np.ndarray:
    """Element by element, whether a comparison holds under ``judge``'s rule."""
    return np.asarray(_evaluate(comparison, slack)[0])


def judge(name: str, anchor: str, inputs: dict, outputs: dict,
          comparisons=(), applies: bool = True, **slack) -> Check:
    """The check of a statement from its comparisons.

    Each comparison is (value, limit, sense, scale); value, limit and scale
    may be arrays.  ``comparisons`` are judged without slack, and each
    keyword is one kind of slack, (amount, its comparisons), reported under
    its name in ``tolerances``.  The check passes when every comparison holds
    (see ``_evaluate``), and is not applicable, with no margin, when
    ``applies`` is false.  Its margin is the smallest slack-inclusive
    distance to a limit over that comparison's scale: at least 0 when the
    check passes and below 0 when it fails (0 when a strict comparison fails
    at its limit), and None when no finite distance bounds it (counts, no
    comparisons, or only infinite limits).
    """
    ok = True
    margin = math.inf
    for amount, group in [(0.0, comparisons), *slack.values()]:
        for comparison in group:
            good, gap = _evaluate(comparison, amount)
            ok = ok and bool(good.all())
            if gap is not None:  # fmin skips NaN distances: they bound nothing
                margin = min(margin, float(np.fmin.reduce(np.ravel(gap),
                                                          initial=math.inf)))
    return Check(name=name, anchor=anchor, inputs=inputs, outputs=outputs,
                 status=(PASS if ok else FAIL) if applies else NOT_APPLICABLE,
                 tolerances={kind: amount for kind, (amount, _) in slack.items()},
                 margin=margin if applies and margin < math.inf else None)


def aggregate(name: str, anchor: str, outputs: dict, found,
              comparisons=(), inputs=None) -> Check:
    """A check over builder checks: it fails when one of them failed or one
    of ``comparisons`` fails; its margin is the smallest of theirs and its
    tolerances are theirs."""
    failed = sum(check.status == FAIL for check in found)
    check = judge(name, anchor, inputs or {}, outputs,
                  [(failed, 0, "==", None), *comparisons])
    check.margin = min((c.margin for c in found if c.margin is not None),
                       default=None)
    for other in found:
        check.tolerances.update(other.tolerances)
    return check


def not_applicable(name: str, anchor: str, reason: str) -> Check:
    """A check whose hypotheses do not hold; ``reason`` says which failed."""
    return judge(name, anchor, {}, {"reason": reason}, applies=False)


@dataclass
class Report:
    """A full run: tool identity, input digest, and the list of checks."""

    tool: str
    version: str
    command: str
    input_digest: str
    checks: list = field(default_factory=list)

    def counts(self) -> dict:
        out = {PASS: 0, FAIL: 0, NOT_APPLICABLE: 0}
        for check in self.checks:
            out[check.status] = out.get(check.status, 0) + 1
        return out

    def worst_status(self) -> str:
        worst = PASS
        for check in self.checks:
            if _STATUS_ORDER.get(check.status, 2) > _STATUS_ORDER[worst]:
                worst = check.status
        return worst

    def to_payload(self) -> dict:
        counts = self.counts()
        return {
            "tool": self.tool,
            "version": self.version,
            "command": self.command,
            "input_digest": self.input_digest,
            "summary": {
                "pass": counts[PASS],
                "fail": counts[FAIL],
                "not_applicable": counts[NOT_APPLICABLE],
            },
            "checks": [
                {
                    "name": c.name,
                    "anchor": c.anchor,
                    "inputs": c.inputs,
                    "outputs": c.outputs,
                    "status": c.status,
                    "margin": c.margin,
                    "tolerances": c.tolerances,
                }
                for c in self.checks
            ],
        }

    def to_json(self) -> str:
        return emit_json(self.to_payload()) + "\n"


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sanitize(value):
    """Convert a value tree to JSON-safe form.

    numpy scalars and arrays become Python numbers and lists, complex numbers
    become {"re": ..., "im": ...} objects, and non-finite floats become
    strings so that every numeric field in a report is finite.
    """
    if isinstance(value, dict):
        return {str(k): sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(v) for v in value]
    if isinstance(value, np.ndarray):
        return [sanitize(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (complex, np.complexfloating)):
        z = complex(value)
        return {"re": sanitize(z.real), "im": sanitize(z.imag)}
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if not math.isfinite(x):
            return repr(x)  # 'inf', '-inf', 'nan'
        return x
    if value is None or isinstance(value, str):
        return value
    return str(value)


# json.dumps(s, ensure_ascii=False) of a str s, without building an encoder.
_quote = json.encoder.encode_basestring


def _emit(value, pieces: list):
    """Append the JSON text of ``value`` to ``pieces`` as emitting
    sanitize(value) would.  Exact floats, strings, dicts with str keys,
    lists, tuples, ints, bools and None are written as they are; any other
    value is sanitized first."""
    kind = type(value)
    if kind is float:
        pieces.append(format(value, ".17g") if math.isfinite(value)
                      else _quote(repr(value)))
    elif kind is str:
        pieces.append(_quote(value))
    elif kind is dict:
        if not {str}.issuperset(map(type, value)):
            # str() may map two keys to one; sanitize keeps the last value.
            value = {str(k): v for k, v in value.items()}
        pieces.append("{")
        for i, (key, item) in enumerate(value.items()):
            pieces.append(f",{_quote(key)}:" if i else f"{_quote(key)}:")
            _emit(item, pieces)
        pieces.append("}")
    elif kind is list or kind is tuple:
        pieces.append("[")
        for i, item in enumerate(value):
            if i:
                pieces.append(",")
            _emit(item, pieces)
        pieces.append("]")
    elif kind is int:
        pieces.append(str(value))
    elif value is None:
        pieces.append("null")
    elif kind is bool:
        pieces.append("true" if value else "false")
    elif isinstance(value, str):  # sanitize returns a str subclass as is
        pieces.append(_quote(value))
    else:
        _emit(sanitize(value), pieces)


def emit_json(value) -> str:
    """Canonical JSON text of sanitize(value): insertion-ordered keys, floats
    at 17 significant digits."""
    pieces: list = []
    _emit(value, pieces)
    return "".join(pieces)
