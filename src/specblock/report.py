"""Structured check reports with deterministic JSON serialization.

Every check carries a short name, the formula string it verifies (its
anchor), the inputs and outputs that matter, a three-way status, and the
tolerances in force.  Reports serialize to a canonical JSON text: keys in
insertion order, floats as 17-significant-digit decimals, so that parsing
and re-emitting a report reproduces it byte for byte and equal runs produce
equal bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"

_STATUS_ORDER = {PASS: 0, NOT_APPLICABLE: 1, FAIL: 2}


@dataclass
class Check:
    """One verified statement: name, formula anchor, data, status, tolerances."""

    name: str
    anchor: str
    inputs: dict
    outputs: dict
    status: str
    tolerances: dict

    @property
    def family(self) -> str:
        return self.name.split("/", 1)[0]


def verdict(ok: bool) -> str:
    """PASS when a theorem check holds, FAIL when it does not."""
    return PASS if ok else FAIL


def not_applicable(name: str, anchor: str, reason: str) -> Check:
    """A check whose hypotheses do not hold; ``reason`` says which failed."""
    return Check(name=name, anchor=anchor, inputs={}, outputs={"reason": reason},
                 status=NOT_APPLICABLE, tolerances={})


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
