"""Problem-file parsing.

A problem file is a JSON object with exactly one of:

* ``blocks``: {"A": M, "B": M, "C": M} where M is either a nested array whose
  entries are numbers or [re, im] pairs, or a string path to a CSV file
  (entries like ``1.5`` or ``0.5+0.25j``, paths relative to the problem file);
* ``mhd``: {"grid_n": n, "rho": ..., "va2": ..., "vs2": ..., "kperp": ...,
  "kpar": ..., "g": x} where each field is an array of length grid_n or the
  name of a built-in shape ("constant", "linear", "sinusoidal").

A row of a matrix may mix numbers and [re, im] pairs.

Optional keys: ``rb`` = [a, b] overriding the relative-bound scan, ``alpha``,
``n_max``, and a free-form ``flags`` object.  JSON booleans are not numbers
here: ``true`` where a number is expected is a parse error.  Matrix entries,
samples, ``rb``, ``alpha`` and ``g`` become doubles, so an integer outside
double range (such as a 401-digit ``10**400``) is a parse error too.
``grid_n`` and ``n_max`` must be JSON integers (``65``, not ``65.0`` or
``"65"``), and ``grid_n`` at least 3.  The ``mhd`` command reads ``flags.squared_bands``, which must be
a JSON boolean.

The stdlib decoder, ``json.loads`` of the UTF-8 text, defines the format:
what it accepts, the values it gives and every error text.  When orjson is
installed (the ``fast`` extra), it decodes first, and its tree is used only
when building from it succeeds.  If orjson rejects the bytes, or building
raises ParseError or RecursionError, the stdlib decoder runs on the same
bytes and its result or error is returned.  The two decoders differ in
three ways, none of which shows in a result:

* orjson rejects NaN, Infinity, lone surrogates and numbers beyond double
  range, which the stdlib decoder accepts or rejects with its own text;
* orjson reads integer literals outside [-2^63, 2^64) as doubles, which
  ``grid_n`` and ``n_max`` refuse; matrix entries, samples, ``rb``,
  ``alpha`` and ``g`` become the same doubles either way;
* the stdlib decoder raises RecursionError near the interpreter's
  recursion limit, and orjson accepts any nesting.

Matrices, samples and ``rb`` are bounded in depth by their type checks.
The values the builder does not look into, ``flags`` and unknown keys at
the top level and inside ``blocks``/``mhd``, are walked: if one nests more
than 100 levels deep or holds a double of magnitude 2^63 or more (which may
have been an integer literal), the stdlib decoder decides.

The cyclic garbage collector is paused while a file is decoded and built,
and left as it was found.  A decoded document holds no cycles and reference
counting frees it, but without the pause its many lists set off dozens of
collections per megabyte, which find nothing to free.
"""

from __future__ import annotations

import gc
import json
import reprlib
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .blocks import BlockOperatorMatrix, RelativeBound
from .errors import ParseError, ProfileError
from .mhd import BUILTIN_FIELDS, PlasmaProfile, check_grid_n

try:
    import orjson
except ImportError:  # the optional "fast" extra is not installed
    orjson = None

__all__ = ["ProblemFile", "load_problem", "parse_matrix_entries", "read_csv_matrix"]


@dataclass
class ProblemFile:
    """Parsed problem description plus the raw bytes it came from."""

    block: BlockOperatorMatrix | None
    profile: PlasmaProfile | None
    rb: RelativeBound | None
    alpha: float | None
    n_max: int | None
    flags: dict = field(default_factory=dict)
    raw: bytes = b""


# The keys the builder reads; it accepts the values of any other key, and
# of "flags", without looking into them.
_TOP_KEYS = frozenset({"blocks", "mhd", "rb", "alpha", "n_max"})
_BLOCK_KEYS = ("A", "B", "C")
_PROFILE_FIELDS = ("rho", "va2", "vs2", "kperp", "kpar")
_MHD_KEYS = frozenset({"grid_n", "g", *_PROFILE_FIELDS})
# Far below the nesting the stdlib decoder reaches before RecursionError.
_UNCHECKED_DEPTH = 100

# The types json.loads gives a JSON number; bool, a subclass of int, is not one.
_NUMBER_TYPES = frozenset({int, float})


def _is_number(value) -> bool:
    return type(value) in _NUMBER_TYPES


def _all_numbers(values) -> bool:
    return set(map(type, values)) <= _NUMBER_TYPES


# The echo of a bad matrix entry, CSV cell or built-in profile name in its
# one-line error: two levels, three list items or two dict items per level,
# and 16 characters per scalar (12 per string) at most, so a value of any
# size or depth prints at most 218 characters.
_ENTRY_ECHO = reprlib.Repr()
_ENTRY_ECHO.maxlevel = 2
_ENTRY_ECHO.maxlist = 3
_ENTRY_ECHO.maxdict = 2
_ENTRY_ECHO.maxstring = 12
_ENTRY_ECHO.maxlong = _ENTRY_ECHO.maxother = 16
# The most characters of a CSV path that an error prints.
_PATH_ECHO = 200


def _parse_entry(entry) -> complex:
    if _is_number(entry):
        return complex(entry)
    if (isinstance(entry, (list, tuple)) and len(entry) == 2
            and _all_numbers(entry)):
        return complex(entry[0], entry[1])
    raise ParseError("matrix entry must be a number or [re, im] pair, got "
                     + _ENTRY_ECHO.repr(entry))


def _parse_row(row: list) -> np.ndarray:
    """One matrix row as complex128.  A row of [re, im] pairs is converted by
    one numpy call: the pairs are flattened to re, im, re, ... and
    reinterpreted in place, so signed zeros keep their sign.  Any other row
    goes entry by entry."""
    try:
        if set(map(type, row)) == {list} and set(map(len, row)) == {2}:
            flat = list(chain.from_iterable(row))
            if _all_numbers(flat):
                return np.array(flat, dtype=float).view(np.complex128)
        return np.array([_parse_entry(e) for e in row], dtype=complex)
    except OverflowError as exc:
        raise ParseError(f"invalid matrix entry: {exc}") from exc


def parse_matrix_entries(rows) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise ParseError("matrix must be a non-empty list of rows")
    # A flat list of scalars is accepted as a single row.
    if _all_numbers(rows):
        rows = [rows]
    out = None
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise ParseError("matrix rows must be non-empty lists")
        values = _parse_row(row)
        if out is None:
            out = np.empty((len(rows), values.size), dtype=complex)
        elif values.size != out.shape[1]:
            raise ParseError("matrix rows have inconsistent lengths")
        out[i] = values
    return out


def _path_echo(path: Path) -> str:
    """A CSV path as its errors print it: whole up to _PATH_ECHO characters,
    otherwise its start and end around "..."."""
    text = str(path)
    if len(text) <= _PATH_ECHO:
        return text
    half = (_PATH_ECHO - 3) // 2
    return f"{text[:half]}...{text[-half:]}"


def read_csv_matrix(path: Path) -> np.ndarray:
    """CSV matrix with entries like ``1.5`` or ``0.5+0.25j``."""
    name = _path_echo(path)
    try:
        text = path.read_text()
    except (OSError, ValueError) as exc:
        # ValueError: a NUL in the path, or bytes that are not text.  The
        # text of an OSError repeats the path; its strerror does not.
        reason = getattr(exc, "strerror", None) or exc
        raise ParseError(f"cannot read matrix file {name}: {reason}") from exc
    rows = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        values = []
        for cell in line.split(","):
            cell = cell.strip().replace(" ", "")
            if not cell:
                raise ParseError(f"{name}:{line_no}: empty cell")
            try:
                values.append(complex(cell))
            except ValueError as exc:
                raise ParseError(
                    f"{name}:{line_no}: cannot parse entry "
                    f"{_ENTRY_ECHO.repr(cell)}") from exc
        rows.append(values)
    if not rows:
        raise ParseError(f"{name}: no rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError(f"{name}: rows have inconsistent lengths")
    return np.array(rows, dtype=complex)


def _parse_block_matrix(value, base_dir: Path) -> np.ndarray:
    if isinstance(value, str):
        return read_csv_matrix(base_dir / value)
    return parse_matrix_entries(value)


def _parse_blocks(data, base_dir: Path) -> BlockOperatorMatrix:
    if not isinstance(data, dict):
        raise ParseError("'blocks' must be an object with keys A, B, C")
    missing = set(_BLOCK_KEYS) - set(data)
    if missing:
        raise ParseError(f"'blocks' is missing {sorted(missing)}")
    a, b, c = (_parse_block_matrix(data[key], base_dir) for key in _BLOCK_KEYS)
    try:
        return BlockOperatorMatrix(A=a, B=b, C=c)
    except Exception as exc:
        raise ParseError(f"invalid blocks: {exc}") from exc


def _parse_profile_field(name: str, value, grid_n: int) -> np.ndarray:
    if isinstance(value, str):
        if value not in BUILTIN_FIELDS:
            raise ParseError(
                f"unknown built-in {_ENTRY_ECHO.repr(value)} for {name}; "
                f"choose from {sorted(BUILTIN_FIELDS)}")
        try:
            x = np.linspace(0.0, 1.0, grid_n)
        except ValueError as exc:  # a grid numpy cannot allocate
            raise ParseError(f"cannot sample {name}: {exc}") from exc
        return BUILTIN_FIELDS[value](x)
    if isinstance(value, list):
        if not _all_numbers(value):
            raise ParseError(f"{name} samples must be numbers")
        try:
            arr = np.asarray(value, dtype=float)
        except OverflowError as exc:
            raise ParseError(f"invalid {name} samples: {exc}") from exc
        if arr.size != grid_n:
            # grid_n may be any JSON integer; one that long is not echoed.
            expected = grid_n if grid_n <= 10 ** 9 else "more than 10^9"
            raise ParseError(f"{name} has {arr.size} samples, expected {expected}")
        return arr
    raise ParseError(f"{name} must be an array or a built-in name")


def _parse_mhd(data) -> PlasmaProfile:
    if not isinstance(data, dict):
        raise ParseError("'mhd' must be an object")
    grid_n = data.get("grid_n")
    if type(grid_n) is not int:
        raise ParseError("'mhd' needs an integer grid_n")
    try:
        check_grid_n(grid_n)
    except ProfileError as exc:
        raise ParseError(f"invalid profile: {exc}") from exc
    fields = {}
    for name in _PROFILE_FIELDS:
        if name not in data:
            raise ParseError(f"'mhd' is missing {name}")
        fields[name] = _parse_profile_field(name, data[name], grid_n)
    g = data.get("g", 0.0)
    if not _is_number(g):
        raise ParseError("g must be a number")
    try:
        return PlasmaProfile(g=float(g), **fields)
    except Exception as exc:
        raise ParseError(f"invalid profile: {exc}") from exc


def _stdlib_decides(value, depth: int = _UNCHECKED_DEPTH) -> bool:
    """Whether the stdlib decoder may decode an unchecked value otherwise
    than orjson did: it nests lists and objects more than ``depth`` deep, or
    holds a float of magnitude 2^63 or more, which orjson also makes of an
    integer literal outside [-2^63, 2^64)."""
    if type(value) is float:
        return abs(value) >= 2.0 ** 63
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, list):
        return False
    return depth == 0 or any(_stdlib_decides(v, depth - 1) for v in value)


def _unchecked_values(data):
    """The values _build accepts without looking into them."""
    if not isinstance(data, dict):
        return
    for key, value in data.items():
        if key not in _TOP_KEYS:
            yield value
    for key, known in (("blocks", _BLOCK_KEYS), ("mhd", _MHD_KEYS)):
        inner = data.get(key)
        if isinstance(inner, dict):
            yield from (v for k, v in inner.items() if k not in known)


def load_problem(path) -> ProblemFile:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read problem file {path}: {exc}") from exc
    # The decoded tree holds no cycles and reference counting frees it, but
    # its lists would set off many collections while it is built.
    collecting = gc.isenabled()
    gc.disable()
    try:
        if orjson is not None:
            try:
                data = orjson.loads(raw)
                if not any(map(_stdlib_decides, _unchecked_values(data))):
                    return _build(data, raw, path)
            except (orjson.JSONDecodeError, ParseError, RecursionError):
                pass
        # The stdlib decoder runs in this frame, not in a helper: how deep it
        # may nest depends on the depth of the stack it starts from.
        try:
            data = json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            # Besides JSONDecodeError and UnicodeDecodeError (both
            # ValueErrors): an integer literal over Python's digit limit, and
            # nesting too deep.
            raise ParseError(
                f"problem file {path} is not valid JSON: {exc}") from exc
        return _build(data, raw, path)
    finally:
        if collecting:
            gc.enable()


def _build(data, raw: bytes, path: Path) -> ProblemFile:
    """The ProblemFile of a decoded document; every check of the format
    outside JSON syntax is made here."""
    if not isinstance(data, dict):
        raise ParseError("problem file must contain a JSON object")
    has_blocks = "blocks" in data
    has_mhd = "mhd" in data
    if has_blocks == has_mhd:
        raise ParseError("problem file must contain exactly one of 'blocks'/'mhd'")

    block = _parse_blocks(data["blocks"], path.parent) if has_blocks else None
    profile = _parse_mhd(data["mhd"]) if has_mhd else None

    rb = None
    if "rb" in data:
        pair = data["rb"]
        if (not isinstance(pair, list) or len(pair) != 2
                or not _all_numbers(pair)):
            raise ParseError("'rb' must be a pair [a, b]")
        try:
            rb = RelativeBound(float(pair[0]), float(pair[1]))
        except Exception as exc:
            raise ParseError(f"invalid rb: {exc}") from exc

    alpha = data.get("alpha")
    if alpha is not None:
        if not _is_number(alpha):
            raise ParseError("'alpha' must be a number")
        try:
            alpha = float(alpha)
        except OverflowError as exc:
            raise ParseError(f"invalid alpha: {exc}") from exc

    n_max = data.get("n_max")
    if n_max is not None:
        if type(n_max) is not int or n_max < 1:
            raise ParseError("'n_max' must be a positive integer")

    flags = data.get("flags", {})
    if not isinstance(flags, dict):
        raise ParseError("'flags' must be an object")

    return ProblemFile(block=block, profile=profile, rb=rb,
                       alpha=alpha,
                       n_max=n_max, flags=flags, raw=raw)
