"""Reading and writing matrix and report files.

A matrix file stores a Laurent polynomial matrix as a JSON object with
integer dimensions, a list of coefficient blocks keyed by power, and an
optional metadata block.  Every complex entry is written as an [re, im]
pair.  A report file stores the outcome of a command: the command name, the
options it ran with, a map of named checks, and the exit code.

Numbers are emitted as decimals with 17 significant digits, which is enough
to round-trip any binary64 value exactly, so a parse followed by a write
reproduces a canonically formatted file byte for byte.  Parsing accepts any
valid JSON layout of the same structure.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .laurent import _MAX_DENSE_COEFFS, LaurentMatrix

__all__ = [
    "matrix_to_text",
    "matrix_from_text",
    "write_matrix",
    "read_matrix",
    "report_to_text",
    "report_from_text",
    "write_report",
    "read_report",
]

_METADATA_FIELDS = {"name": str, "seed": int, "generator": str}


def _fmt(x: float) -> str:
    """Decimal form of a finite float with 17 significant digits.

    Zero is canonicalized so that a negative zero never reaches the file;
    parsing would otherwise flip it to plain zero and break byte-stable
    round trips.
    """
    if not math.isfinite(x):
        raise ValueError("cannot serialize non-finite number %r" % x)
    x = float(x)
    if x == 0.0:
        return "0"
    return format(x, ".17g")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _as_int(value, what: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool),
             "%s must be an integer, got %r" % (what, value))
    return value


def _as_finite(value, what: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             "%s must be a number, got %r" % (what, value))
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the double range
        value = math.inf if value > 0 else -math.inf
    _require(math.isfinite(value), "%s must be finite, got %r" % (what, value))
    return value


# ---------------------------------------------------------------------------
# matrix files
# ---------------------------------------------------------------------------


def _block_from_cells(block: list, cols: int, p: int) -> np.ndarray:
    """The complex coefficient block of power p from its rows of [re, im] cells.

    Raises the error that names the first bad row, cell or number.
    """
    C = np.zeros((len(block), cols), dtype=complex)
    for i, row in enumerate(block):
        _require(isinstance(row, list) and len(row) == cols,
                 "row %d of power %d must have %d entries" % (i, p, cols))
        for j, cell in enumerate(row):
            _require(isinstance(cell, list) and len(cell) == 2,
                     "entry (%d, %d) of power %d must be [re, im]" % (i, j, p))
            C[i, j] = complex(
                _as_finite(cell[0], "re at (%d, %d), power %d" % (i, j, p)),
                _as_finite(cell[1], "im at (%d, %d), power %d" % (i, j, p)),
            )
    return C


def _matrix_from_terms(items, rows: int, cols: int) -> LaurentMatrix | None:
    """The matrix of well-formed terms, checked and converted in one pass.

    Every number of every block goes into one float array, viewed as
    complex, which keeps every value, signed zeros included, as
    complex(re, im) does; the dense store is built once from it.  Returns
    None when anything is malformed, including a power span whose store
    would pass laurent._MAX_DENSE_COEFFS (checked before it is allocated),
    so that the term-by-term path raises the error that names it.
    """
    if type(items) is not list:
        return None
    powers, flat = [], []
    for item in items:
        if type(item) is not dict or item.keys() != {"power", "matrix"}:
            return None
        p, block = item["power"], item["matrix"]
        if type(p) is not int or (powers and p <= powers[-1]):
            return None
        if type(block) is not list or len(block) != rows:
            return None
        cells = [cell for row in block if type(row) is list and len(row) == cols for cell in row]
        size = len(flat) + 2 * rows * cols
        flat += [x for cell in cells if type(cell) is list and len(cell) == 2 for x in cell]
        if len(flat) != size:
            return None
        powers.append(p)
    if not set(map(type, flat)) <= {float, int}:
        return None
    lo = powers[0] if powers else 0
    span = powers[-1] - lo + 1 if powers else 0
    if span * rows * cols > _MAX_DENSE_COEFFS:
        return None
    try:
        values = np.array(flat, dtype=float)
    except OverflowError:
        return None
    if not np.isfinite(values).all():
        return None
    C = np.zeros((span, rows, cols), dtype=complex)
    C[np.array(powers, dtype=int) - lo] = values.view(complex).reshape(-1, rows, cols)
    return LaurentMatrix.from_coeffs(C, lo)


def _matrix_term_by_term(items, rows: int, cols: int) -> LaurentMatrix:
    """The matrix of the terms, checked term by term; raises on the first bad one."""
    _require(isinstance(items, list), "terms must be an array")
    terms = {}
    last_power = None
    for item in items:
        _require(isinstance(item, dict), "each term must be an object")
        _require(set(item) == {"power", "matrix"},
                 "each term needs exactly power and matrix")
        p = _as_int(item["power"], "power")
        _require(last_power is None or p > last_power,
                 "powers must be strictly increasing")
        last_power = p
        block = item["matrix"]
        _require(isinstance(block, list) and len(block) == rows,
                 "matrix for power %d must have %d rows" % (p, rows))
        terms[p] = _block_from_cells(block, cols, p)
    return LaurentMatrix(rows, cols, terms)


def matrix_to_text(M: LaurentMatrix, metadata: dict | None = None) -> str:
    """Serialize a Laurent matrix to canonical matrix-file text.

    Each row of a coefficient block is formatted by one "%.17g" template,
    which prints a float as _fmt does: the block has 0.0 added first, so a
    negative zero prints as 0, and a non-finite coefficient raises _fmt's
    error.
    """
    lines = ["{"]
    lines.append('  "rows": %d,' % M.rows)
    lines.append('  "cols": %d,' % M.cols)
    if M.is_zero:
        body = '  "terms": []'
    else:
        lines.append('  "terms": [')
        C = (M.coeff_array(M.lo, M.hi) + 0.0).view(float)
        finite = np.isfinite(C)
        if not finite.all():
            _fmt(C.flat[np.argmin(finite)])
        row = "        [" + ", ".join(["[%.17g, %.17g]"] * M.cols) + "]"
        live = np.flatnonzero(C.any(axis=(1, 2))).tolist()
        blocks = C.tolist()
        for idx, n in enumerate(live):
            lines.append("    {")
            lines.append('      "power": %d,' % (M.lo + n))
            lines.append('      "matrix": [')
            lines.append(",\n".join(row % tuple(r) for r in blocks[n]))
            lines.append("      ]")
            lines.append("    }" + ("," if idx + 1 < len(live) else ""))
        body = "  ]"
    lines.append(body + ("," if metadata else ""))
    if metadata:
        unknown = set(metadata) - set(_METADATA_FIELDS)
        _require(not unknown, "unknown metadata fields: %s" % sorted(unknown))
        parts = []
        for key in ("name", "seed", "generator"):
            if key not in metadata:
                continue
            value = metadata[key]
            if _METADATA_FIELDS[key] is int:
                parts.append('"%s": %d' % (key, _as_int(value, "metadata %s" % key)))
            else:
                _require(isinstance(value, str),
                         "metadata %s must be a string" % key)
                parts.append('"%s": %s' % (key, json.dumps(value)))
        lines.append('  "metadata": {%s}' % ", ".join(parts))
    lines.append("}")
    return "\n".join(lines) + "\n"


def matrix_from_text(text: str) -> tuple[LaurentMatrix, dict]:
    """Parse matrix-file text; returns (matrix, metadata dict).

    Raises ValueError on anything malformed: wrong types, non-finite
    numbers, shape mismatches, powers out of order, or a power span whose
    dense store LaurentMatrix refuses (laurent._MAX_DENSE_COEFFS).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError("not valid JSON: %s" % exc) from exc
    _require(isinstance(doc, dict), "top level must be an object")
    unknown = set(doc) - {"rows", "cols", "terms", "metadata"}
    _require(not unknown, "unknown fields: %s" % sorted(unknown))
    _require("rows" in doc and "cols" in doc and "terms" in doc,
             "matrix file needs rows, cols, and terms")
    rows = _as_int(doc["rows"], "rows")
    cols = _as_int(doc["cols"], "cols")
    _require(rows >= 1 and cols >= 1, "rows and cols must be positive")
    M = _matrix_from_terms(doc["terms"], rows, cols)
    if M is None:
        M = _matrix_term_by_term(doc["terms"], rows, cols)
    metadata = {}
    if "metadata" in doc:
        meta = doc["metadata"]
        _require(isinstance(meta, dict), "metadata must be an object")
        unknown = set(meta) - set(_METADATA_FIELDS)
        _require(not unknown, "unknown metadata fields: %s" % sorted(unknown))
        for key, kind in _METADATA_FIELDS.items():
            if key not in meta:
                continue
            if kind is int:
                metadata[key] = _as_int(meta[key], "metadata %s" % key)
            else:
                _require(isinstance(meta[key], str),
                         "metadata %s must be a string" % key)
                metadata[key] = meta[key]
    return M, metadata


def write_matrix(path, M: LaurentMatrix, metadata: dict | None = None) -> None:
    """Write a Laurent matrix to a file in canonical form."""
    text = matrix_to_text(M, metadata)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_matrix(path) -> tuple[LaurentMatrix, dict]:
    """Read a matrix file; returns (matrix, metadata dict)."""
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_text(fh.read())


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------


def _validate_report(doc: dict) -> dict:
    _require(isinstance(doc, dict), "report must be an object")
    unknown = set(doc) - {"command", "options", "verdicts", "error", "exit_code"}
    _require(not unknown, "unknown report fields: %s" % sorted(unknown))
    _require(set(doc) - {"error"} == {"command", "options", "verdicts", "exit_code"},
             "report needs command, options, verdicts, and exit_code")
    _require(isinstance(doc["command"], str), "command must be a string")
    _require(isinstance(doc["options"], dict), "options must be an object")
    for key, value in doc["options"].items():
        _require(isinstance(key, str), "option names must be strings")
        ok = value is None or isinstance(value, (str, bool, int, float))
        _require(ok, "option %s must be a scalar" % key)
    _require(isinstance(doc["verdicts"], dict), "verdicts must be an object")
    verdicts = {}
    for name, check in doc["verdicts"].items():
        _require(isinstance(check, dict) and set(check) == {"pass", "measured", "threshold"},
                 "verdict %s needs pass, measured, and threshold" % name)
        _require(isinstance(check["pass"], bool), "verdict %s pass must be a boolean" % name)
        verdicts[name] = {
            "pass": check["pass"],
            "measured": _as_finite(check["measured"], "verdict %s measured" % name),
            "threshold": _as_finite(check["threshold"], "verdict %s threshold" % name),
        }
    code = _as_int(doc["exit_code"], "exit_code")
    all_pass = all(v["pass"] for v in verdicts.values())
    _require((code == 0) == all_pass,
             "exit_code %d inconsistent with verdicts" % code)
    out = {
        "command": doc["command"],
        "options": dict(doc["options"]),
        "verdicts": verdicts,
        "exit_code": code,
    }
    if "error" in doc:
        error = doc["error"]
        _require(isinstance(error, dict) and set(error) == {"type", "message"},
                 "error needs exactly type and message")
        _require(all(isinstance(v, str) for v in error.values()),
                 "error type and message must be strings")
        out["error"] = dict(error)
    return out


def report_to_text(report: dict) -> str:
    """Serialize a report to canonical text.

    The report maps command and options echoes, named verdicts, an
    optional error block (the failure's type and message), and the exit
    code; the exit code must be 0 exactly when every verdict passes.
    """
    report = _validate_report(report)
    lines = ["{"]
    lines.append('  "command": %s,' % json.dumps(report["command"]))
    opts = report["options"]
    if opts:
        lines.append('  "options": {')
        keys = list(opts)
        for idx, key in enumerate(keys):
            value = opts[key]
            if isinstance(value, bool):
                text = "true" if value else "false"
            elif value is None:
                text = "null"
            elif isinstance(value, str):
                text = json.dumps(value)
            elif isinstance(value, int):
                text = "%d" % value
            else:
                text = _fmt(value)
            comma = "," if idx + 1 < len(keys) else ""
            lines.append('    %s: %s%s' % (json.dumps(key), text, comma))
        lines.append("  },")
    else:
        lines.append('  "options": {},')
    verdicts = report["verdicts"]
    if verdicts:
        lines.append('  "verdicts": {')
        names = list(verdicts)
        for idx, name in enumerate(names):
            v = verdicts[name]
            comma = "," if idx + 1 < len(names) else ""
            lines.append(
                '    %s: {"pass": %s, "measured": %s, "threshold": %s}%s'
                % (json.dumps(name), "true" if v["pass"] else "false",
                   _fmt(v["measured"]), _fmt(v["threshold"]), comma)
            )
        lines.append("  },")
    else:
        lines.append('  "verdicts": {},')
    if "error" in report:
        error = report["error"]
        lines.append('  "error": {"type": %s, "message": %s},'
                     % (json.dumps(error["type"]), json.dumps(error["message"])))
    lines.append('  "exit_code": %d' % report["exit_code"])
    lines.append("}")
    return "\n".join(lines) + "\n"


def report_from_text(text: str) -> dict:
    """Parse report text, validating structure and exit-code consistency."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError("not valid JSON: %s" % exc) from exc
    return _validate_report(doc)


def write_report(path, report: dict) -> None:
    """Write a report to a file in canonical form."""
    text = report_to_text(report)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_report(path) -> dict:
    """Read and validate a report file."""
    with open(path, "r", encoding="utf-8") as fh:
        return report_from_text(fh.read())
