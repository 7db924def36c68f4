"""Matrix and report files: canonical round trips and rejection of bad input."""

import json
import math

import numpy as np
import pytest

from parafact.fileio import (
    _as_finite,
    _as_int,
    _require,
    matrix_from_text,
    matrix_to_text,
    read_matrix,
    read_report,
    report_from_text,
    report_to_text,
    write_matrix,
    write_report,
)
from parafact.laurent import LaurentMatrix


def sample_matrix():
    rng = np.random.default_rng(7)
    terms = {
        n: rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        for n in (-1, 0, 2)
    }
    terms[0][1, 2] = -0.0
    return LaurentMatrix(2, 3, terms)


def sample_report():
    return {
        "command": "factor",
        "options": {"input": "s.json", "tol": 1e-9, "rank": "auto", "seed": 0,
                    "out": None, "smoke": False},
        "verdicts": {
            "residual": {"pass": True, "measured": 3.5e-16, "threshold": 1e-9},
            "order_matches": {"pass": True, "measured": 2.0, "threshold": 2.0},
        },
        "exit_code": 0,
    }


class TestMatrixFiles:
    def test_round_trip_is_exact_and_byte_stable(self, tmp_path):
        M = sample_matrix()
        meta = {"name": "sample", "seed": 7, "generator": "test"}
        path = tmp_path / "m.json"
        write_matrix(path, M, metadata=meta)
        text = path.read_text(encoding="utf-8")
        back, got_meta = read_matrix(path)
        assert back == M
        assert got_meta == meta
        assert matrix_to_text(back, got_meta) == text

    def test_any_json_layout_parses(self):
        M = sample_matrix()
        compact = json.dumps(json.loads(matrix_to_text(M)))
        back, meta = matrix_from_text(compact)
        assert back == M
        assert meta == {}

    def test_zero_matrix_round_trips(self):
        text = matrix_to_text(LaurentMatrix.zeros(2, 2))
        back, _ = matrix_from_text(text)
        assert back.is_zero and back.shape == (2, 2)
        assert matrix_to_text(back) == text

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[]",
            '{"rows": 1, "cols": 1}',
            '{"rows": 1, "cols": 1, "terms": [], "extra": 0}',
            '{"rows": 0, "cols": 1, "terms": []}',
            '{"rows": 1.0, "cols": 1, "terms": []}',
            '{"rows": 1, "cols": 1, "terms": [{"power": 0}]}',
            '{"rows": 1, "cols": 1, "terms": [{"power": 0, "matrix": [[1, 0]]}]}',
            '{"rows": 1, "cols": 2, "terms": [{"power": 0, "matrix": [[[1, 0]]]}]}',
            '{"rows": 1, "cols": 1, "terms": [{"power": 0, "matrix": [[[NaN, 0]]]}]}',
            '{"rows": 1, "cols": 1, "terms": [{"power": 0, "matrix": [[[1, true]]]}]}',
            '{"rows": 1, "cols": 1, "terms": [{"power": 1, "matrix": [[[1, 0]]]},'
            ' {"power": 0, "matrix": [[[1, 0]]]}]}',
            '{"rows": 1, "cols": 1, "terms": [], "metadata": {"owner": "x"}}',
            '{"rows": 1, "cols": 1, "terms": [], "metadata": {"seed": "7"}}',
            # A row count or width no block can have is refused, not allocated.
            '{"rows": 1, "cols": 1000000000000, "terms": [{"power": 0, "matrix": [[[1, 0]]]}]}',
        ],
    )
    def test_malformed_text_is_rejected(self, text):
        with pytest.raises(ValueError):
            matrix_from_text(text)

    # With no terms the reader builds an empty store, but every command
    # sizes its arrays by rows and cols, so a matrix with more entries than
    # the dense store may hold is refused as the file's fault.
    @pytest.mark.parametrize("size", [10**12, 10**5])
    def test_dimensions_beyond_the_dense_bound_are_refused(self, size):
        text = '{"rows": %d, "cols": %d, "terms": []}' % (size, size)
        message = "a %d x %d matrix has more than 16777216 entries" % (size, size)
        with pytest.raises(ValueError, match=message):
            matrix_from_text(text)
        M, _ = matrix_from_text('{"rows": 4096, "cols": 4096, "terms": []}')
        assert M.is_zero and M.shape == (4096, 4096)

    @pytest.mark.parametrize(
        "value,expected",
        [
            (-0.0, None),
            (0, None),
            (2**53 + 1, None),
            (-(2**70) - 1, None),
            (1e308, None),
            (True, (ValueError, "im at (1, 0), power 3 must be a number, got True")),
            (False, (ValueError, "im at (1, 0), power 3 must be a number, got False")),
            (10**400, (ValueError, "im at (1, 0), power 3 must be finite, got inf")),
            (-(10**400), (ValueError, "im at (1, 0), power 3 must be finite, got -inf")),
            (float("nan"), (ValueError, "im at (1, 0), power 3 must be finite, got nan")),
            (float("-inf"), (ValueError, "im at (1, 0), power 3 must be finite, got -inf")),
            ("1", (ValueError, "im at (1, 0), power 3 must be a number, got '1'")),
        ],
    )
    def test_cells_parse_as_complex_of_each_number(self, value, expected):
        # The block is one float array viewed as complex; it must keep what
        # complex(float(re), float(im)) keeps, signed zeros included, and
        # refuse a cell with the cell-by-cell message.
        block = [[[1.5, -2], [0.25, 3]], [[-0.0, value], [7, 1e-300]]]
        text = json.dumps(
            {"rows": 2, "cols": 2, "terms": [{"power": 3, "matrix": block}]}
        )
        if expected is not None:
            kind, message = expected
            with pytest.raises(kind) as info:
                matrix_from_text(text)
            assert str(info.value) == message
            return
        M, _ = matrix_from_text(text)
        want = np.array([[complex(float(re), float(im)) for re, im in row] for row in block])
        assert M.coeff(3).tobytes() == want.tobytes()

    # The dense store spans every power between the ends: powers 0 and
    # 10^12 of an 8 x 8 matrix once asked numpy for 931 TiB.
    @pytest.mark.parametrize("shape,top", [((8, 8), 10**12), ((1, 1), 2**24)])
    def test_far_apart_powers_are_rejected(self, shape, top):
        text = matrix_to_text(LaurentMatrix(*shape, {0: np.ones(shape), 1: np.ones(shape)}))
        text = text.replace('"power": 1,', '"power": %d,' % top)
        with pytest.raises(ValueError, match="span %d" % top):
            matrix_from_text(text)

    def test_unknown_metadata_is_not_written(self):
        with pytest.raises(ValueError):
            matrix_to_text(LaurentMatrix.zeros(1, 1), metadata={"owner": "x"})


def _fmt_reference(x):
    if not math.isfinite(x):
        raise ValueError("cannot serialize non-finite number %r" % x)
    x = float(x)
    if x == 0.0:
        return "0"
    return format(x, ".17g")


def matrix_terms_to_text_reference(M):
    """The writer as it was, cell by cell through _fmt, without metadata."""
    lines = ["{", '  "rows": %d,' % M.rows, '  "cols": %d,' % M.cols]
    powers = sorted(M.terms)
    if not powers:
        body = '  "terms": []'
    else:
        lines.append('  "terms": [')
        for idx, p in enumerate(powers):
            C = np.asarray(M.coeff(p))
            lines.append("    {")
            lines.append('      "power": %d,' % p)
            lines.append('      "matrix": [')
            for i in range(M.rows):
                cells = ", ".join(
                    "[%s, %s]" % (_fmt_reference(C[i, j].real), _fmt_reference(C[i, j].imag))
                    for j in range(M.cols)
                )
                comma = "," if i + 1 < M.rows else ""
                lines.append("        [%s]%s" % (cells, comma))
            lines.append("      ]")
            lines.append("    }" + ("," if idx + 1 < len(powers) else ""))
        body = "  ]"
    lines.append(body)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _block_reference(block, cols, p):
    cells = [cell for row in block if type(row) is list and len(row) == cols for cell in row]
    flat = [x for cell in cells if type(cell) is list and len(cell) == 2 for x in cell]
    if len(flat) == 2 * len(block) * cols and all(type(x) in (float, int) for x in flat):
        try:
            values = np.array(flat, dtype=float)
        except OverflowError:
            values = None
        if values is not None and np.isfinite(values).all():
            return values.view(complex).reshape(len(block), cols)
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


def matrix_terms_from_text_reference(text):
    """The reader as it was, block by block, without metadata."""
    doc = json.loads(text)
    rows = _as_int(doc["rows"], "rows")
    cols = _as_int(doc["cols"], "cols")
    _require(isinstance(doc["terms"], list), "terms must be an array")
    terms = {}
    last_power = None
    for item in doc["terms"]:
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
        terms[p] = _block_reference(block, cols, p)
    return LaurentMatrix(rows, cols, terms)


# Finite doubles at the edges of the format: the largest, the smallest
# normal and subnormal, signed zeros, and values whose 17-digit forms
# switch between fixed and exponent notation.
EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1e17, 123456789012345678.0,
    1e-4, 1e-5, 0.1, 1.0 / 3.0, -2.5, 1.0, 2.0**-1074 * 3,
]


def _edge_matrix(seed, rows, cols, lo, hi):
    """Random coefficients with edge values planted and some exact zeros,
    a whole zero power inside the span included."""
    rng = np.random.default_rng(seed)
    count = hi - lo + 1
    bits = rng.integers(0, 2**64, size=(count, rows, 2 * cols), dtype=np.uint64)
    values = bits.view(float)
    values[~np.isfinite(values)] = 0.0
    edge = rng.random(values.shape) < 0.3
    values[edge] = rng.choice(EDGE_VALUES, size=int(edge.sum()))
    values *= rng.random(values.shape) > 0.1
    if count > 2:
        values[count // 2] = 0.0
    return LaurentMatrix.from_coeffs(np.ascontiguousarray(values).view(complex), lo)


@pytest.mark.parametrize(
    "seed,rows,cols,lo,hi",
    [(0, 1, 1, 0, 40), (1, 6, 6, 0, 3), (2, 8, 4, -4, 4), (3, 2, 3, -1, 2), (4, 3, 1, 5, 5)],
)
def test_writer_and_reader_match_the_cell_by_cell_references(seed, rows, cols, lo, hi):
    M = _edge_matrix(seed, rows, cols, lo, hi)
    text = matrix_to_text(M)
    assert text == matrix_terms_to_text_reference(M)
    got, _ = matrix_from_text(text)
    want = matrix_terms_from_text_reference(text)
    assert (got.lo, got.hi) == (want.lo, want.hi)
    assert got.coeff_array(got.lo, got.hi).tobytes() == want.coeff_array(want.lo, want.hi).tobytes()
    # Coefficients as the file holds them: negative zeros read as +0.0.
    loose = json.loads(text)
    loose["terms"][0]["matrix"][0][0] = [-0.0, 0]
    compact = json.dumps(loose)
    got, _ = matrix_from_text(compact)
    want = matrix_terms_from_text_reference(compact)
    assert got.coeff_array(got.lo, got.hi).tobytes() == want.coeff_array(want.lo, want.hi).tobytes()


def test_row_template_prints_every_double_as_fmt():
    rng = np.random.default_rng(8)
    values = rng.integers(0, 2**64, size=20000, dtype=np.uint64).view(float)
    values = np.concatenate([values[np.isfinite(values)], EDGE_VALUES])
    for x in values.tolist():
        assert "%.17g" % (x + 0.0) == _fmt_reference(x)


@pytest.mark.parametrize(
    "text",
    [
        '{"rows": 1, "cols": 1, "terms": {}}',
        '{"rows": 1, "cols": 1, "terms": [[]]}',
        '{"rows": 1, "cols": 1, "terms": [{"power": 0, "matrix": [[[1, 0]]], "x": 1}]}',
        '{"rows": 1, "cols": 1, "terms": [{"power": true, "matrix": [[[1, 0]]]}]}',
        '{"rows": 1, "cols": 1, "terms": [{"power": 0.0, "matrix": [[[1, 0]]]}]}',
        '{"rows": 1, "cols": 1, "terms": [{"power": 0, "matrix": [[[1, 0]]]},'
        ' {"power": 0, "matrix": [[[1, 0]]]}]}',
        '{"rows": 2, "cols": 1, "terms": [{"power": 0, "matrix": [[[1, 0]]]}]}',
        '{"rows": 1, "cols": 2, "terms": [{"power": 0, "matrix": [[[1, 0], [2]]]}]}',
        '{"rows": 1, "cols": 2, "terms": [{"power": 0, "matrix": [[[1, 0], 2]]}]}',
        '{"rows": 1, "cols": 1, "terms": [{"power": 0, "matrix": [[[1, 0]]]},'
        ' {"power": 3, "matrix": [[["1", 0]]]}]}',
        '{"rows": 1, "cols": 1, "terms": [{"power": 0, "matrix": [[[1, null]]]}]}',
        '{"rows": 1, "cols": 1, "terms": [{"power": 0, "matrix": [[[1e999, 0]]]}]}',
        '{"rows": 1, "cols": 1, "terms": [{"power": 0, "matrix": [[[1, 0]]]},'
        ' {"power": 16777216, "matrix": [[[1, 0]]]}]}',
        '{"rows": 1, "cols": 1, "terms": [{"power": 0, "matrix": [[[%d, 0]]]}]}' % 10**400,
        # The first fault in file order wins, whatever its kind.
        '{"rows": 1, "cols": 1, "terms": [{"power": 0, "matrix": [[[1e999, 0]]]},'
        ' {"power": 1}]}',
        '{"rows": 1, "cols": 1, "terms": [{"power": 0, "matrix": [[[%d, 0]]]},'
        ' {"power": 1, "matrix": [[1, 0]]}]}' % 10**400,
        '{"rows": 1, "cols": 1, "terms": [{"power": 0, "matrix": [[[1, 0]]]},'
        ' {"power": 1, "matrix": [[[0, NaN]]]}, {"power": 0, "matrix": [[[1, 0]]]}]}',
    ],
)
def test_reader_raises_the_reference_error(text):
    with pytest.raises(ValueError) as want:
        matrix_terms_from_text_reference(text)
    with pytest.raises(type(want.value)) as got:
        matrix_from_text(text)
    assert str(got.value) == str(want.value)


class TestReportFiles:
    def test_round_trip_is_byte_stable(self, tmp_path):
        path = tmp_path / "r.json"
        write_report(path, sample_report())
        text = path.read_text(encoding="utf-8")
        back = read_report(path)
        assert back == sample_report()
        assert report_to_text(back) == text

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda r: r.pop("exit_code"),
            lambda r: r.update(extra=1),
            lambda r: r.update(command=3),
            lambda r: r.update(exit_code=1),
            lambda r: r["options"].update(nested=[1]),
            lambda r: r["verdicts"]["residual"].pop("threshold"),
            lambda r: r["verdicts"]["residual"].update(measured=float("inf")),
            lambda r: r["verdicts"]["residual"].update({"pass": 1}),
            lambda r: r["options"].update(tol=float("inf")),
        ],
    )
    def test_malformed_report_is_rejected(self, mutate):
        report = sample_report()
        mutate(report)
        with pytest.raises(ValueError):
            report_to_text(report)
        with pytest.raises(ValueError):
            report_from_text(json.dumps(report))

    def test_error_block_round_trips_byte_stable(self):
        report = sample_report()
        report["verdicts"] = {"error_free": {"pass": False, "measured": 1.0, "threshold": 0.5}}
        report["error"] = {"type": "NumericalFailureError", "message": 'residual "1e-3"\n'}
        report["exit_code"] = 3
        text = report_to_text(report)
        back = report_from_text(text)
        assert back == report
        assert report_to_text(back) == text

    @pytest.mark.parametrize(
        "error",
        [
            {"type": "ValueError", "message": "bad", "trace": "x"},
            {"type": "ValueError"},
            {"type": 3, "message": "bad"},
            {"type": "ValueError", "message": None},
            ["ValueError", "bad"],
        ],
    )
    def test_malformed_error_block_is_rejected(self, error):
        report = sample_report()
        report["error"] = error
        with pytest.raises(ValueError):
            report_to_text(report)
        with pytest.raises(ValueError):
            report_from_text(json.dumps(report))

    def test_failing_verdict_needs_nonzero_exit(self):
        report = sample_report()
        report["verdicts"]["residual"]["pass"] = False
        with pytest.raises(ValueError):
            report_to_text(report)
        report["exit_code"] = 1
        assert report_from_text(report_to_text(report))["exit_code"] == 1
