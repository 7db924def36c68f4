"""Matrix and report files: canonical round trips and rejection of bad input."""

import json

import numpy as np
import pytest

from parafact.fileio import (
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
        ],
    )
    def test_malformed_text_is_rejected(self, text):
        with pytest.raises(ValueError):
            matrix_from_text(text)

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
            (10**400, (OverflowError, "int too large to convert to float")),
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
