"""Exit-code contract and report files of the command line.

Every subcommand exits 0 when all checks pass, 1 when a verification
check fails, 2 on invalid input and 3 when the tolerance cannot be
reached.  Every report it writes must read back and re-serialize to the
same bytes.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import parafact
from parafact.cli import main
from parafact.fileio import read_matrix, read_report, report_to_text, write_matrix
from parafact.laurent import LaurentMatrix


def run(*argv):
    return main([str(a) for a in argv])


def assert_round_trip(path):
    text = path.read_text(encoding="utf-8")
    assert report_to_text(read_report(path)) == text
    return read_report(path)


@pytest.fixture
def spectrum(tmp_path):
    s, f = tmp_path / "s.json", tmp_path / "f.json"
    code = run("random", "--m", 3, "--k", 2, "--order", 2, "--seed", 4,
               "--out", s, "--factor-out", f)
    assert code == 0
    return s, f


@pytest.fixture
def lossless(tmp_path):
    row, u = tmp_path / "row.json", tmp_path / "u.json"
    code = run("random", "--lossless", "--m", 3, "--order", 2, "--seed", 4,
               "--out", row, "--factor-out", u)
    assert code == 0
    return row, u


@pytest.fixture
def malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"rows": 1, "cols": 1, "terms": [{"power": 0}]}\n')
    return path


class TestFactor:
    def test_passing_instance_exits_0(self, spectrum, tmp_path):
        s, _ = spectrum
        out, rep = tmp_path / "out.json", tmp_path / "rep.json"
        assert run("factor", s, "--out", out, "--report", rep) == 0
        report = assert_round_trip(rep)
        assert report["exit_code"] == 0
        assert report["command"] == "factor"
        assert all(v["pass"] for v in report["verdicts"].values())
        F, _ = read_matrix(out)
        assert F.shape == (3, 2)

    def test_unreachable_tolerance_exits_3(self, tmp_path):
        s = tmp_path / "s.json"
        assert run("random", "--m", 3, "--order", 2, "--seed", 4, "--out", s) == 0
        rep = tmp_path / "rep.json"
        assert run("factor", s, "--tol", 1e-18, "--report", rep) == 3
        report = assert_round_trip(rep)
        assert report["exit_code"] == 3
        assert not all(v["pass"] for v in report["verdicts"].values())

    def test_bad_rank_exits_2(self, spectrum, tmp_path):
        s, _ = spectrum
        rep = tmp_path / "rep.json"
        assert run("factor", s, "--rank", "x", "--report", rep) == 2
        assert assert_round_trip(rep)["exit_code"] == 2

    def test_malformed_file_exits_2(self, malformed):
        assert run("factor", malformed) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert run("factor", tmp_path / "absent.json") == 2

    def test_far_apart_powers_exit_2_with_an_error_report(self, tmp_path):
        # A dense store over powers 0..10^12 of an 8 x 8 matrix would need
        # 931 TiB; the file is refused as invalid input, not left to fail
        # in the allocator.
        big = tmp_path / "big.json"
        write_matrix(big, LaurentMatrix(8, 8, {0: np.eye(8), 1: np.eye(8)}))
        big.write_text(big.read_text().replace('"power": 1,', '"power": 1000000000000,'))
        assert run("info", big) == 2
        rep = tmp_path / "rep.json"
        assert run("factor", big, "--report", rep) == 2
        report = assert_round_trip(rep)
        assert report["exit_code"] == 2
        assert report["error"]["type"] == "ValueError"
        assert "span 1000000000000" in report["error"]["message"]

    def test_integer_beyond_the_double_range_exits_2_with_an_error_report(self, tmp_path):
        # 10**400 is a valid JSON integer but no double: invalid input (2),
        # not a failed check (1).
        huge = tmp_path / "huge.json"
        huge.write_text(
            '{"rows": 1, "cols": 1, "terms": [{"power": 0, "matrix": [[[%d, 0]]]}]}'
            % 10**400
        )
        assert run("info", huge) == 2
        assert run("verify", "--paraunitary", huge) == 2
        rep = tmp_path / "rep.json"
        assert run("factor", huge, "--report", rep) == 2
        report = assert_round_trip(rep)
        assert report["exit_code"] == 2
        assert report["error"]["type"] == "ValueError"
        assert report["error"]["message"] == "re at (0, 0), power 0 must be finite, got inf"


class TestComplete:
    def test_passing_instance_exits_0(self, lossless, tmp_path):
        row, _ = lossless
        out, rep = tmp_path / "out.json", tmp_path / "rep.json"
        assert run("complete", row, "--out", out, "--report", rep) == 0
        report = assert_round_trip(rep)
        assert report["exit_code"] == 0
        assert set(report["verdicts"]) >= {"det_monomial", "degree", "det_phase_angle"}
        U, _ = read_matrix(out)
        assert U.shape == (3, 3)

    def test_unreachable_tolerance_exits_3(self, tmp_path):
        # Unit-norm within the 1e-10 floor of the norm check, but its side
        # coefficient is five times the requested tolerance.
        row = tmp_path / "row.json"
        write_matrix(row, LaurentMatrix(1, 1, {0: [[5e-11]], 1: [[1.0]]}))
        rep = tmp_path / "rep.json"
        assert run("complete", row, "--tol", 1e-11, "--report", rep) == 3
        assert assert_round_trip(rep)["exit_code"] == 3

    def test_malformed_file_exits_2(self, malformed):
        assert run("complete", malformed) == 2

    def test_square_input_exits_2(self, spectrum):
        s, _ = spectrum
        assert run("complete", s) == 2


class TestVerify:
    def test_true_factor_exits_0(self, spectrum, tmp_path):
        s, f = spectrum
        rep = tmp_path / "rep.json"
        assert run("verify", "--factor", s, f, "--report", rep) == 0
        assert assert_round_trip(rep)["exit_code"] == 0

    def test_wrong_factor_exits_1(self, spectrum, tmp_path):
        s, f = spectrum
        F, _ = read_matrix(f)
        wrong = tmp_path / "wrong.json"
        write_matrix(wrong, F * 2.0)
        rep = tmp_path / "rep.json"
        assert run("verify", "--factor", s, wrong, "--report", rep) == 1
        report = assert_round_trip(rep)
        assert report["exit_code"] == 1
        assert not report["verdicts"]["coefficient_residual"]["pass"]

    def test_paraunitary_exits_0_and_perturbed_exits_1(self, lossless, tmp_path):
        _, u = lossless
        assert run("verify", "--paraunitary", u) == 0
        U, _ = read_matrix(u)
        bumped = tmp_path / "bumped.json"
        write_matrix(bumped, U + LaurentMatrix.constant(1e-6 * np.eye(3)))
        rep = tmp_path / "rep.json"
        assert run("verify", "--paraunitary", bumped, "--report", rep) == 1
        assert assert_round_trip(rep)["exit_code"] == 1

    def test_malformed_file_exits_2(self, spectrum, malformed):
        s, _ = spectrum
        assert run("verify", "--factor", s, malformed) == 2
        assert run("verify", "--paraunitary", malformed) == 2

    def test_infinite_measurement_is_clamped(self, tmp_path):
        zero = tmp_path / "zero.json"
        write_matrix(zero, LaurentMatrix.zeros(2, 2))
        rep = tmp_path / "rep.json"
        assert run("verify", "--paraunitary", zero, "--report", rep) == 1
        report = assert_round_trip(rep)
        det = report["verdicts"]["det_monomial"]
        assert det == {"pass": False, "measured": 1e308, "threshold": 1e-9}
        assert all(math.isfinite(v["measured"]) for v in report["verdicts"].values())


def test_bad_arguments_exit_2():
    assert run("factor") == 2
    assert run("verify") == 2


def test_commands_are_looked_up_at_call_time(monkeypatch, spectrum):
    # The parser is built once; a cmd_* wrapped after that, as a tracer
    # wraps it, must still be the one that runs.
    s, _ = spectrum
    assert run("info", s) == 0
    seen = []
    monkeypatch.setattr("parafact.cli.cmd_info", lambda args: seen.append(args.input) or 0)
    assert run("info", s) == 0
    assert seen == [str(s)]


def test_parser_reuse_matches_fresh_interpreters(tmp_path, monkeypatch, capsys):
    # One process builds the parser once; a failed parse must leave nothing
    # behind that a later call could see.
    calls = [
        ["factor"],
        ["random", "--m", "3", "--k", "2", "--order", "2", "--seed", "4",
         "--out", "s.json"],
        ["factor", "s.json", "--out", "f.json", "--report", "fr.json"],
        ["verify", "--factor", "s.json", "f.json", "--report", "vr.json"],
    ]
    files = ("s.json", "f.json", "fr.json", "vr.json")
    (tmp_path / "warm").mkdir()
    monkeypatch.chdir(tmp_path / "warm")
    capsys.readouterr()
    warm = []
    for argv in calls:
        code = main(argv)
        out, err = capsys.readouterr()
        warm.append((code, out, err))

    (tmp_path / "cold").mkdir()
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(parafact.__file__)))
    cold = []
    for argv in calls:
        proc = subprocess.run(
            [sys.executable, "-m", "parafact.cli", *argv],
            cwd=tmp_path / "cold", env=env, capture_output=True, text=True,
        )
        cold.append((proc.returncode, proc.stdout, proc.stderr))

    assert [c[0] for c in warm] == [2, 0, 0, 0]
    assert warm == cold
    for name in files:
        assert (tmp_path / "warm" / name).read_bytes() == (tmp_path / "cold" / name).read_bytes()


class TestReportBytes:
    """Exact report text for inputs whose every measurement is exact."""

    def test_verify_report(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_matrix("zero.json", LaurentMatrix.zeros(2, 2))
        assert run("verify", "--paraunitary", "zero.json", "--report", "v.json") == 1
        assert (tmp_path / "v.json").read_text() == (
            "{\n"
            '  "command": "verify",\n'
            '  "options": {\n'
            '    "spectrum": null,\n'
            '    "factor": null,\n'
            '    "paraunitary": "zero.json",\n'
            '    "tol": 1.0000000000000001e-09,\n'
            '    "report": "v.json"\n'
            "  },\n"
            '  "verdicts": {\n'
            '    "coefficient_identity": {"pass": false, "measured": 1, '
            '"threshold": 1.0000000000000001e-09},\n'
            '    "grid_unitarity": {"pass": false, "measured": 1, '
            '"threshold": 1.0000000000000001e-09},\n'
            '    "det_monomial": {"pass": false, "measured": 1e+308, '
            '"threshold": 1.0000000000000001e-09}\n'
            "  },\n"
            '  "exit_code": 1\n'
            "}\n"
        )

    def test_error_report(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_matrix("zero.json", LaurentMatrix.zeros(2, 2))
        assert run("factor", "zero.json", "--rank", "x", "--report", "e.json") == 2
        assert (tmp_path / "e.json").read_text() == (
            "{\n"
            '  "command": "factor",\n'
            '  "options": {\n'
            '    "input": "zero.json",\n'
            '    "tol": 1.0000000000000001e-09,\n'
            '    "rank": "x",\n'
            '    "seed": 0,\n'
            '    "out": null,\n'
            '    "report": "e.json"\n'
            "  },\n"
            '  "verdicts": {\n'
            '    "error_free": {"pass": false, "measured": 1, "threshold": 0.5}\n'
            "  },\n"
            '  "error": {"type": "ValueError", '
            '"message": "--rank must be \'auto\' or an integer, got \'x\'"},\n'
            '  "exit_code": 2\n'
            "}\n"
        )

    def test_completion_monomial_verdicts(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_matrix("row.json", LaurentMatrix(1, 1, {1: [[1.0]]}))
        assert run("complete", "row.json", "--report", "c.json") == 0
        text = (tmp_path / "c.json").read_text()
        for line in (
            '    "degree": {"pass": true, "measured": 1, "threshold": 1},\n',
            '    "det_phase_modulus": {"pass": true, "measured": 1, '
            '"threshold": 1.0000000010000001},\n',
            '    "det_phase_angle": {"pass": true, "measured": 0, '
            '"threshold": 6.2831853071795862}\n',
        ):
            assert line in text
