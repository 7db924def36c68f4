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

    def test_dimensions_beyond_the_dense_bound_exit_2(self, tmp_path, capsys):
        big = tmp_path / "big.json"
        big.write_text('{"rows": 1000000000000, "cols": 1000000000000, "terms": []}')
        assert run("info", big) == 2
        assert "a 1000000000000 x 1000000000000 matrix has more than" in capsys.readouterr().err
        rep = tmp_path / "rep.json"
        assert run("factor", big, "--report", rep) == 2
        assert assert_round_trip(rep)["error"]["type"] == "ValueError"

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


class TestRandom:
    def test_files_carry_their_metadata_and_are_announced_in_order(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert run("random", "--m", 3, "--k", 2, "--order", 2, "--seed", 4,
                   "--out", "s.json", "--factor-out", "f.json") == 0
        assert run("random", "--m", 2, "--order", 1, "--seed", 0, "--out", "t.json") == 0
        assert run("random", "--lossless", "--m", 3, "--order", 2, "--seed", 5,
                   "--out", "r.json", "--factor-out", "u.json") == 0
        out = capsys.readouterr().out
        assert out == "wrote s.json\nwrote f.json\nwrote t.json\nwrote r.json\nwrote u.json\n"
        names = ("s.json", "f.json", "t.json", "r.json", "u.json")
        assert {name: read_matrix(name)[1] for name in names} == {
            "s.json": {"name": "spectrum-m3-k2-n2-s4", "seed": 4, "generator": "spectrum"},
            "f.json": {"name": "spectrum-m3-k2-n2-s4-factor", "seed": 4,
                       "generator": "spectrum-factor"},
            "t.json": {"name": "spectrum-m2-k2-n1-s0", "seed": 0, "generator": "spectrum"},
            "r.json": {"name": "lossless-row-m3-n2-s5", "seed": 5,
                       "generator": "lossless-row"},
            "u.json": {"name": "lossless-row-m3-n2-s5-completion", "seed": 5,
                       "generator": "lossless-completion"},
        }

    def test_rank_of_a_lossless_row_exits_2(self, tmp_path):
        row = tmp_path / "r.json"
        assert run("random", "--lossless", "--m", 3, "--k", 2, "--order", 2,
                   "--seed", 4, "--out", row) == 2
        assert not row.exists()


def test_bad_arguments_exit_2():
    assert run("factor") == 2
    assert run("verify") == 2


def test_factor_takes_no_seed(tmp_path):
    # Every sampling choice of the factorization is fixed, so the parser
    # refuses a seed before any file is read or written.
    rep = tmp_path / "rep.json"
    assert run("factor", tmp_path / "s.json", "--seed", 0, "--report", rep) == 2
    assert not rep.exists()


def test_info_reads_the_rank_of_negative_powers(tmp_path, capsys):
    # A top power of -9 or below once gave a negative sample count.
    path = tmp_path / "m.json"
    M = LaurentMatrix.from_coeffs(np.array([[[1, 2], [0, 1]]], dtype=complex), -9)
    write_matrix(path, M)
    capsys.readouterr()
    assert run("info", path) == 0
    assert capsys.readouterr().out == "2x2, powers [-9,-9], not para-Hermitian, rank 2\n"


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("command", ["factor", "complete", "verify"])
def test_non_finite_tol_exits_2_before_any_file_is_written(
    command, value, spectrum, lossless, tmp_path
):
    # Refused by the parser, as --seed x is: no output and no report.
    s, f = spectrum
    row, _ = lossless
    out, rep = tmp_path / "out.json", tmp_path / "rep.json"
    argv = {
        "factor": ["factor", s, "--out", out],
        "complete": ["complete", row, "--out", out],
        "verify": ["verify", "--factor", s, f],
    }[command]
    assert run(*argv, "--tol", value, "--report", rep) == 2
    assert not out.exists() and not rep.exists()


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
