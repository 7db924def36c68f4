"""tools/cli_snapshot.py --compare on two small snapshot directories."""

import importlib.util
import shutil
from pathlib import Path

import numpy as np

from parafact.cli import main
from parafact.fileio import read_matrix, read_report, write_matrix, write_report
from parafact.rankdef import estimate_rank

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_snapshot.py"
_spec = importlib.util.spec_from_file_location("cli_snapshot", _TOOL)
cli_snapshot = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_snapshot)


def snapshot(root):
    """A spectrum, its factor and the factor report, with their streams."""
    root.mkdir()
    s, f, r = (str(root / n) for n in ("s.json", "s-f.json", "s-fr.json"))
    assert main(["random", "--m", "2", "--k", "2", "--order", "2", "--seed", "0", "--out", s]) == 0
    assert main(["factor", s, "--out", f, "--report", r]) == 0
    (root / "streams.txt").write_text("$ parafact factor s.json\nexit 0\n--- stdout\n")
    return root


def shift_factor(root, size):
    """Move the factor's coefficients by size relative and its report's residual."""
    M, meta = read_matrix(root / "s-f.json")
    write_matrix(root / "s-f.json", M * (1.0 + size), meta)
    report = read_report(root / "s-fr.json")
    report["verdicts"]["residual"]["measured"] *= 2.0
    write_report(root / "s-fr.json", report)


def compare(old, new, capsys):
    capsys.readouterr()
    code = cli_snapshot.compare_snapshots(str(old), str(new))
    lines = capsys.readouterr().out.splitlines()
    return code, dict(line.split(": ", 1) for line in lines[:-1]), lines[-1]


def test_polish_drift_passes_and_names_each_file(tmp_path, capsys):
    old = snapshot(tmp_path / "old")
    new = tmp_path / "new"
    shutil.copytree(old, new)
    shift_factor(new, 1e-13)
    code, lines, summary = compare(old, new, capsys)
    assert code == 0 and summary == "0 changed outcome(s)"
    assert lines["s.json"] == lines["streams.txt"] == "identical"
    assert lines["s-fr.json"] == "differs, exit codes and verdicts equal"
    move = float(lines["s-f.json"].split("move ")[1].split(",")[0])
    assert np.isclose(move, 1e-13, rtol=0.01)
    assert lines["s-f.json"].endswith(", match at 1e-9")


def test_changed_outcomes_fail(tmp_path, capsys):
    old = snapshot(tmp_path / "old")
    new = tmp_path / "new"
    shutil.copytree(old, new)
    shift_factor(new, 1e-3)
    (new / "streams.txt").write_text("$ parafact factor s.json\nexit 3\n--- stdout\n")
    (new / "s.json").unlink()
    code, lines, summary = compare(old, new, capsys)
    assert code == 1 and summary == "3 changed outcome(s)"
    assert lines["s.json"] == "only in %s" % old
    assert lines["streams.txt"] == "differs, exit codes and verdicts CHANGED"
    assert lines["s-f.json"].endswith(", NO MATCH at 1e-9")


def test_projector_spectrum_of_each_lossless_row_is_factored(tmp_path):
    row, spectrum = str(tmp_path / "l.json"), str(tmp_path / "l-d.json")
    assert main(["random", "--lossless", "--m", "3", "--order", "2", "--seed", "0",
                 "--out", row]) == 0
    cli_snapshot.write_deficiency(row, spectrum)
    S = read_matrix(spectrum)[0]
    assert (S @ S - S).max_abs < 1e-12 and estimate_rank(S) == 2
    factored = [(argv[1], argv[3]) for argv in cli_snapshot.commands()
                if argv[0] == "factor" and argv[1].endswith("-d.json")]
    assert factored == [("l-%d-%d-s%d-d.json" % (m, n, seed), m - 1)
                        for m, n in cli_snapshot.LOSSLESS for seed in cli_snapshot.LOSSLESS_SEEDS]
