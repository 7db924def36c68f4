"""Run a fixed set of parafact commands and keep every file and stream they produce.

Usage:
    PYTHONPATH=src python tools/cli_snapshot.py OUTDIR
    PYTHONPATH=src python tools/cli_snapshot.py --compare OLD NEW

Each spectrum runs `random --factor-out`, `info`, `factor --out --report`
and `verify --factor --report`; each lossless row runs `random --lossless
--factor-out`, `complete --out --report` and `verify --paraunitary
--report`.  The tool also writes each lossless row's projector spectrum
I - row^T (row^T)~ (paraunitary.deficiency_matrix), which runs `factor
--rank m-1 --out --report` and `verify --factor --report`; (4,8) and (6,6)
take the rational path there.  Every written file lands in OUTDIR, and
each parafact command's exit code, stdout and stderr in OUTDIR/streams.txt.
Two checkouts that compute the same results give snapshots with an empty
`diff -r`.

--compare reads two snapshots and prints one line per file: byte-identical
files as such, and for a matrix file that differs its largest coefficient
move relative to its largest old coefficient, plus whether compare_factors
(a factor, *-f.json) or compare_completions (a completion, *-u.json)
matches the pair at 1e-9.  It exits 1 when a file is missing on one side,
an exit code or a verdict changed, or a factor or completion pair does not
match, and 0 otherwise.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from parafact.cli import main  # noqa: E402
from parafact.errors import ParafactError  # noqa: E402
from parafact.fileio import read_matrix, read_report, write_matrix  # noqa: E402
from parafact.paraunitary import (  # noqa: E402
    LosslessRow,
    compare_completions,
    deficiency_matrix,
)
from parafact.rankdef import RankDefOptions, compare_factors  # noqa: E402

SPECTRA = ((1, 1, 24), (1, 1, 40), (4, 4, 4), (3, 3, 8), (6, 6, 3),
           (4, 2, 4), (6, 3, 3), (8, 4, 4), (6, 4, 6))
SPECTRUM_SEEDS = (0, 1, 2)
LOSSLESS = ((3, 4), (4, 8), (6, 6))
LOSSLESS_SEEDS = (0, 8)


def commands():
    for m, k, n in SPECTRA:
        for seed in SPECTRUM_SEEDS:
            stem = "s-%d-%d-%d-s%d" % (m, k, n, seed)
            yield ["random", "--m", m, "--k", k, "--order", n, "--seed", seed,
                   "--out", stem + ".json", "--factor-out", stem + "-true.json"]
            yield ["info", stem + ".json"]
            yield ["factor", stem + ".json", "--out", stem + "-f.json",
                   "--report", stem + "-fr.json"]
            yield ["verify", "--factor", stem + ".json", stem + "-f.json",
                   "--report", stem + "-vr.json"]
    for m, n in LOSSLESS:
        for seed in LOSSLESS_SEEDS:
            stem = "l-%d-%d-s%d" % (m, n, seed)
            yield ["random", "--lossless", "--m", m, "--order", n, "--seed", seed,
                   "--out", stem + ".json", "--factor-out", stem + "-true.json"]
            yield ["complete", stem + ".json", "--out", stem + "-u.json",
                   "--report", stem + "-cr.json"]
            yield ["verify", "--paraunitary", stem + "-u.json",
                   "--report", stem + "-vr.json"]
            yield ["deficiency", stem + ".json", stem + "-d.json"]
            yield ["factor", stem + "-d.json", "--rank", m - 1, "--out", stem + "-d-f.json",
                   "--report", stem + "-d-fr.json"]
            yield ["verify", "--factor", stem + "-d.json", stem + "-d-f.json",
                   "--report", stem + "-d-vr.json"]


def write_deficiency(row_file: str, out: str) -> None:
    """Write the projector spectrum of the single-row matrix file row_file to out."""
    M = read_matrix(row_file)[0]
    write_matrix(out, deficiency_matrix(LosslessRow([M.entry(0, j) for j in range(M.cols)])))


def main_snapshot(outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    os.chdir(outdir)
    with open("streams.txt", "w", encoding="utf-8") as log:
        for argv in commands():
            argv = [str(a) for a in argv]
            if argv[0] == "deficiency":
                write_deficiency(*argv[1:])
                continue
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            log.write("$ parafact %s\nexit %d\n--- stdout\n%s--- stderr\n%s\n"
                      % (" ".join(argv), code, out.getvalue(), err.getvalue()))


def _outcomes(path: str, name: str):
    """What must not change in a streams or report file: exit codes and verdicts."""
    if name == "streams.txt":
        with open(path, encoding="utf-8") as fh:
            return [line for line in fh if line.startswith(("$ parafact", "exit "))]
    report = read_report(path)
    return report["exit_code"], {k: v["pass"] for k, v in report["verdicts"].items()}


def _matrix_change(a: str, b: str, name: str):
    """(largest relative coefficient move, match verdict or None) of two matrix files."""
    old, new = read_matrix(a)[0], read_matrix(b)[0]
    if old.shape != new.shape:
        return np.inf, False
    lo, hi = min(old.lo, new.lo), max(old.hi, new.hi)
    A, B = old.coeff_array(lo, hi), new.coeff_array(lo, hi)
    move = float(np.abs(A - B).max()) / max(float(np.abs(A).max()), 1e-300)
    try:
        if name.endswith("-f.json"):
            return move, compare_factors(old, new, RankDefOptions(tol=1e-9)) is not None
        if name.endswith("-u.json"):
            return move, compare_completions(old, new, 1e-9) is not None
    except ParafactError:
        return move, False
    return move, None


def compare_snapshots(old: str, new: str) -> int:
    """Print how each file of snapshot new differs from old; 1 on a changed outcome."""
    changed = 0
    for name in sorted(set(os.listdir(old)) | set(os.listdir(new))):
        a, b = os.path.join(old, name), os.path.join(new, name)
        if not (os.path.exists(a) and os.path.exists(b)):
            line, bad = "only in %s" % (old if os.path.exists(a) else new), True
        elif Path(a).read_bytes() == Path(b).read_bytes():
            line, bad = "identical", False
        elif name == "streams.txt" or name.endswith(("-fr.json", "-vr.json", "-cr.json")):
            bad = _outcomes(a, name) != _outcomes(b, name)
            line = "differs, exit codes and verdicts %s" % ("CHANGED" if bad else "equal")
        else:
            move, match = _matrix_change(a, b, name)
            bad = match is False
            line = "largest relative coefficient move %.2e" % move
            if match is not None:
                line += ", match at 1e-9" if match else ", NO MATCH at 1e-9"
        changed += bad
        print("%s: %s" % (name, line))
    print("%d changed outcome(s)" % changed)
    return 1 if changed else 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(compare_snapshots(sys.argv[2], sys.argv[3]))
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main_snapshot(sys.argv[1])
