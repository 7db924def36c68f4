"""Run a fixed set of parafact commands and keep every file and stream they produce.

Usage:
    PYTHONPATH=src python tools/cli_snapshot.py OUTDIR

Each spectrum runs `random --factor-out`, `factor --out --report` and
`verify --factor --report`; each lossless row runs `random --lossless
--factor-out`, `complete --out --report` and `verify --paraunitary
--report`.  Every written file lands in OUTDIR, and each command's exit
code, stdout and stderr in OUTDIR/streams.txt.  Two checkouts that compute
the same results give snapshots with an empty `diff -r`.
"""

import contextlib
import io
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from parafact.cli import main  # noqa: E402

SPECTRA = ((1, 1, 24), (4, 4, 4), (4, 2, 4), (8, 4, 4))
SPECTRUM_SEEDS = (0, 1, 2)
LOSSLESS = ((3, 4), (6, 6))
LOSSLESS_SEEDS = (0, 8)


def commands():
    for m, k, n in SPECTRA:
        for seed in SPECTRUM_SEEDS:
            stem = "s-%d-%d-%d-s%d" % (m, k, n, seed)
            yield ["random", "--m", m, "--k", k, "--order", n, "--seed", seed,
                   "--out", stem + ".json", "--factor-out", stem + "-true.json"]
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


def main_snapshot(outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    os.chdir(outdir)
    with open("streams.txt", "w", encoding="utf-8") as log:
        for argv in commands():
            argv = [str(a) for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            log.write("$ parafact %s\nexit %d\n--- stdout\n%s--- stderr\n%s\n"
                      % (" ".join(argv), code, out.getvalue(), err.getvalue()))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main_snapshot(sys.argv[1])
