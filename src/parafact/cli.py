"""Command-line front end: factor, complete, verify, random, info.

Each subcommand reads and writes the package's canonical matrix file
format (see fileio) and optionally a report file mapping named checks to
measured values.  Exit codes are uniform across subcommands:

    0   the command ran and every check passed
    1   the command ran but at least one verification check failed
    2   invalid input: unreadable or malformed files, bad parameters
    3   the computation could not reach the requested tolerance

Reports carry a command echo, an options echo, the named verdicts, and the
exit code; the exit code is zero exactly when every verdict passes.  The
completion report records the determinant monomial through the degree,
det_phase_modulus, and det_phase_angle verdicts.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .errors import (
    DegenerateInputError,
    IndeterminateError,
    InvalidComparisonError,
    NotFactorableError,
    NotParaunitaryError,
    NumericalFailureError,
)
from .fileio import read_matrix, write_matrix, write_report
from .instances import gen_lossless, gen_spectrum
from .paraunitary import LosslessRow, complete_to_paraunitary, verify_paraunitary
from .rankdef import (
    Check,
    RankDefOptions,
    estimate_rank,
    spectral_factor,
    verify_factorization,
)

__all__ = ["main"]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_NUMERICAL = 3


def _finish(args, checks: dict, code=None, error=None) -> int:
    """Write the report when requested, each Check serialized once, and return
    the exit code: pass or fail by the checks unless a code is given."""
    if code is None:
        code = EXIT_PASS if all(c.passed for c in checks.values()) else EXIT_FAIL
    if getattr(args, "report", None):
        report = {
            "command": getattr(args, "command", ""),
            "options": args.echo(args) if hasattr(args, "echo") else {},
            "verdicts": {name: c.to_dict() for name, c in checks.items()},
            "exit_code": code,
        }
        if error is not None:
            report["error"] = error
        write_report(args.report, report)
    return code


def _error_report(args, code: int, exc: Exception) -> None:
    """Best-effort failure report: one failing verdict, the error, consistent code."""
    try:
        error = {"type": type(exc).__name__, "message": str(exc)}
        _finish(args, {"error_free": Check(False, 1.0, 0.5)}, code, error)
    except Exception:
        pass


def _echo_factor(args) -> dict:
    return {
        "input": args.input,
        "tol": args.tol,
        "rank": args.rank,
        "seed": args.seed,
        "out": args.out,
        "report": args.report,
    }


def cmd_factor(args) -> int:
    S, _meta = read_matrix(args.input)
    if args.rank == "auto":
        rank = None
    else:
        try:
            rank = int(args.rank)
        except ValueError:
            raise ValueError("--rank must be 'auto' or an integer, got %r" % args.rank)
    opts = RankDefOptions(tol=args.tol, rng_seed=args.seed)
    factor, report = spectral_factor(S, opts, rank=rank)
    if args.out:
        write_matrix(args.out, factor, metadata=None)
        print("wrote %s" % args.out)
    print(
        "factor %dx%d, order %s, residual %.3e"
        % (factor.rows, factor.cols, report.order, report.residual)
    )
    return _finish(args, report.verdicts)


def _echo_complete(args) -> dict:
    return {
        "input": args.input,
        "tol": args.tol,
        "out": args.out,
        "report": args.report,
    }


def cmd_complete(args) -> int:
    M, _meta = read_matrix(args.input)
    if M.rows != 1:
        raise ValueError("completion needs a single-row file, got %d rows" % M.rows)
    row = LosslessRow([M.entry(0, j) for j in range(M.cols)])
    opts = RankDefOptions(tol=args.tol)
    U, report = complete_to_paraunitary(row, opts)
    if args.out:
        write_matrix(args.out, U, metadata=None)
        print("wrote %s" % args.out)
    phase = report.det_phase
    print(
        "completion %dx%d, det degree %d, det phase angle %.6f"
        % (U.rows, U.cols, report.degree, float(np.angle(phase)))
    )
    checks = dict(report.verdicts)
    checks["degree"] = Check(
        report.degree == row.length, float(report.degree), float(row.length)
    )
    checks["det_phase_modulus"] = Check(
        abs(abs(phase) - 1.0) <= args.tol, abs(phase), 1.0 + args.tol
    )
    checks["det_phase_angle"] = Check(True, float(np.angle(phase)), 2.0 * math.pi)
    return _finish(args, checks)


def _echo_verify(args) -> dict:
    return {
        "spectrum": args.factor[0] if args.factor else None,
        "factor": args.factor[1] if args.factor else None,
        "paraunitary": args.paraunitary,
        "tol": args.tol,
        "report": args.report,
    }


def cmd_verify(args) -> int:
    if args.factor:
        S, _ = read_matrix(args.factor[0])
        F, _ = read_matrix(args.factor[1])
        report = verify_factorization(S, F, RankDefOptions(tol=args.tol))
    else:
        U, _ = read_matrix(args.paraunitary)
        report = verify_paraunitary(U, tol=args.tol)
    failing = sorted(name for name, c in report.verdicts.items() if not c.passed)
    if failing:
        print("FAIL: %s" % ", ".join(failing))
    else:
        print("all checks passed")
    return _finish(args, report.verdicts)


def _echo_random(args) -> dict:
    return {
        "m": args.m,
        "k": args.k,
        "order": args.order,
        "seed": args.seed,
        "out": args.out,
        "factor_out": args.factor_out,
        "lossless": args.lossless,
    }


def cmd_random(args) -> int:
    if args.lossless:
        if args.k is not None:
            raise ValueError("--k does not apply to lossless rows")
        inst = gen_lossless(args.m, args.order, args.seed)
        name = "lossless-row-m%d-n%d-s%d" % (args.m, args.order, args.seed)
        write_matrix(
            args.out,
            inst.row.as_matrix(),
            metadata={"name": name, "seed": args.seed, "generator": "lossless-row"},
        )
        print("wrote %s" % args.out)
        if args.factor_out:
            write_matrix(
                args.factor_out,
                inst.secret_paraunitary,
                metadata={
                    "name": name + "-completion",
                    "seed": args.seed,
                    "generator": "lossless-completion",
                },
            )
            print("wrote %s" % args.factor_out)
        return EXIT_PASS
    k = args.m if args.k is None else args.k
    # With --factor-out the instance is generated zero-free inside the disk,
    # so the emitted factor is the one the verifier accepts.
    inst = gen_spectrum(
        args.m, k, args.order, args.seed, interior_zero_free=bool(args.factor_out)
    )
    name = "spectrum-m%d-k%d-n%d-s%d" % (args.m, k, args.order, args.seed)
    write_matrix(
        args.out,
        inst.spectrum,
        metadata={"name": name, "seed": args.seed, "generator": "spectrum"},
    )
    print("wrote %s" % args.out)
    if args.factor_out:
        write_matrix(
            args.factor_out,
            inst.secret_factor,
            metadata={
                "name": name + "-factor",
                "seed": args.seed,
                "generator": "spectrum-factor",
            },
        )
        print("wrote %s" % args.factor_out)
    return EXIT_PASS


def _echo_info(args) -> dict:
    return {"input": args.input}


def cmd_info(args) -> int:
    M, _meta = read_matrix(args.input)
    if M.is_zero:
        window = "[]"
    else:
        window = "[%d,%d]" % (M.lo, M.hi)
    line = "%dx%d, powers %s" % (M.rows, M.cols, window)
    if M.rows == M.cols:
        ph = M.is_parahermitian(1e-9)
        line += ", para-Hermitian" if ph else ", not para-Hermitian"
        line += ", rank %d" % estimate_rank(M)
    print(line)
    return EXIT_PASS


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="parafact",
        description="Spectral factorization and paraunitary completion of "
        "Laurent polynomial matrix files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="factor a para-Hermitian spectrum file")
    p.add_argument("input", help="spectrum matrix file")
    p.add_argument("--tol", type=float, default=1e-9, help="relative residual target")
    p.add_argument(
        "--rank", default="auto", help="'auto' or the almost-everywhere rank"
    )
    p.add_argument("--seed", type=int, default=0, help="seed for sampling choices")
    p.add_argument("--out", help="path for the factor matrix file")
    p.add_argument("--report", help="path for the verdict report file")
    p.set_defaults(echo=_echo_factor)

    p = sub.add_parser(
        "complete", help="extend a unit-norm analytic row to a paraunitary matrix"
    )
    p.add_argument("input", help="single-row matrix file")
    p.add_argument("--tol", type=float, default=1e-9, help="relative residual target")
    p.add_argument("--out", help="path for the completed matrix file")
    p.add_argument("--report", help="path for the verdict report file")
    p.set_defaults(echo=_echo_complete)

    p = sub.add_parser(
        "verify", help="check a spectrum/factor pair or a paraunitary matrix"
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--factor",
        nargs=2,
        metavar=("SPECTRUM", "FACTOR"),
        help="spectrum file and candidate factor file",
    )
    group.add_argument("--paraunitary", metavar="MATRIX", help="candidate matrix file")
    p.add_argument("--tol", type=float, default=1e-9, help="verification tolerance")
    p.add_argument("--report", help="path for the verdict report file")
    p.set_defaults(echo=_echo_verify)

    p = sub.add_parser("random", help="generate a seeded spectrum or lossless row")
    p.add_argument("--m", type=int, required=True, help="matrix size")
    p.add_argument("--k", type=int, default=None, help="rank (spectra only)")
    p.add_argument("--order", type=int, required=True, help="polynomial order")
    p.add_argument("--seed", type=int, required=True, help="generator seed")
    p.add_argument("--out", required=True, help="path for the generated file")
    p.add_argument(
        "--factor-out",
        dest="factor_out",
        help="also write the generating factor or completion",
    )
    p.add_argument(
        "--lossless",
        action="store_true",
        help="generate a unit-norm row instead of a spectrum",
    )
    p.set_defaults(echo=_echo_random)

    p = sub.add_parser("info", help="print a structural summary of a matrix file")
    p.add_argument("input", help="matrix file")
    p.set_defaults(echo=_echo_info)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        # Looked up at call time, so that a wrapped or patched cmd_* runs.
        return globals()["cmd_" + args.command](args)
    except (NumericalFailureError, IndeterminateError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        _error_report(args, EXIT_NUMERICAL, exc)
        return EXIT_NUMERICAL
    except (
        ValueError,
        OSError,
        ZeroDivisionError,
        NotFactorableError,
        DegenerateInputError,
        InvalidComparisonError,
        NotParaunitaryError,
    ) as exc:
        print("error: %s" % exc, file=sys.stderr)
        _error_report(args, EXIT_INVALID, exc)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
