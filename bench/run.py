#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the parafact command line.

Run from the repository root:

    python3 bench/run.py --workload factor-rankdef --seed 0 --seconds 25 --trace 0

A run generates its instances from --seed with ``random --factor-out``,
then drives ``factor`` or ``complete`` followed by ``verify`` through
``parafact.cli.main`` in this process, one instance after another: a closed
loop with a single client.  Every output is checked independently of the
library, outside the timed region (see checks.py).

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
makes one untraced and one traced pass over the same instances and reports
the per-layer metrics of the traced pass (see tracing.py).  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; a detailed record with the environment, sample counts and
every failure with its message is written under --out-dir.
"""

# The thread counts must be fixed before numpy is imported anywhere: this is
# the plain single-threaded baseline, and subprocesses inherit it.
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    command: str  # "factor" or "complete"
    shapes: tuple  # (m, k, N) spectra or (m, N) lossless rows, smallest first
    counts: tuple  # seeds per shape in a run of REFERENCE_SECONDS


# Why each workload exists, and the per-layer metrics each should move, is
# written down in bench/README.md.  A cheap shape gets more seeds than a
# dear one: each shape's trimmed mean weighs the same in the .tmean figures,
# so each should be about as steady.
WORKLOADS = {
    "factor-fullrank": Workload(
        "factor",
        ((1, 1, 24), (1, 1, 40), (4, 4, 4), (3, 3, 8), (6, 6, 3)),
        (28, 28, 28, 28, 28),
    ),
    "factor-rankdef": Workload(
        "factor", ((4, 2, 4), (6, 3, 3), (8, 4, 4), (6, 4, 6)), (16, 10, 5, 4)
    ),
    "complete-lossless": Workload("complete", ((3, 4), (4, 8), (6, 6)), (40, 18, 12)),
}

# The counts above fill about this many seconds with solves, verifies and
# cold launches on a 2-vCPU virtual machine; --seconds scales them.  The
# instance list is fixed by --seed and --seconds alone, never by the clock,
# so attempted and failed repeat exactly for a seed.
REFERENCE_SECONDS = 25
SETUP_REPEATS = 3
COLD_LAUNCHES = 9


def shape_tag(shape):
    return "x".join(map(str, shape))


@dataclass
class Instance:
    shape: tuple
    seed: int
    input: Path
    secret: Path
    out: Path

    @property
    def tag(self):
        return "%s-s%d" % (shape_tag(self.shape), self.seed)


@dataclass
class Outcome:
    """One solve (and verify) of one instance."""

    instance: Instance
    solve_code: int
    solve_s: float
    verify_code: int | None = None
    verify_s: float | None = None
    residual: float | None = None
    message: str = ""
    wrong: bool = False  # exit 0, but the output breaks the contract

    @property
    def verified(self):
        return self.solve_code == 0 and self.verify_code == 0 and not self.message


def fail(message):
    print("bench: %s" % message, file=sys.stderr)
    sys.exit(2)


def subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


class Cli:
    """In-process CLI calls with stdout sent to a sink and stderr captured."""

    def __init__(self, main, sink):
        self.main = main
        self.sink = sink

    def __call__(self, argv):
        """(exit code, wall seconds, last stderr line)."""
        err = io.StringIO()
        with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.main([str(a) for a in argv])
            except Exception as exc:  # a crash fails this call, not the run
                code = 1
                print("crash: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
            elapsed = time.perf_counter() - start
        lines = err.getvalue().strip().splitlines()
        return code, elapsed, lines[-1] if lines else ""


def make_instances(workload, run_seed, seconds, work):
    """Shape i gets the seeds run_seed*n_i .. run_seed*n_i + n_i - 1.

    The list goes seed row by seed row, so that every shape is spread over
    the whole run and a slow spell of the machine weighs on all of them.
    """
    counts = [max(1, round(c * seconds / REFERENCE_SECONDS)) for c in workload.counts]
    instances = []
    for row in range(max(counts)):
        for shape, n in zip(workload.shapes, counts):
            if row >= n:
                continue
            seed = run_seed * n + row
            stem = work / ("%s-s%d" % (shape_tag(shape), seed))
            instances.append(
                Instance(
                    shape,
                    seed,
                    Path(str(stem) + ".in.json"),
                    Path(str(stem) + ".secret.json"),
                    Path(str(stem) + ".out.json"),
                )
            )
    return instances


def random_argv(workload, inst, directory):
    """The ``random`` command writing this instance's files into directory."""
    argv = ["random"]
    if workload.command == "factor":
        m, k, N = inst.shape
        argv += ["--m", m, "--k", k, "--order", N]
    else:
        m, N = inst.shape
        argv += ["--lossless", "--m", m, "--order", N]
    return argv + [
        "--seed",
        inst.seed,
        "--out",
        directory / inst.input.name,
        "--factor-out",
        directory / inst.secret.name,
    ]


def generate(cli, workload, instances, directory):
    """Write every instance file into directory; returns wall seconds."""
    directory.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    for inst in instances:
        code, _, err = cli(random_argv(workload, inst, directory))
        if code != 0:
            fail("generating %s failed with exit %d: %s" % (inst.tag, code, err))
    return time.perf_counter() - start


def timed_launch(args):
    """(wall seconds, exit code) of one fresh interpreter run with args.

    ``subprocess.run(timeout=...)`` polls the child in steps of up to 50 ms,
    which would round every launch up to that grain; a blocking wait is
    exact, and a timer kills a child that hangs.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *map(str, args)],
        cwd=ROOT,
        env=subprocess_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    watchdog = threading.Timer(120, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    return time.perf_counter() - start, code


def import_seconds():
    """Wall time of a fresh interpreter importing the CLI module."""
    elapsed, code = timed_launch(["-c", "import parafact.cli"])
    if code != 0:
        fail("a fresh interpreter could not import parafact.cli (exit %d)" % code)
    return elapsed


def solve_one(cli, workload, inst, check):
    """Solve and verify one instance (timed), then check it (untimed)."""
    with contextlib.suppress(FileNotFoundError):
        inst.out.unlink()
    code, solve_s, err = cli([workload.command, inst.input, "--out", inst.out])
    outcome = Outcome(inst, code, solve_s, message=err)
    if not inst.out.exists():
        if code == 0:
            outcome.message = "exit 0 but no output file"
            outcome.wrong = True
        return outcome
    if workload.command == "factor":
        argv = ["verify", "--factor", inst.input, inst.out]
    else:
        argv = ["verify", "--paraunitary", inst.out]
    outcome.verify_code, outcome.verify_s, verify_err = cli(argv)
    try:
        outcome.residual, defect, mismatch = check(inst.input, inst.out, inst.secret)
    except (ValueError, KeyError, TypeError) as exc:
        defect, mismatch = "unreadable output: %s: %s" % (type(exc).__name__, exc), None
    outcome.wrong = code == 0 and defect is not None
    verify_note = "" if outcome.verify_code == 0 else "verify exit %d" % outcome.verify_code
    outcome.message = "; ".join(
        m for m in (err, verify_err, verify_note, defect, mismatch) if m
    )
    return outcome


def run_pass(cli, workload, instances, check, tracer=None):
    outcomes = []
    for inst in instances:
        if tracer is not None:
            tracer.instance = inst.tag
        outcomes.append(solve_one(cli, workload, inst, check))
    return outcomes


def tail_percentile(samples):
    """(label, value) of the highest of p90/p99 with ten samples beyond it."""
    best = None
    for q in (90, 99):
        if len(samples) * (100 - q) / 100 >= 10:
            cuts = statistics.quantiles(samples, n=100)
            best = ("p%d" % q, cuts[q - 1])
    return best


def environment():
    import numpy
    import scipy

    head = ROOT / ".git" / "HEAD"
    rev = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            rev = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            rev = ref
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_rev": rev,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def failure_records(outcomes):
    """One record per failing (shape, seed), in run order."""
    seen = {}
    for o in outcomes:
        if not o.verified and o.instance.tag not in seen:
            seen[o.instance.tag] = {
                "shape": list(o.instance.shape),
                "seed": o.instance.seed,
                "exit_code": o.solve_code,
                "verify_exit_code": o.verify_code,
                "message": o.message,
            }
    return list(seen.values())


def trimmed_mean(values):
    """Mean without the lowest and highest tenth (at least one of each).

    The machine this was tuned on runs in fast and slow spells of several
    seconds.  A median jumps from one spell's times to the other's as their
    mix in a run crosses one half; a mean moves in proportion to the mix,
    and the trim keeps one stray call from moving it far.
    """
    values = sorted(values)
    cut = max(1, len(values) // 10) if len(values) >= 3 else 0
    return statistics.mean(values[cut : len(values) - cut])


def per_shape(outcomes, seconds_of):
    """Geometric mean over shapes of each shape's trimmed mean time.

    Every shape weighs the same, so the figure cannot jump from one shape's
    cluster of times to the next the way a statistic of the mixed calls does.
    Each shape's median goes into the record.
    """
    by_shape = {}
    for o in outcomes:
        value = seconds_of(o)
        if value is not None:
            by_shape.setdefault(shape_tag(o.instance.shape), []).append(value)
    if not by_shape:
        return 0.0, {}
    means = {shape: trimmed_mean(v) for shape, v in by_shape.items()}
    logs = [math.log(v) for v in means.values()]
    detail = {
        shape: {"trimmed_mean": means[shape], "median": statistics.median(v), "n": len(v)}
        for shape, v in by_shape.items()
    }
    return math.exp(sum(logs) / len(logs)), detail


def cold_launch(argv):
    """(wall seconds, exit code) of one fresh ``python -m parafact.cli``."""
    return timed_launch(["-m", "parafact.cli", *argv])


def end_to_end(cli, workload, instances, check, seconds, setup_s, cold_argv, launches):
    # One untimed, uncounted solve first, so that no timed call pays for the
    # first use of a code path.
    solve_one(cli, workload, instances[0], check)
    start = time.perf_counter()
    outcomes, cold = [], []
    # The cold launches are spread over the first pass, so that they sample
    # the machine's speed over the run rather than at one moment of it.
    n = len(instances)
    for j in range(launches):
        cold.append(cold_launch(cold_argv))
        chunk = instances[n * j // launches : n * (j + 1) // launches]
        outcomes += run_pass(cli, workload, chunk, check)
    # Once the program is fast enough that the list takes less than
    # --seconds, further passes over the same instances add timing samples;
    # they add no instances to attempted.
    passes = 1
    pass_s = time.perf_counter() - start
    while time.perf_counter() - start + pass_s <= seconds:
        pass_start = time.perf_counter()
        outcomes += run_pass(cli, workload, instances, check)
        passes += 1
        pass_s = time.perf_counter() - pass_start
    # Refused calls stop early; they count in verified_frac, not in the times.
    solve_mean, solve_shapes = per_shape(
        outcomes, lambda o: o.solve_s if o.solve_code == 0 else None
    )
    verify_mean, verify_shapes = per_shape(outcomes, lambda o: o.verify_s)
    solve = [o.solve_s for o in outcomes]
    verify = [o.verify_s for o in outcomes if o.verify_s is not None]
    timed = sum(solve) + sum(verify)
    verified = sum(o.verified for o in outcomes)
    # The 90th percentile: the worst residual alone swings with whether one
    # ill-conditioned seed is in the run; it stays in the record.
    residuals = [o.residual for o in outcomes if o.residual is not None] or [1.0]
    worst = max(residuals)
    if len(residuals) > 1:
        p90 = statistics.quantiles(residuals, n=10, method="inclusive")[-1]
    else:
        p90 = worst
    metrics = {
        "setup_s": (setup_s, "s"),
        "solve_s.tmean": (solve_mean, "s"),
        "verify_s.tmean": (verify_mean, "s"),
        "throughput_per_s": (verified / timed, "1/s"),
        "verified_frac": (verified / len(outcomes), "ratio"),
        "residual_digits": (-math.log10(max(p90, 1e-300)), "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "cli_cold_s": (trimmed_mean(t for t, _ in cold), "s"),
    }
    detail = {
        "passes": passes,
        "samples": {"solve": len(solve), "verify": len(verify), "cli_cold": len(cold)},
        "cli_cold": cold,
        "shapes": {"solve_s": solve_shapes, "verify_s": verify_shapes},
        "tails": {"solve_s": tail_percentile(solve), "verify_s": tail_percentile(verify)},
        "timed_wall_s": timed,
        "worst_residual": worst,
        "calls": [
            [o.instance.tag, o.solve_code, o.solve_s, o.verify_code, o.verify_s, o.residual]
            for o in outcomes
        ],
    }
    return outcomes, metrics, detail


def traced(cli, workload, instances, check, work, out_dir, stem):
    from tracing import Tracer

    # The same untimed warm-up as an untraced run, so that the untraced pass
    # does not pay for first use and inflate trace.overhead's base.
    solve_one(cli, workload, instances[0], check)
    plain_start = time.perf_counter()
    plain = run_pass(cli, workload, instances, check)
    plain_wall = time.perf_counter() - plain_start

    tracer = Tracer()
    tracer.install()
    try:
        tracer.instance = "setup"
        generate(cli, workload, instances, work / "traced-setup")
        traced_start = time.perf_counter()
        outcomes = run_pass(cli, workload, instances, check, tracer)
        traced_wall = time.perf_counter() - traced_start
    finally:
        tracer.uninstall()
    same_inputs = all(
        (work / "traced-setup" / p.name).read_bytes() == p.read_bytes()
        for inst in instances
        for p in (inst.input, inst.secret)
    )
    mismatches = [
        a.instance.tag
        for a, b in zip(plain, outcomes)
        if (a.solve_code, a.verify_code, a.residual) != (b.solve_code, b.verify_code, b.residual)
    ]
    metrics = tracer.metrics()
    metrics["trace.overhead"] = (traced_wall / plain_wall, "ratio")
    spans_path = out_dir / (stem + ".spans.json.gz")
    tracer.write_spans(spans_path)
    detail = {
        "trace_changed_outcomes": mismatches,
        "traced_setup_matches": same_inputs,
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "errors": dict(tracer.errors),
        "span_count": len(tracer.spans),
        "solve_phase_profile": tracer.profile(),
        "spans_file": str(spans_path),
    }
    ok = not mismatches and same_inputs
    return outcomes, metrics, detail, ok


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--smoke",
        action="store_true",
        help="smallest shape, one seed, one set-up and one cold launch",
    )
    p.add_argument(
        "--out-dir",
        type=Path,
        default=ROOT / ".bench_out",
        help="where the detailed record, spans and scratch files go",
    )
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "parafact" / "cli.py").is_file():
        fail("no parafact sources under %s; run from a full checkout" % SRC)
    workload = WORKLOADS[args.workload]
    repeats, launches = SETUP_REPEATS, COLD_LAUNCHES
    if args.smoke:
        workload = Workload(workload.command, workload.shapes[:1], (1,))
        repeats = launches = 1

    sys.path.insert(0, str(SRC))
    import checks
    from parafact.cli import main as cli_main

    check = checks.check_factor if workload.command == "factor" else checks.check_completion
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    out_dir = args.out_dir.resolve()
    work = out_dir / ("work-" + stem + "-%d" % os.getpid())
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = work / "inputs"
    instances = make_instances(workload, args.seed, args.seconds, inputs)

    with open(os.devnull, "w") as sink:
        cli = Cli(cli_main, sink)
        try:
            if args.trace:
                generate(cli, workload, instances, inputs)
                outcomes, metrics, detail, ok = traced(
                    cli, workload, instances, check, work, out_dir, stem
                )
            else:
                # Set-up is timed in parts: a fresh interpreter importing the
                # CLI, and every repeats-th instance file generated.  setup_s
                # is the median import plus repeats times the median part.
                imports = [import_seconds() for _ in range(repeats)]
                gens = [
                    generate(cli, workload, instances[r::repeats], inputs)
                    for r in range(repeats)
                ]
                setup_s = statistics.median(imports) + repeats * statistics.median(gens)
                smallest = instances[0]
                cold_argv = [workload.command, smallest.input, "--out", work / "cold.json"]
                outcomes, metrics, detail = end_to_end(
                    cli, workload, instances, check, args.seconds, setup_s, cold_argv, launches
                )
                detail["setup"] = {"import_s": imports, "generate_part_s": gens}
                ok = True
        finally:
            shutil.rmtree(work, ignore_errors=True)

    failures = failure_records(outcomes)
    result = {
        "correct": ok and not any(o.wrong for o in outcomes),
        # Counted per instance: a repeat pass re-solves the same instances,
        # and an instance fails if any of its solves does.
        "attempted": len(instances),
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "shapes": {
            shape_tag(shape): [i.seed for i in instances if i.shape == shape]
            for shape in workload.shapes
        },
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(),
        "failures": failures,
        "detail": detail,
        "result": result,
    }
    record_path = out_dir / (stem + ".json")
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    for f in failures:
        print(
            "FAIL %s seed %d exit %s: %s"
            % (shape_tag(f["shape"]), f["seed"], f["exit_code"], f["message"])
        )
    for name, (value, unit) in metrics.items():
        print("%-52s %.6g %s" % (name, value, unit))
    print("record: %s" % record_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
