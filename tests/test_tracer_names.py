"""The benchmark's tracer still finds every function it wraps.

bench/tracing.py wraps parafact functions by module and name, and
Tracer.install fails on a name that is gone.  The benchmark's own smoke
test finds that only after a full run; this one installs and uninstalls the
tracer.  It is also why rankdef keeps re-exporting fix_rank_drop, which it
no longer calls: the tracer reads it as rankdef.fix_rank_drop.
"""

import importlib.util
from pathlib import Path

import parafact.cli
from parafact import rankdef, roots

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(tmp_path):
    # The first call builds the cached parser before the tracer wraps cmd_*.
    argv = ["random", "--m", "2", "--order", "1", "--seed", "0", "--out", str(tmp_path / "s.json")]
    assert parafact.cli.main(argv) == 0
    tracer = load_tracing().Tracer()
    original = roots.fix_rank_drop
    try:
        tracer.install()
        assert rankdef.fix_rank_drop is not original
        assert roots.fix_rank_drop is rankdef.fix_rank_drop
        assert parafact.cli.main(argv) == 0
        assert tracer.calls["cli.cmd_random"] == 1
    finally:
        tracer.uninstall()
    assert rankdef.fix_rank_drop is original and roots.fix_rank_drop is original
