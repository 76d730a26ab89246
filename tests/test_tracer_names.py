"""The benchmark tracer reads package functions by module and name.

``perfbench/tracer.py`` looks up names such as ``conics.nine_point_conic``,
``conics.conic_through`` and ``linalg.nullspace`` when it computes the
per-layer metrics, so moving or renaming one of them breaks every traced
benchmark run with a KeyError.  This test reads that file, installs and
removes the tracer and computes the metrics of an empty run; it writes
nothing under ``perfbench/``.
"""

import types
from pathlib import Path

import ceviangeo.linalg as linalg_mod

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_tracer_finds_every_name_it_reads():
    original = linalg_mod.nullspace
    tracer = load_tracer().Tracer(0)
    tracer.install()
    try:
        assert linalg_mod.nullspace is not original
    finally:
        tracer.uninstall()
    assert linalg_mod.nullspace is original
    metrics = tracer.layer_metrics(1)
    assert metrics["linalg.nullspace.calls"] == 0
    assert metrics["conics.nine_point_conic.calls"] == 0


def test_lazy_exports_follow_the_tracer_patch_and_restore():
    import ceviangeo
    import ceviangeo.verify as verify_mod

    original = verify_mod.run_suite
    tracer = load_tracer().Tracer(0)
    tracer.install()
    try:
        # the package stores no lazy name: each read sees the patched binding
        assert ceviangeo.run_suite is verify_mod.run_suite is not original
    finally:
        tracer.uninstall()
    assert ceviangeo.run_suite is ceviangeo.verify.run_suite is original
    assert "run_suite" not in vars(ceviangeo)
