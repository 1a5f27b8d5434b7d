"""The benchmark's per-layer spans still find every binding they wrap.

Each span in ``benchmarks/tracing.py`` patches a name where its caller looks
it up (``harness.apply_sync``, ``avoidance.splice``, ...).  Installing them
once is enough to catch a refactor that renames or moves such a binding,
without running the benchmark itself (``python -m pytest benchmarks``).
"""

from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_tracer_installs_and_restores_every_span(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing
    from dubinsim import harness

    measure = harness.measure
    with tracing.Tracer():  # raises KeyError if a wrapped binding moved
        assert harness.measure is not measure
    assert harness.measure is measure
