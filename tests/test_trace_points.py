"""The benchmark's tracer finds every name it wraps, and puts each one back.

``perfbench/tracing.py`` wraps functions where their callers look them up
(``floodnowcast.cli.forward``, ``graph.power_iteration_lambda_max``,
``RegionGraph.build``, ...). Renaming one of them would otherwise break
``perfbench/run.py --trace 1`` without failing any test.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _binding(owner, attr):
    return owner.get(attr) if isinstance(owner, dict) else owner.__dict__.get(attr)


def _label(owner, attr) -> str:
    return f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}"


def test_tracer_wraps_every_binding_and_restores_it(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # leave perfbench/ untouched
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    with tracer:
        saved = list(tracer._saved)
        for owner, attr, original in saved:
            assert original is not None, f"{_label(owner, attr)} does not exist"
            assert _binding(owner, attr) is not original, f"{_label(owner, attr)} not wrapped"
    assert len(saved) > len(tracing._SPANS)
    for owner, attr, original in saved:
        assert _binding(owner, attr) is original, f"{_label(owner, attr)} not restored"
