"""The benchmark tracer still finds every name it wraps, and puts each back.

perfbench/spans.py wraps package functions by attribute name; a refactor
that renames or drops one breaks the traced benchmark run.  This catches
it in the test suite.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_wraps_existing_names_and_undo_restores_them():
    spans = _load_spans()
    tracer = spans.Tracer()
    try:
        spans.instrument(tracer)  # AttributeError if a wrapped name is gone
        patched = [(owner, attr, original) for owner, attr, original in tracer.patches._saved]
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, f"{owner}.{attr} not wrapped"
    finally:
        tracer.patches.undo()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner}.{attr} not restored"
    names = {(getattr(owner, "__name__", ""), attr) for owner, attr, _ in patched}
    for module in ("abdlearn.kb", "abdlearn.mil"):
        for attr in ("unify", "unify_atoms", "rename_apart"):
            assert (module, attr) in names
