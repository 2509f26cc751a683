"""The traced benchmark's wrappers still find every library target.

``perfbench/spans.py`` wraps library functions and batch methods by
name at every place they are bound.  A library edit that removes one of
those names, or moves a batch method to a base class, breaks the traced
run; here that shows in the test suite.  The module is executed from its
source text, so nothing is written next to it.
"""

import types
from pathlib import Path

import polyasum  # noqa: F401  (spans wraps the loaded polyasum modules)
import polyasum.cli  # noqa: F401

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_tracer_installs_every_target_and_uninstalls_cleanly():
    spans = _spans_module()
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = spans.leftover_wrappers()
    finally:
        tracer.uninstall()
    # every target has its defining site and may have more
    assert len(wrapped) >= len(spans.TARGETS)
    assert spans.leftover_wrappers() == []
