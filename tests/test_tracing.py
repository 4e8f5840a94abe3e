"""The benchmark tracer (perfbench/tracing.py) patches names of this package.

A renamed or deleted traced name would otherwise only show when the
benchmark runs with --trace 1.
"""

import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_name():
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    try:
        tracing.install_jacobispec(tracer)
        patched = list(tracer._patches)
        assert patched
        assert all(owner.__dict__[attr] is not original for owner, attr, original in patched)
    finally:
        tracer.restore()
    assert all(owner.__dict__[attr] is original for owner, attr, original in patched)
