"""The benchmark tracer (perfbench/tracing.py) patches names of this package.

A renamed or deleted traced name would otherwise only show when the
benchmark runs with --trace 1.
"""

import importlib.util
from pathlib import Path

from jacobispec import classify, recurrence, truncnorm, weyl

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


_TRACED_WITH_ATTRS = {
    "weyl.m_riccati_grid.rung0", "weyl.m_resolvent", "truncnorm.solve_l_of_y",
    "recurrence.dirichlet_neumann", "classify.cesaro_profiles_grid",
}


def test_traced_spans_read_their_attrs(free1):
    # the attrs are read off return values; a changed return shape shows here
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    try:
        tracing.install_jacobispec(tracer)
        weyl.m_riccati_grid(free1, [0.0, 0.5], 0.1)
        weyl.m_resolvent(free1, 0.5 + 0.1j)
        truncnorm.solve_l_of_y(free1, 0.5, 0.1)
        recurrence.dirichlet_neumann(free1, 0.5, 64)
        classify.cesaro_profiles_grid(free1, [0.0, 0.5], (64, 128))
    finally:
        tracer.restore()
    exported = tracer.export(0.0)
    spans = {s["name"]: s["attrs"] for s in exported}
    assert all(s["attrs"] for s in exported if s["name"] in _TRACED_WITH_ATTRS)
    assert _TRACED_WITH_ATTRS <= spans.keys()
    assert spans["weyl.m_riccati_grid.rung0"].keys() == {"depth", "last_delta"}
    assert spans["weyl.m_resolvent"].keys() == {"blocks", "bumped"}
    assert spans["truncnorm.solve_l_of_y"] == {"track_blocks": truncnorm.INITIAL_TRACK_BLOCKS}
    assert spans["recurrence.dirichlet_neumann"] == {"blocks": 64}
    assert spans["classify.cesaro_profiles_grid"] == {"energy_steps": 2 * 128}
