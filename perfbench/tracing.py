"""Tracing installed from outside the program.

The tracer replaces public functions on their modules and classes with
timing wrappers and puts the originals back on exit. Calls at layer
boundaries become spans (name, start, end, parent, attributes) kept in
memory; the per-step calls (coefficient lookups, batched block kernels)
only bump aggregate counters, because a span per step would cost more than
the step. A span's self time is its duration minus the time its child spans
and counted calls cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, attrs, covered]
        self.counters = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self._stack = []
        self._rungs = defaultdict(int)  # (parent index, name) -> calls so far
        self._patches = []
        self._counting = False

    # -- installation -------------------------------------------------------

    def span(self, owner, attr, name, attrs=None, indexed=False):
        """Wrap ``owner.attr`` so each call records a span.

        ``attrs(result)`` returns numbers read off the return value.
        With ``indexed``, the n-th call under the same parent is named
        ``<name>.rung<n>``.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            label = name
            if indexed:
                label = f"{name}.rung{self._rungs[parent, name]}"
                self._rungs[parent, name] += 1
            rec = [label, time.perf_counter(), None, parent, {}, 0.0]
            self.spans.append(rec)
            self._stack.append(len(self.spans) - 1)
            try:
                result = original(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
                if parent >= 0:
                    self.spans[parent][5] += rec[2] - rec[1]
            if attrs is not None:
                rec[4] = attrs(result)
            return result

        self._patch(owner, attr, wrapper)

    def counter(self, owner, attr, name):
        """Wrap ``owner.attr`` so calls only add to a counter.

        Calls made while another counted call runs (a wrapper delegating to
        its base, a kernel recursing) are not counted again.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self._counting:
                return original(*args, **kwargs)
            self._counting = True
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                self._counting = False
                slot = self.counters[name]
                slot[0] += 1
                slot[1] += took
                if self._stack:
                    self.spans[self._stack[-1]][5] += took

        self._patch(owner, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        # keep the exact object found (a plain function on a class stays one)
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ------------------------------------------------------------

    def reset(self):
        self.spans.clear()
        self.counters.clear()
        self._rungs.clear()

    def self_times(self):
        """Self seconds per layer (the module part of each name)."""
        out = defaultdict(float)
        for name, start, end, _, _, covered in self.spans:
            out[name.split(".")[0]] += end - start - covered
        for name, (_, seconds) in self.counters.items():
            out[name.split(".")[0]] += seconds
        return out

    def export(self, t0):
        return [
            {"name": name, "start": start - t0, "end": end - t0, "parent": parent, "attrs": attrs}
            for name, start, end, parent, attrs, _ in self.spans
        ]


def install_jacobispec(tracer):
    """Wrap the public functions of every layer of jacobispec."""
    from jacobispec import classify, cli, config, matblock, models, recurrence, truncnorm, weyl

    span = tracer.span
    span(cli, "run_config", "cli.run_config")
    span(config, "load_config", "config.load_config")
    span(models, "spec_from_config", "models.spec_from_config")
    span(models, "validate_model", "models.validate_model")
    span(classify, "scan_energy_grid", "classify.scan_energy_grid")
    span(classify, "constancy_experiment", "classify.constancy_experiment")
    span(classify, "cesaro_profiles_grid", "classify.cesaro_profiles_grid",
         lambda r: {"energy_steps": len(r) * int(r[0].l_grid[-1]) if r else 0})
    span(classify, "floquet_multiplicity", "classify.floquet_multiplicity")
    span(classify, "floquet_band_edges", "classify.floquet_band_edges")
    span(weyl, "im_m_boundary_grid", "weyl.im_m_boundary_grid")
    span(weyl, "m_riccati_grid", "weyl.m_riccati_grid",
         lambda r: {"depth": r[1], "last_delta": r[2]}, indexed=True)
    span(weyl, "m_resolvent", "weyl.m_resolvent",
         lambda r: {"blocks": r.depth, "bumped": int(bool(getattr(r, "bumped", False)))})
    span(weyl, "jl_bounds", "weyl.jl_bounds")
    span(truncnorm, "solve_l_of_y", "truncnorm.solve_l_of_y",
         lambda r: {"track_blocks": r.phi.n_max})
    span(recurrence, "dirichlet_neumann", "recurrence.dirichlet_neumann",
         lambda r: {"blocks": r[0].n_max})
    span(recurrence.SolutionTrack, "extended", "recurrence.SolutionTrack.extended")
    for cls in (models.ExplicitSpec, models.PeriodicSpec, models.DynamicalSpec, models.ReflectedSpec):
        tracer.counter(cls, "coefficient_at", "models.coefficient_at")
    tracer.counter(matblock, "batched_singular_sq", "matblock.batched_singular_sq")
    tracer.counter(matblock, "batched_inv", "matblock.batched_inv")
