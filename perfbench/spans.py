"""In-memory spans around the calls into each ``cosserat2d`` module.

The package is not edited: :meth:`Tracer.install` replaces, at run time,
the functions that ``cli``, ``dynamics`` and ``energy`` import from the
other package modules with wrappers that record a span per call.  A span's
layer is the module that defines the function, so ``polar2`` called from
``dynamics`` is an ``algebra`` span whose parent is the ``dynamics`` span
that called it.  Internal calls inside one module are not seen.
"""

from __future__ import annotations

import functools
import inspect
import time

LAYERS = ("cli", "config", "rng", "dynamics", "energy", "algebra", "fields",
          "waves", "reduction3d", "report")

#: Modules whose imported names are wrapped.
TRACED_NAMESPACES = ("cosserat2d.cli", "cosserat2d.dynamics",
                     "cosserat2d.energy")

#: Spans whose result length is also counted (name -> counter name).
_RESULT_LENGTHS = {"waves.dispersion_branches": "waves.branches"}


class Tracer:
    """Records spans ``[name, start_ns, end_ns, parent_index]`` and call
    counts.  Counts are taken at the same boundary as the spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        span = [name, 0, 0, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self.counts[name] = self.counts.get(name, 0) + 1
        self._stack.append(index)
        span[1] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()
        counter = _RESULT_LENGTHS.get(name)
        if counter is not None:
            self.counts[counter] = self.counts.get(counter, 0) + len(result)
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def install(self, modules: dict) -> None:
        """Wrap the package functions each traced namespace imports from
        another package module, and ``VerificationReport.to_csv``."""
        for namespace in TRACED_NAMESPACES:
            module = modules[namespace]
            for attr, value in list(vars(module).items()):
                owner = getattr(value, "__module__", "") or ""
                if (inspect.isfunction(value) and owner != namespace
                        and owner.startswith("cosserat2d.")):
                    layer = owner.rsplit(".", 1)[1]
                    setattr(module, attr,
                            self._wrap(f"{layer}.{value.__name__}", value))
        report_cls = modules["cosserat2d.report"].VerificationReport
        report_cls.to_csv = self._wrap("report.to_csv", report_cls.to_csv)


def self_times_ns(spans: list[list]) -> list[int]:
    """Each span's duration minus the time its direct children cover
    (children of one span never overlap: the traced code is sequential)."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
