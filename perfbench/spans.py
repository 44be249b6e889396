"""Spans around the library's layer boundaries, recorded from outside.

A :class:`Tracer` replaces the module attribute each caller looks up (for
example ``cycledec.lattice.barycentric_vertex``, which is how
``decompose_lattice`` reaches the simplex) with a wrapper that records a
span, and puts the original back on exit, also when the op raised.  The
library itself is not modified.

A span is ``[name, start, end, parent, op_id, cells]``; ``parent`` is the
index of the enclosing span or ``None`` and ``cells`` is the matrix size
passed to an exact linear solve.  A layer's self time is its span's
duration minus the durations of its direct children, which nest inside it.
Each op's root span is named ``op`` (see ``ops.execute``), so its self time
is the part of the op that no other span covers.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

from cycledec import complexes as cx
from cycledec import elementary as el
from cycledec import finite_graph as fg
from cycledec import lattice as lat


def _matrix_cells(args, kwargs):
    matrix = args[0] if args else kwargs["matrix"]
    return len(matrix) * (len(matrix[0]) if matrix else 0)


# (module, attribute the caller looks up, span name, argument-size hook)
TARGETS = (
    (fg, "decompose_graph", "finite_graph.decompose_graph", None),
    (fg, "is_balanced_graph", "finite_graph.is_balanced_graph", None),
    (fg, "birkhoff_decompose", "finite_graph.birkhoff_decompose", None),
    (lat, "decompose_lattice", "lattice.decompose_lattice", None),
    (lat, "barycentric_vertex", "exact_lp.barycentric_vertex", None),
    (cx, "solve_exact_linear", "exact_lp.solve_exact_linear", _matrix_cells),
    (cx, "hodge_decompose", "complexes.hodge_decompose", None),
    (cx, "recover_psi", "complexes.recover_psi", None),
    (el, "recover_psi", "complexes.recover_psi", None),
    (el, "in_Re", "elementary.in_Re", None),
    (el, "elementary_decompose", "elementary.elementary_decompose", None),
)


class Tracer:
    """Collects spans for a sequence of ops while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self._stack = []
        self._saved = []
        self.op_id = None

    # -- installation ---------------------------------------------------

    def __enter__(self):
        for module, attr, name, size in self.targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, size))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def _wrap(self, fn, name, size):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cells = size(args, kwargs) if size else 0
            with self.span(name, cells):
                return fn(*args, **kwargs)

        return traced

    # -- spans ----------------------------------------------------------

    def span(self, name, cells=0):
        """Context manager recording one span under the innermost open one."""
        return _Span(self, name, cells)


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, name, cells):
        parent = tracer._stack[-1] if tracer._stack else None
        self.tracer = tracer
        self.record = [name, 0.0, 0.0, parent, tracer.op_id, cells]

    def __enter__(self):
        tracer = self.tracer
        tracer._stack.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter()
        self.tracer._stack.pop()
        return False


def self_times(spans):
    """Per span index, its duration minus its direct children's durations."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def summarize(spans):
    """Per span name: calls, inclusive seconds, self seconds and cells."""
    own = self_times(spans)
    totals = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "cells": 0})
    for (name, start, end, _, _, cells), self_s in zip(spans, own):
        entry = totals[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += self_s
        entry["cells"] += cells
    return dict(totals)
