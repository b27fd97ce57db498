"""Span tracing of memspec's layers by wrapping public module attributes.

Tracing replaces each traced function with a wrapper on every module that
holds a reference to it (``enclosure`` and ``scalar`` import some solver
functions by name), records one span per call (name, start, end, parent span,
CLI call id) in memory, and restores the originals on ``uninstall``.  A
function that a later version of memspec no longer has is skipped, and its
metrics read 0.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict


def _arg(args, kwargs, index: int, name: str):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _count_modes(args, kwargs, result):
    return {"modes": len(result)}


def _count_roots(args, kwargs, result):
    kernel = _arg(args, kwargs, 0, "k")
    kept = len(result)
    return {"roots_kept": kept, "roots_dropped": kernel.n_terms + 2 - kept}


def _count_points(args, kwargs, result):
    return {"points": len(result)}


def _count_companion(args, kwargs, result):
    """Dense block-companion size (N+2)*n and the bytes it implies.

    ``computed_bytes`` is computed from array sizes, not measured: the real
    companion matrix (8 D^2), its complex eigenvectors (16 D^2) and
    eigenvalues (16 D).
    """
    mat_a = _arg(args, kwargs, 0, "mat_a")
    kernel = _arg(args, kwargs, 2, "k")
    dim = (kernel.n_terms + 2) * mat_a.shape[0]
    return {"companion_dim": dim, "computed_bytes": 24 * dim * dim + 16 * dim}


#: (layer name, [(module, attribute), ...] holding it, counter or None).
LAYERS = [
    ("config.parse_config",
     [("memspec.config", "parse_config"), ("memspec.cli", "parse_config")],
     None),
    ("boxmodes.enumerate_modes", [("memspec.boxmodes", "enumerate_modes")],
     _count_modes),
    ("scalar.mode_eigenvalues",
     [("memspec.scalar", "mode_eigenvalues"),
      ("memspec.enclosure", "mode_eigenvalues")], _count_roots),
    ("scalar.fredholm_factor_zeros",
     [("memspec.scalar", "fredholm_factor_zeros"),
      ("memspec.enclosure", "fredholm_factor_zeros")], None),
    ("scalar.cleared_mode_polynomial",
     [("memspec.scalar", "cleared_mode_polynomial")], None),
    ("polyroots.all_roots",
     [("memspec.polyroots", "all_roots"), ("memspec.scalar", "all_roots")],
     None),
    ("polyroots.real_roots_in_interval",
     [("memspec.polyroots", "real_roots_in_interval"),
      ("memspec.scalar", "real_roots_in_interval")], None),
    ("enclosure.essential_spectrum",
     [("memspec.enclosure", "essential_spectrum")], None),
    ("enclosure.enclosure_interval",
     [("memspec.enclosure", "enclosure_interval")], None),
    ("enclosure.one_pole_region",
     [("memspec.enclosure", "one_pole_region")], None),
    ("enclosure.boundary_cloud",
     [("memspec.enclosure", "boundary_cloud")], _count_points),
    ("pencil.discretize_1d", [("memspec.pencil", "discretize_1d")], None),
    ("pencil.nonlinear_eigenvalues_fd",
     [("memspec.pencil", "nonlinear_eigenvalues_fd")], _count_companion),
] + [
    (f"cli.cmd_{sub}", [("memspec.cli", f"cmd_{sub}")], None)
    for sub in ("essential", "eigs", "enclosure", "discretize", "validate")
]

ROOT_SPAN = "cli.main"


class Tracer:
    """In-memory span recorder for one traced phase of a run."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, call, id)
        self.counts: dict = defaultdict(float)  # (layer, counter) -> total
        self.maxima: dict = defaultdict(float)
        self.call_id: int | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn, counter=None):
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((name, start, end, parent, self.call_id,
                                   span_id))
            if counter is not None:
                try:
                    counted = counter(args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    counted = {}  # a changed signature leaves the count at 0
                for key, value in counted.items():
                    self.counts[(name, key)] += value
                    self.maxima[(name, key)] = max(self.maxima[(name, key)],
                                                   value)
            return result
        return traced

    def install(self) -> None:
        for name, holders, counter in LAYERS:
            wrappers = {}
            for module_name, attr in holders:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                if id(original) not in wrappers:
                    wrappers[id(original)] = self.wrap(name, original, counter)
                self._saved.append((module, attr, original))
                setattr(module, attr, wrappers[id(original)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def self_times(self) -> list[tuple]:
        """(name, call id, duration, self time) per span.

        Self time is the span's duration minus the durations of its direct
        child spans; calls run on one thread, so children never overlap.
        """
        child = defaultdict(float)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [(name, call, end - start, end - start - child[span_id])
                for name, start, end, _, call, span_id in self.spans]

    def write(self, path) -> None:
        """Spans as JSON lines, times in seconds from the first span."""
        origin = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, call, span_id in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start - origin,
                     "end": end - origin, "parent": parent, "call": call,
                     "id": span_id}) + "\n")
