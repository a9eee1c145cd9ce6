"""In-memory spans around the library's layer boundaries.

The benchmark does not change the library.  ``install`` replaces each traced
public function with a wrapper in every ``casimir_medium`` module namespace
that bound it by name (``forces`` imports ``integrate_1d`` and friends
directly, ``checks`` keeps its suites in ``SUITES``), and replaces the
susceptibility methods on the model classes.  Each call records a span
(id, name, start, end, parent id, operation id).  Self time is a span's
duration minus the time its child spans cover; it is accumulated as spans
close, so the per-layer totals are exact even when the span list is capped.
"""

from __future__ import annotations

import csv
import sys
import time
from collections import defaultdict

# spans kept in memory per process; later spans still count in the totals
MAX_SPANS = 200_000


class Tracer:
    def __init__(self, max_spans: int = MAX_SPANS):
        self.max_spans = max_spans
        self.op = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.dropped = 0
        self._next_id = 0
        self._stack: list[list[int]] = []  # [span id, child ns]

    def wrap(self, name: str, fn, on_result=None):
        stack, clock = self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.total_ns[name] += duration
                self.self_ns[name] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if len(self.spans) < self.max_spans:
                    self.spans.append((span_id, name, start, end,
                                       parent[0] if parent else -1, self.op))
                else:
                    self.dropped += 1
            if on_result is not None:
                on_result(self.counters, result)
            return result

        return traced

    def absorb(self, child: dict, op: int) -> None:
        """Add a child process's ``summary`` and ``spans`` to this trace."""
        summary = child["summary"]
        for mine, theirs in ((self.calls, summary["calls"]),
                             (self.total_ns, summary["total_ns"]),
                             (self.self_ns, summary["self_ns"]),
                             (self.counters, summary["counters"])):
            for name, value in theirs.items():
                mine[name] += value
        offset = self._next_id
        self._next_id += summary["spans"]
        for span_id, name, start, end, parent, _ in child["spans"]:
            if len(self.spans) < self.max_spans:
                self.spans.append((span_id + offset, name, start, end,
                                   parent + offset if parent >= 0 else -1, op))
            else:
                self.dropped += 1
        self.dropped += summary["spans"] - len(child["spans"])

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_ns": dict(self.total_ns),
            "self_ns": dict(self.self_ns),
            "counters": dict(self.counters),
            "spans": len(self.spans) + self.dropped,
        }

    def write_spans(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "start_ns", "end_ns", "parent", "op"))
            out.writerows(self.spans)


def _count_1d(counters, res):
    counters["quadrature.integrate_1d.evals"] += res.evaluations
    counters["quadrature.integrate_1d.unconverged"] += not res.converged


def _count_2d(counters, res):
    counters["quadrature.integrate_2d_oracle.evals"] += res.evaluations


def _count_force(counters, res):
    counters["forces.evaluations"] += res.evaluations


def _rebind(orig, wrapped) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("casimir_medium"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of an imported ``casimir_medium``."""
    import casimir_medium.checks as checks
    import casimir_medium.cli  # noqa: F401  (binds the force routes by name)
    import casimir_medium.forces as forces
    import casimir_medium.medium as medium
    import casimir_medium.propagators as propagators
    import casimir_medium.quadrature as quadrature

    functions = (
        (quadrature, "inner_mode_integral", "quadrature.inner_mode_integral", None),
        (quadrature, "integrate_1d", "quadrature.integrate_1d", _count_1d),
        (quadrature, "integrate_2d_oracle", "quadrature.integrate_2d_oracle", _count_2d),
        (medium, "kk_imaginary_axis", "medium.kk_imaginary_axis", None),
        (forces, "force_field_bc", "forces.field_bc", _count_force),
        (forces, "force_polarization_bc", "forces.polarization_bc", _count_force),
        (forces, "force_via_action_fd", "forces.action_fd", None),
        (propagators, "g_phiphi", "propagators.g_phiphi", None),
        (propagators, "dyson_partial_sum", "propagators.dyson_partial_sum", None),
    )
    for module, attr, name, on_result in functions:
        orig = getattr(module, attr)
        _rebind(orig, tracer.wrap(name, orig, on_result))

    for cls in vars(medium).values():
        if isinstance(cls, type) and issubclass(cls, medium.SusceptibilityModel):
            for method in ("chi_bar", "im_chi"):
                if method in vars(cls):
                    setattr(cls, method,
                            tracer.wrap(f"medium.{method}", vars(cls)[method]))
    medium.Medium.refractive_index = tracer.wrap(
        "medium.refractive_index", medium.Medium.refractive_index
    )
    for suite, fn in list(checks.SUITES.items()):
        checks.SUITES[suite] = tracer.wrap(f"checks.{suite}", fn)
