"""Spans recorded from outside the program.

`Tracer.install` replaces each listed public function, in every loaded
``momgas`` module namespace that holds a reference to it, with a wrapper
that records a span (name, start, end, parent span, operation id, failed).
Because the defining module's own global is replaced too, internal calls
(``ground_state_scan -> solve_bethe``, ``gaudin_residual_scan ->
bc_residual``, ``extrapolate_integral -> regularized_integral``) are
caught.  ``mpmath.exp`` is wrapped with a counter only.  Nothing under
``src/`` is changed; `uninstall` restores the originals.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

# (defining module, function) for every traced layer boundary
TARGETS = [
    ("momgas.cli", "main"),
    ("momgas.bethe", "solve_bethe"),
    ("momgas.bethe", "solve_lieb_liniger"),
    ("momgas.bethe", "bethe_residuals"),
    ("momgas.bethe", "duality_check"),
    ("momgas.bethe", "ground_state_scan"),
    ("momgas.bethe", "gaudin_residual_scan"),
    ("momgas.bethe", "gaudin_wavefunction"),
    ("momgas.bethe", "schrodinger_residual"),
    ("momgas.twobody", "bc_residual"),
    ("momgas.twobody", "two_body_residual"),
    ("momgas.yang_baxter", "yb_defect"),
    ("momgas.yang_baxter", "check_unitarity"),
    ("momgas.yang_baxter", "delta_control_defect"),
    ("momgas.yang_baxter", "check_delta_unitarity"),
    ("momgas.yang_baxter", "yang_op"),
    ("momgas.yang_baxter", "regular_rep"),
    ("momgas.nonrel", "vertex_expansion_scan"),
    ("momgas.nonrel", "dispersion_scan"),
    ("momgas.regularize", "bound_state_energy_via_regularization"),
    ("momgas.regularize", "regularized_integral"),
]

MP_EXP = "bethe.mp_exp_calls"


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent, op, failed]
        self.stack = []
        self.op = None
        self.counts = defaultdict(int)
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
        return traced

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _replace(self, original, wrapper, modules):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self):
        for module_name, _ in TARGETS:
            importlib.import_module(module_name)
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "momgas" or name.startswith("momgas."))]
        for module_name, func in TARGETS:
            original = getattr(sys.modules[module_name], func)
            label = f"{module_name.split('.', 1)[1]}.{func}"
            self._replace(original, self._wrap(label, original), modules)
        import mpmath
        self._replace(mpmath.exp, self._count(MP_EXP, mpmath.exp), [mpmath])

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def aggregate(spans, keep=lambda op: op is not None):
    """{name: [calls, self seconds, failed calls]} over the spans whose
    operation id passes `keep` (by default, spans recorded outside an
    operation, such as oracle checks, are left out); self time is a span's
    duration minus the durations of its direct children (children of one
    span never overlap: the program is single-threaded)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: [0, 0.0, 0])
    for index, (name, start, end, _, span_op, failed) in enumerate(spans):
        if not keep(span_op):
            continue
        entry = out[name]
        entry[0] += 1
        entry[1] += end - start - child[index]
        entry[2] += bool(failed)
    return out


def count_under(spans, name, ancestor):
    """Number of `name` spans with an `ancestor` span above them."""
    total = 0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        total += parent >= 0
    return total
