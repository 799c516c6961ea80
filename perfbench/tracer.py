"""Per-layer tracer that instruments morreylab from outside its sources.

Each layer entry point is rebound, in every morreylab module namespace that
holds it, to a wrapper that records a span (name, start, end, parent span).
Rebinding only the defining module would trace nothing: the harness and the
CLI import entry points by name (``from .maximal import m_alpha_r``).

Only entry points are wrapped.  Inner helpers such as ``level_means`` or
``power_avg`` run thousands of times per run, and wrapping them would inflate
both the overhead and the self times of their callers.  The one exception is
``abs_power_cell_averages``, which gets a counter but no span: it tells a
kernel-cache miss from a hit and counts the cells that went through
quadrature, without moving any time between spans.

Spans stay in memory; ``metrics()`` reduces them once the run has ended.
Time that ``exclude()`` reports, such as the speed samples of child.py,
is taken out of every span open at the time.  A span's self time is its
duration minus the durations of its direct child spans.  A layer's self
time is the sum of the self times of its spans.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("field", "operators", "maximal", "weights_norms", "czd", "harness")


def _window_of(args):
    return args["f"].window


def _nested_pairs(window) -> int:
    """Number of (Q, Q') with Q' = Q or an ancestor of Q inside the window."""
    total = 0
    for level in range(window.level_min, window.level_max + 1):
        cubes = (window.cells_per_axis >> (level - window.level_min)) ** window.dim
        total += cubes * (window.level_max - level + 1)
    return total


def _radii(window) -> int:
    """Dyadic radii 2^(level_min - 1) .. 2^level_max of the centered operators."""
    return window.level_max - window.level_min + 2


def _count_power_weight(tr, args, result, quadratures):
    tr.weight_keys.add((float(args["gamma"]), args["window"], int(args["depth"])))


def _count_quadrature(tr, args, result, quadratures):
    tr.quadratures += 1
    tr.counters["field.quadrature_cells"] += args["window"].n_cells


def _count_kernel(tr, args, result, quadratures):
    tr.counters["operators.kernel.misses" if quadratures else "operators.kernel.hits"] += 1


def _count_kernel_terms(tr, args, result, quadratures):
    tr.counters["operators.kernel_terms"] += _window_of(args).n_cells ** 2


def _count_bh_boxes(tr, args, result, quadratures):
    win = _window_of(args)
    tr.counters["operators.bh_boxes"] += win.n_cells * _radii(win)


def _count_centered_boxes(tr, args, result, quadratures):
    if args["mode"] == "centered":
        win = _window_of(args)
        tr.counters["maximal.centered_boxes"] += win.n_cells * _radii(win)


def _count_pairs(tr, args, result, quadratures):
    win = args["window"]
    single = args["kind"].value in ("C210", "C211")
    tr.counters["weights_norms.pairs"] += win.n_cubes() if single else _nested_pairs(win)


def _count_stopping(tr, args, result, quadratures):
    tr.counters["czd.stopping_cubes"] += sum(len(cubes) for cubes in result.levels.values())
    tr.counters["czd.cap_hits"] += int(bool(result.cap_hit))


def _count_report_bytes(tr, args, result, quadratures):
    tr.counters["harness.report_bytes"] += sum(os.path.getsize(p) for p in result)


def _maximal_span(args):
    return "maximal.centered" if args["mode"] == "centered" else "maximal.dyadic"


# (module, function, span name or a function of the bound arguments, counter hook).
# A span name of None records no span, only the hook.
ENTRY_POINTS = (
    ("field", "power_weight", "field.power_weight", _count_power_weight),
    ("field", "abs_power_cell_averages", None, _count_quadrature),
    ("field", "bmo_norm", "field.bmo_norm", None),
    ("field", "oscillation_ratio", "field.oscillation_ratio", None),
    ("operators", "kernel_cell_averages", "operators.kernel", _count_kernel),
    ("operators", "bilinear_fractional", "operators.bilinear_fractional", _count_kernel_terms),
    ("operators", "commutator_iterated", "operators.commutator_iterated", _count_kernel_terms),
    ("operators", "bt_alpha", "operators.bt_alpha", None),
    ("operators", "bh_maximal", "operators.bh_maximal", _count_bh_boxes),
    ("maximal", "m_alpha_r", _maximal_span, _count_centered_boxes),
    ("weights_norms", "two_weight_constant", "weights_norms.two_weight_constant", _count_pairs),
    ("weights_norms", "morrey_norm", "weights_norms.norms", None),
    ("weights_norms", "rhs_bilinear_morrey", "weights_norms.norms", None),
    ("weights_norms", "rhs_bilinear_morrey_from", "weights_norms.norms", None),
    ("weights_norms", "weak_morrey_functional", "weights_norms.norms", None),
    ("weights_norms", "lemma39_check", "weights_norms.lemma39_check", None),
    ("czd", "cz_decompose", "czd.decompose", _count_stopping),
    ("czd", "cz_decompose_alpha", "czd.decompose", _count_stopping),
    ("czd", "verify_decomposition", "czd.verify", None),
    ("czd", "necessity_pair", "czd.necessity_pair", None),
    ("harness", "run_experiment", "harness.run_experiment", None),
    # timed apart from the harness layer, so harness.self_s is run_experiment's self time
    ("harness", "emit_report", "emit", _count_report_bytes),
)

SPAN_NAMES = ("maximal.dyadic", "maximal.centered", *sorted(
    {name for _, _, name, _ in ENTRY_POINTS if isinstance(name, str)}))

COUNTERS = ("field.quadrature_cells", "operators.kernel.hits", "operators.kernel.misses",
            "operators.kernel_terms", "operators.bh_boxes", "maximal.centered_boxes",
            "weights_norms.pairs", "czd.stopping_cubes", "czd.cap_hits",
            "harness.report_bytes")


class Tracer:
    """Spans and counters of one process, recorded by rebound entry points."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1, excluded s]
        self._open: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.weight_keys: set = set()
        self.quadratures = 0

    def install(self) -> None:
        """Rebind every entry point in every loaded morreylab namespace.

        Raises LookupError if an entry point is gone or bound in no namespace,
        so that a renamed or merged entry point fails the traced run instead
        of moving its time into its caller's span unnoticed.
        """
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "morreylab" or name.startswith("morreylab."))]
        for module_name, func_name, span, hook in ENTRY_POINTS:
            original = getattr(sys.modules.get(f"morreylab.{module_name}"), func_name, None)
            if original is None:
                raise LookupError(f"entry point morreylab.{module_name}.{func_name} not found")
            wrapper = self._wrap(original, span, hook)
            rebound = 0
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        rebound += 1
            if not rebound:
                raise LookupError(f"entry point morreylab.{module_name}.{func_name} "
                                  "is bound in no morreylab namespace")

    def exclude(self, seconds: float) -> None:
        """Take SECONDS, spent outside the program, out of every open span."""
        for i in self._open:
            self.spans[i][4] += seconds

    def _wrap(self, fn, span, hook):
        signature = inspect.signature(fn)
        needs_args = hook is not None or callable(span)

        def traced(*args, **kwargs):
            bound = None
            if needs_args:
                ba = signature.bind(*args, **kwargs)
                ba.apply_defaults()
                bound = ba.arguments
            quadratures = self.quadratures
            if span is None:
                result = fn(*args, **kwargs)
            else:
                name = span(bound) if callable(span) else span
                # A sample may interrupt any line here.  The span is opened after
                # its start is taken and closed before its end is, so that
                # exclude() never takes out time that lies outside the span.
                parent = self._open[-1] if self._open else -1
                record = [name, time.perf_counter(), 0.0, parent, 0.0]
                self.spans.append(record)
                self._open.append(len(self.spans) - 1)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._open.pop()
                    record[2] = time.perf_counter()
            if hook is not None:
                hook(self, bound, result, self.quadratures - quadratures)
            return result

        return traced

    def metrics(self) -> dict:
        """Self time and calls per span, self time per layer, and the counters."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, excluded in self.spans:
            if parent >= 0:
                covered[parent] += end - start - excluded
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        calls = dict.fromkeys(SPAN_NAMES, 0)
        for (name, start, end, _, excluded), child in zip(self.spans, covered):
            self_s[name] += (end - start - excluded) - child
            calls[name] += 1
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                         if k.startswith(layer + "."))
        for name in SPAN_NAMES:
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.calls"] = calls[name]
        out["harness.emit_s"] = self_s["emit"]
        for name in COUNTERS:
            out[name] = self.counters[name]
        weights = calls["field.power_weight"]
        out["field.power_weight.unique_frac"] = len(self.weight_keys) / weights if weights else 0.0
        return out
