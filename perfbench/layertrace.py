"""Outside-in layer trace: spans around piq's public functions.

Each wrapped call records a span ``[layer, start, end, parent]`` in memory;
the parent is the span open when the call began, so a layer's self time is
its duration minus the time of its child spans.  Names are patched where the
caller looks them up (``piq.verify.pi_order_at_cusp`` rather than
``piq.etaq.pi_order_at_cusp``), and methods are patched on their class.
Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# layer -> the names it owns, as "module:attribute" or "module:Class.method".
LAYERS = {
    "series.mul": ("piq.series:ScaledSeries.__mul__", "piq.series:ScaledSeries.__rmul__"),
    "series.pow": ("piq.series:ScaledSeries.pow",),
    "series.add": ("piq.series:ScaledSeries.__add__", "piq.series:ScaledSeries.__radd__"),
    "etaq.expand": ("piq.etaq:EtaQuotient.expand",),
    "etaq.cusp_order": ("piq.verify:pi_order_at_cusp", "piq.haupt:order_at_cusp"),
    "etaq.cusps": ("piq.verify:cusps", "piq.haupt:cusps"),
    "ident.parse": ("piq.ident:parse_corpus", "piq.ident:parse_identity",
                    "piq.ident:parse_expression", "piq.discover:parse_identity",
                    "piq.haupt:parse_expression"),
    "ident.flatten": ("piq.verify:build_sides",),
    "ident.evaluate": ("piq.ident:evaluate_to_bound", "piq.haupt:evaluate_to_bound"),
    "verify.prove": ("piq.verify:prove", "piq.discover:prove", "piq.haupt:prove"),
    "verify.rts_mul": ("piq.verify:rts_mul",),
    "verify.expand": ("piq.verify:rts_series",),
    "quasimod.reduce": ("piq.verify:reduce_to_e2", "piq.verify:rule_cube_sum",
                        "piq.verify:rule_quartic_pair"),
    "quasimod.combo_expand": ("piq.quasimod:E2Combo.expand", "piq.quasimod:E4Combo.expand"),
    "linalg.kernel": ("piq.discover:kernel_basis", "piq.haupt:kernel_basis"),
    "discover.mine": ("piq.discover:mine",),
    "haupt.fit": ("piq.haupt:fit_rational",),
}

ITEM = "item"  # the benchmark's own span around one item
HOOKS = "trace.hooks"  # the benchmark's own span around the counters of one call

SERIES_ETAQ = ("series.mul", "series.pow", "series.add", "etaq.expand")
SYMBOLIC = ("etaq.cusp_order", "ident.flatten", "verify.rts_mul", "verify.prove")


def _coeff_bits(series) -> int:
    bits = 0
    for _, c in series.items():
        bits = max(bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
    return bits


class Tracer:
    """Spans and counters of one pass; install() patches, summary() reads out."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.sizes: list[dict] = []
        self.missing: list[str] = []
        self._item: dict | None = None

    # -- recording ---------------------------------------------------------

    def _wrap(self, layer, fn, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [layer, clock(), 0.0, parent]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                # The counters' own cost is the benchmark's, not the parent layer's.
                hook = [HOOKS, clock(), 0.0, parent]
                spans.append(hook)
                after(args, out)
                hook[2] = clock()
            return out

        return wrapper

    def item(self, label: str, run):
        """Run one benchmark item inside a root span and keep its size record."""
        self._item = {"label": label, "level": 0, "sturm_bound": 0,
                      "coefficients_compared": 0, "flat_terms": 0, "coeff_bits_max": 0}
        try:
            return self._wrap(ITEM, run, None)()
        finally:
            self.sizes.append(self._item)
            self._item = None

    # -- counters fed by the wrappers ------------------------------------------

    def _after_prove(self, args, rep):
        self.counters["verify.coefficients_compared"] += rep.coefficients_compared
        if self._item is not None:
            self._item["coefficients_compared"] += rep.coefficients_compared
            self._item["level"] = max(self._item["level"], rep.level or 0)
            self._item["sturm_bound"] = max(self._item["sturm_bound"], rep.sturm_bound or 0)

    def _after_flatten(self, args, sides):
        n = len(sides[0]) + len(sides[1])
        self.counters["ident.flat_terms"] += n
        if self._item is not None:
            self._item["flat_terms"] += n

    def _after_expand(self, args, series):
        bits = _coeff_bits(series)
        self.counters["verify.coeff_bits_max"] = max(self.counters["verify.coeff_bits_max"], bits)
        if self._item is not None:
            self._item["coeff_bits_max"] = max(self._item["coeff_bits_max"], bits)

    def _after_kernel(self, args, basis):
        m = args[0]
        self.counters["linalg.matrix_cells"] += m.rows * m.cols

    def _counted(self, name, per_result):
        def after(args, out):
            self.counters[name] += per_result(out)
        return after

    def install(self) -> None:
        """Patch every name in LAYERS; names a refactor removed are listed in .missing."""
        hooks = {
            "verify.prove": self._after_prove,
            "ident.flatten": self._after_flatten,
            "verify.expand": self._after_expand,
            "linalg.kernel": self._after_kernel,
            "discover.mine": self._counted("discover.relations", len),
            "haupt.fit": self._counted("haupt.fits", lambda fit: 1),
        }
        kernel_hooks = {
            "piq.discover": self._counted("discover.kernel_vectors", len),
            "piq.haupt": self._counted("haupt.kernel_attempts", lambda basis: 1),
        }
        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, _, path = target.partition(":")
                owner = importlib.import_module(module_name)
                *owner_path, attr = path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part)
                fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
                if fn is None:
                    self.missing.append(target)
                    continue
                after = hooks.get(layer)
                if layer == "linalg.kernel":
                    kernel_after = kernel_hooks[module_name]

                    def after(args, out, k=kernel_after):
                        self._after_kernel(args, out)
                        k(args, out)

                setattr(owner, attr, self._wrap(layer, fn, after))

    # -- read-out --------------------------------------------------------------

    def summary(self, piq) -> dict:
        """Per-layer self time and call counts, plus per-item layer times."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        item_layers: list[dict[str, float]] = []
        windows: list[tuple[float, float]] = []
        owner_item = [-1] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):
            own = (end - start) - child[i]
            if name == ITEM:
                item_layers.append(defaultdict(float))
                owner_item[i] = len(item_layers) - 1
                windows.append((start, end))
            else:
                owner_item[i] = owner_item[parent] if parent >= 0 else -1
                self_s[name] += own
                calls[name] += 1
            if owner_item[i] >= 0:
                item_layers[owner_item[i]][name] += own
        traced = sum(end - start for name, start, end, parent in self.spans if name == ITEM)
        cache = getattr(getattr(piq.etaq, "_eta_power", None), "cache_info", None)
        info = cache() if cache is not None else None
        for size, layers, (start, end) in zip(self.sizes, item_layers, windows):
            size["t0"], size["t1"] = start, end
            size["layer_self_s"] = dict(sorted(layers.items()))
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "counters": dict(self.counters),
            "traced_s": traced,
            "eta_cache": None if info is None else [info.hits, info.misses],
            "items": self.sizes,
            "spans": len(self.spans),
            "missing": self.missing,
        }
