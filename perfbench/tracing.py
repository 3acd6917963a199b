"""Spans around the calls into each layer of ``atiyah``, recorded from outside.

``BOUNDARIES`` is the one table of traced public names.  ``Tracer.install``
replaces each name, wherever the package binds it, by a wrapper that records
a span (site, job, parent span, start, end) and updates the counters that the
site's arguments and result give.  A name the package no longer has is
skipped, and the metrics it alone fed are reported as absent (``None``).

A span's self time is its duration minus the time its child spans cover,
the children's own bookkeeping included, so the cost of tracing lands on no
layer.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

LAYERS = ("cli", "expressions", "bundles", "characters", "classify")


def _max(counters: dict, name: str, value: int) -> None:
    counters[name] = max(counters.get(name, 0), value)


def _add(counters: dict, name: str, value: int) -> None:
    counters[name] = counters.get(name, 0) + value


def _on_main(tracer, args, result):
    _add(tracer.counters, "cli.calls", 1)


def _on_build_parser(tracer, args, parser):
    parser.parse_args = tracer.wrap(parser.parse_args, "cli", "argparse")


def _on_parse(tracer, args, result):
    _add(tracer.counters, "expressions.input_chars", len(args[0]))


def _on_tensor(tracer, args, result):
    c = tracer.counters
    _add(c, "bundles.tensor_calls", 1)
    _add(c, "bundles.indec_products", len(args[0].terms) * len(args[1].terms))
    _max(c, "bundles.peak_terms", len(result.terms))
    if result.terms:
        _max(c, "bundles.max_mult_bits", max(result.terms.values()).bit_length())


def _on_tensor_indec(tracer, args, result):
    c = tracer.counters
    _add(c, "bundles.indec_products", 1)
    _max(c, "bundles.peak_terms", len(result.terms))
    _max(c, "bundles.max_mult_bits", 1)


def _on_product(tracer, args, result):
    other = getattr(args[1], "coeffs", None)
    if other is not None:
        _add(tracer.counters, "characters.product_pairs", len(args[0].coeffs) * len(other))


def _on_peel(tracer, args, result):
    _add(tracer.counters, "characters.peeled_components", len(result.terms))


def _on_oracle(tracer, args, result):
    _add(tracer.counters, "characters.oracle_checks", 1)


# (module:qualified name, layer, group, hook, counters the hook feeds).  A
# group names what a ``*_s`` time metric sums; rendering is counted in the
# cli layer wherever its code lives.
BOUNDARIES = (
    ("atiyah.cli:main", "cli", "main", _on_main, ("cli.calls",)),
    ("atiyah.cli:build_parser", "cli", "argparse", _on_build_parser, ()),
    ("atiyah.cli:report_to_json", "cli", "render", None, ()),
    ("atiyah.cli:report_to_text", "cli", "render", None, ()),
    ("atiyah.expressions:format_bundle_sum", "cli", "render", None, ()),
    ("atiyah.bundles:BundleSum.__str__", "cli", "render", None, ()),
    ("json:dumps", "cli", "render", None, ()),
    ("atiyah.expressions:parse_expression", "expressions", "parse", _on_parse,
     ("expressions.input_chars",)),
    ("atiyah.expressions:evaluate_expression", "expressions", "evaluate", None, ()),
    ("atiyah.bundles:BundleSum.tensor", "bundles", "tensor", _on_tensor,
     ("bundles.tensor_calls", "bundles.indec_products", "bundles.peak_terms",
      "bundles.max_mult_bits")),
    ("atiyah.bundles:tensor", "bundles", "tensor", None, ()),
    ("atiyah.bundles:BundleSum.tensor_power", "bundles", "tensor_power", None, ()),
    ("atiyah.bundles:BundleSum.dual", "bundles", "dual", None, ()),
    ("atiyah.bundles:BundleSum.__add__", "bundles", "sum", None, ()),
    ("atiyah.bundles:BundleSum.scale", "bundles", "sum", None, ()),
    ("atiyah.bundles:tensor_indec", "bundles", "tensor_indec", _on_tensor_indec,
     ("bundles.indec_products", "bundles.peak_terms", "bundles.max_mult_bits")),
    ("atiyah.characters:character", "characters", "character", None, ()),
    ("atiyah.characters:bracket", "characters", "character", None, ()),
    ("atiyah.characters:BivariateCharacter.__mul__", "characters", "product", _on_product,
     ("characters.product_pairs",)),
    ("atiyah.characters:decompose_character", "characters", "peel", _on_peel,
     ("characters.peeled_components",)),
    ("atiyah.characters:oracle_check", "characters", "oracle", _on_oracle,
     ("characters.oracle_checks",)),
    ("atiyah.classify:s_set_enumerate", "classify", "enumerate", None, ()),
    ("atiyah.classify:p1_s_set_enumerate", "classify", "enumerate", None, ()),
    ("atiyah.classify:s_set_symbolic", "classify", "symbolic", None, ()),
    ("atiyah.classify:classify", "classify", "classify", None, ()),
    ("atiyah.classify:p1_classify", "classify", "classify", None, ()),
    ("atiyah.classify:correspondence_grid", "classify", "grid", None, ()),
    ("atiyah.classify:express_in_generator", "classify", "express", None, ()),
)

# Time metrics: the time inside the outermost spans of a group.
GROUP_TIMES = {
    "cli.argparse_s": "argparse",
    "cli.render_s": "render",
    "expressions.parse_s": "parse",
    "bundles.tensor_s": "tensor",
    "bundles.dual_s": "dual",
    "bundles.tensor_indec_s": "tensor_indec",
    "characters.character_s": "character",
    "characters.product_s": "product",
    "characters.peel_s": "peel",
    "classify.enumerate_s": "enumerate",
    "classify.classify_s": "classify",
    "classify.grid_s": "grid",
    "classify.express_s": "express",
}

# Counts that must repeat exactly on every pass over the same job list.
COUNTS = (
    "cli.calls",
    "expressions.input_chars",
    "bundles.tensor_calls",
    "bundles.indec_products",
    "bundles.peak_terms",
    "bundles.max_mult_bits",
    "characters.product_pairs",
    "characters.peeled_components",
    "characters.oracle_checks",
)


def _resolve(target: str):
    """(owner, value, owner is a class) for ``module:qualname``, or None if missing."""
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if path:
        value = owner.__dict__.get(attr)
    else:
        value = getattr(owner, attr, None)
    return None if value is None else (owner, value, bool(path))


class Tracer:
    """Records spans and counters while a job is active (``job`` is not None)."""

    def __init__(self):
        self.sites: list[tuple[str, str]] = []  # (layer, group) per site index
        self.spans: list[tuple] = []  # (job, parent, site, t0, start, end, t1)
        self.counters: dict[str, int] = {}
        self.job: int | None = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._groups: set[str] = set()
        self._fed: set[str] = set()

    def wrap(self, fn, layer: str, group: str, hook=None):
        key = (layer, group)
        if key not in self.sites:
            self.sites.append(key)
        site = self.sites.index(key)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (self.job, parent, site, t0, start, end, end)
            if hook is not None:
                hook(self, args, result)
            spans[index] = (self.job, parent, site, t0, start, end, perf_counter())
            return result

        return traced

    def install(self) -> None:
        """Wrap every name of ``BOUNDARIES`` that the package still has."""
        self.missing = []
        for target, layer, group, hook, feeds in BOUNDARIES:
            found = _resolve(target)
            if found is None:
                self.missing.append(target)
                continue
            owner, original, is_class_attr = found
            wrapper = self.wrap(original, layer, group, hook)
            self._groups.add(group)
            self._fed.update(feeds)
            if is_class_attr:
                owners = [owner]
            else:
                owners = [owner] + [m for name, m in list(sys.modules.items())
                                    if (name == "atiyah" or name.startswith("atiyah.")) and m is not owner]
            for module in owners:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def pass_metrics(self) -> dict[str, float | None]:
        """Per-layer metrics of the spans and counters since the last reset."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for job, parent, site, t0, start, end, t1 in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        group_time: dict[str, float] = {}
        self_time = dict.fromkeys(LAYERS, 0.0)
        evaluate_self = 0.0
        for i, (job, parent, site, t0, start, end, t1) in enumerate(spans):
            layer, group = self.sites[site]
            own = end - start - covered[i]
            self_time[layer] += own
            if group == "evaluate":
                evaluate_self += own
            while parent >= 0 and self.sites[spans[parent][2]][1] != group:
                parent = spans[parent][1]
            if parent < 0:
                group_time[group] = group_time.get(group, 0.0) + end - start
        metrics: dict[str, float | None] = {}
        for name, group in GROUP_TIMES.items():
            metrics[name] = group_time.get(group, 0.0) if group in self._groups else None
        metrics["expressions.evaluate_self_s"] = evaluate_self if "evaluate" in self._groups else None
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = self_time[layer]
        for name in COUNTS:
            metrics[name] = self.counters.get(name, 0) if name in self._fed else None
        return metrics

    def write_spans(self, path: str) -> None:
        """Write the recorded spans as JSON lines, times relative to the first."""
        origin = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (job, parent, site, t0, start, end, t1) in enumerate(self.spans):
                layer, group = self.sites[site]
                fh.write(json.dumps({
                    "span": i, "parent": parent, "job": job, "layer": layer, "group": group,
                    "start": start - origin, "end": end - origin,
                }) + "\n")
