"""Span tracing around seifol's public functions, installed from outside.

``Tracer.install`` replaces every listed function on every ``seifol.*``
module attribute bound to it (so calls between modules are seen too) and
``uninstall`` puts the originals back.  Each call becomes a span
``(function, start, end, parent span, item id)`` kept in memory; the
per-layer figures are computed from the spans when the run ends.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from functools import wraps
from time import perf_counter

# Layer name -> public functions whose calls are attributed to it.  A name
# of the form "Class.method" is wrapped on the class.
LAYERS = {
    "cli": ("main", "build_parser"),
    "rationals": ("parse_rational", "parse_continued_fraction", "cf_eval", "cf_expand"),
    "seifert": (
        "parse_seifert", "normalize", "reverse_orientation", "euler_number", "h1_order",
        "h1_order_snf", "homology_presentation", "is_lens_type", "format_seifert",
    ),
    "snf": ("smith_normal_form", "cokernel_order"),
    "foliation": ("witness_search", "decide_horizontal", "decide_excellence", "verify_witness", "has_witness"),
    "torus_covers": (
        "branched_invariants", "classify_torus_cover", "cross_validate", "crosscheck_sweep", "parse_query",
    ),
    "link_surgery": ("fill", "parse_slope", "ml_to_mf", "base_fibers", "negative_surgery_is_excellent"),
    "gluing": (
        "apply_slope_map", "compose_slope_maps", "fixed_unit_fraction_slopes", "load_cable_rows",
        "get_cable_row", "cable_family_check", "cable_family_invariants",
    ),
    "words": ("free_reduce", "word_power_product"),
    "presentations": (
        "coarse_obstruction", "present_two_bridge_cover", "present_pretzel_cover",
        "pretzel_exterior_relators", "pretzel_surgery_description", "parse_presentation",
        "format_presentation", "GroupPresentation.abelianization_order",
    ),
}

# Outcome counters, read from public return values (and one argument).
COUNTERS = (
    "foliation.witnessed",
    "foliation.refuted",
    "presentations.assignments",
    "presentations.survivors",
    "torus_covers.unsupported",
    "snf.cells",
    "gluing.k_checked",
)


def _count(counts, name, args, result):
    if name == "witness_search":
        counts["foliation.witnessed" if result is not None else "foliation.refuted"] += 1
    elif name == "coarse_obstruction":
        counts["presentations.assignments"] += result.assignments_checked
        counts["presentations.survivors"] += len(result.survivors)
    elif name == "branched_invariants":
        counts["torus_covers.unsupported"] += result.invariants is None
    elif name == "smith_normal_form":
        matrix = args[0]
        counts["snf.cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)
    elif name == "cable_family_check":
        counts["gluing.k_checked"] += len(result.checked)


class Tracer:
    """Collects spans for the calls made while installed.

    Spans live in parallel typed arrays, about 30 bytes each, because a
    traced run records hundreds of thousands of them."""

    def __init__(self):
        self.functions = []  # (function name, layer) per function index
        self.function = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.item_id = array("l")
        self.failed = []  # indices of spans whose call raised
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.item = -1
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, fn, name, layer):
        if (name, layer) not in self.functions:
            self.functions.append((name, layer))
        code = self.functions.index((name, layer))
        stack, failed, counts = self._stack, self.failed, self.counts
        function, starts, ends, parents, item_ids = self.function, self.start, self.end, self.parent, self.item_id

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            function.append(code)
            parents.append(stack[-1] if stack else -1)
            item_ids.append(self.item)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed.append(index)
                raise
            finally:
                ends[index] = perf_counter()
                stack.pop()
            _count(counts, name, args, result)
            return result

        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items() if key == "seifol" or key.startswith("seifol.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"seifol.{layer}"]
            for name in names:
                # A function the package no longer has is skipped: its
                # layer then reports fewer calls instead of the run failing.
                if "." in name:
                    cls_name, attr = name.split(".")
                    owner = getattr(home, cls_name, None)
                    original = vars(owner).get(attr) if owner is not None else None
                    if original is not None:
                        self._patch(owner, attr, original, self._wrap(original, attr, layer))
                    continue
                original = getattr(home, name, None)
                if original is None:
                    continue
                wrapper = self._wrap(original, name, layer)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def layer_metrics(self):
        """Per layer: calls, self seconds (span minus child spans) and calls
        that raised; plus the counters and the time inside outermost calls."""
        durations = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(durations)
        inside = 0.0
        for index, parent in enumerate(self.parent):
            if parent < 0:
                inside += durations[index]
            else:
                child[parent] += durations[index]
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.errors"] = 0
        for index, code in enumerate(self.function):
            layer = self.functions[code][1]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += durations[index] - child[index]
        for index in self.failed:
            out[f"{self.functions[self.function[index]][1]}.errors"] += 1
        out.update(self.counts)
        out["inside_s"] = inside
        return out

    def write(self, path):
        """Write the spans as gzipped tab-separated lines."""
        failed = set(self.failed)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tfunction\tlayer\tstart\tend\tparent\titem\traised\n")
            for index, code in enumerate(self.function):
                name, layer = self.functions[code]
                fh.write(
                    f"{index}\t{name}\t{layer}\t{self.start[index]:.9f}\t{self.end[index]:.9f}\t"
                    f"{self.parent[index]}\t{self.item_id[index]}\t{int(index in failed)}\n"
                )
