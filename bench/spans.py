"""In-memory spans around shortcat's layer entry points, installed from outside.

The tracer never edits the package. It rebinds each function listed in LAYERS
in every ``shortcat.*`` module that holds it (``from .x import f`` copies the
binding, so patching the defining module alone is not enough), wraps the
``check_structure`` methods on their classes, records one span per call and
puts the originals back on ``uninstall``. Lookups made once per law instance
(``mors_into``, ``safe_subst``, ``sub_flavour``, ...) are deliberately not
wrapped: a span there would cost more than the work it measures.

Run as a script it traces one CLI call in a fresh interpreter:

    PYTHONPATH=src python3 bench/spans.py SPANS.json validate FILE

writes the spans of that call to SPANS.json and exits with the CLI's code.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

# layer -> (module, attribute); "Class.method" names a method.
LAYERS = {
    "cli.main": [("cli", "main")],
    "fileformat.parse": [("fileformat", "parse")],
    "fincat.validate_category": [("fincat", "validate_category")],
    "fincat.check_structure": [("fincat", "FinCategory.check_structure")],
    "shortmulti.validate": [("shortmulti", "validate_short_multicategory"),
                            ("shortmulti", "validate_multi_morphism")],
    "shortmulti.check_structure": [("shortmulti", "ShortMulticategory.check_structure")],
    "shortskew.validate": [("shortskew", "validate_short_skew"),
                           ("shortskew", "validate_skew_multi_morphism")],
    "shortskew.check_structure": [("shortskew", "ShortSkewMulticategory.check_structure")],
    "shortskew.embed_plain": [("shortskew", "embed_plain")],
    "skewmon.validate": [("skewmon", name) for name in (
        "validate_skew_monoidal", "validate_lax_functor", "validate_braiding",
        "validate_braided_functor", "validate_skew_closed", "validate_skew_closed_functor")],
    "skewmon.check_structure": [("skewmon", "SkewMonCategory.check_structure"),
                                ("skewmon", "SkewClosedCategory.check_structure")],
    "report.run_checks": [("report", "run_checks")],
    "report.render": [("report", "ValidationReport.render")],
    "classify.certify": [("classify", "certify")],
    "classify.find_binary_classifier": [("classify", "find_binary_classifier")],
    "classify.find_closed_structure": [("classify", "find_closed_structure")],
    "classify.derived_classifiers": [("classify", "derived_classifiers")],
    "classify.check_representable": [("classify", "check_representable")],
    "induce.induce": [("induce", name) for name in (
        "induce_short_skew", "induce_short_multi", "induce_closed_skew")],
    "transport.roundtrip": [("transport", "roundtrip_check")],
    "transport.construct": [("transport", name) for name in (
        "k_object", "ks_object", "kcl_object")],
    "transport.compare": [("transport", name) for name in (
        "compare_skew_monoidal", "skew_monoidal_equal", "skew_closed_equal")],
    "braiding.validate": [("braiding", "validate_short_braiding"),
                          ("braiding", "validate_braided_transport_functor")],
    "braiding.transport": [("braiding", "s_from_short_braiding"),
                           ("braiding", "short_braiding_from_s")],
}

# A number taken from each call of these layers, kept on the span as "n".
MEASURES = {
    "fileformat.parse": lambda args, result: len(args[0].encode("utf-8")),
    "shortmulti.validate": lambda args, result: result.total_checked(),
    "shortskew.validate": lambda args, result: result.total_checked(),
    "report.render": lambda args, result: len(args[0].failures),
    "classify.find_binary_classifier": lambda args, result: int(result is not None),
}

VALIDATIONS = ("fincat.validate_category", "shortmulti.validate", "shortskew.validate",
               "skewmon.validate", "braiding.validate")


class Tracer:
    """Collects spans as dicts: name, start, end, parent (index or -1),
    job (a number the benchmark bumps per job, shared by every span of that
    job) and n."""

    def __init__(self):
        self.spans: list[dict] = []
        self.job = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, layer, fn):
        measure = MEASURES.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = {"name": layer, "start": 0.0, "end": 0.0,
                    "parent": stack[-1] if stack else -1, "job": self.job, "n": None}
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if measure is not None:
                span["n"] = measure(args, result)
            return result
        return traced

    def install(self) -> None:
        wrappers = {}  # id of a wrapped function -> its wrapper
        for layer, targets in LAYERS.items():
            for modname, attr in targets:
                mod = importlib.import_module(f"shortcat.{modname}")
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    self._patch(cls, meth, self._wrap(layer, cls.__dict__[meth]))
                else:
                    fn = getattr(mod, attr)
                    wrappers[id(fn)] = self._wrap(layer, fn)
        for name, mod in list(sys.modules.items()):
            if name == "shortcat" or name.startswith("shortcat."):
                for key, value in list(vars(mod).items()):
                    if id(value) in wrappers:
                        self._patch(mod, key, wrappers[id(value)])

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def extend(self, spans: list[dict], job) -> None:
        """Append spans recorded in another process, re-basing parents."""
        base = len(self.spans)
        for span in spans:
            parent = span["parent"]
            self.spans.append(dict(span, job=job, parent=parent + base if parent >= 0 else -1))


def layer_metrics(spans: list[dict], passes: int) -> dict[str, float]:
    """Per-layer totals per pass over the job list.

    A layer's time counts only its outermost spans, so a layer that calls
    itself (k_object calls ks_object) is not counted twice. Self time is a
    span's duration minus the durations of its direct children."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child_time[span["parent"]] += span["end"] - span["start"]

    def ancestors(i):
        p = spans[i]["parent"]
        while p >= 0:
            yield spans[p]["name"]
            p = spans[p]["parent"]

    time_in, self_in, calls, n_in = {}, {}, {}, {}
    validations_in_roundtrip = 0
    for i, span in enumerate(spans):
        name, dur = span["name"], span["end"] - span["start"]
        up = set(ancestors(i))
        calls[name] = calls.get(name, 0) + 1
        self_in[name] = self_in.get(name, 0.0) + dur - child_time[i]
        if name not in up:
            time_in[name] = time_in.get(name, 0.0) + dur
            n_in[name] = n_in.get(name, 0) + (span["n"] or 0)
        if (name in VALIDATIONS and "transport.roundtrip" in up
                and not up.intersection(VALIDATIONS)):
            validations_in_roundtrip += 1

    def per_pass(table, name):
        return table.get(name, 0) / passes

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "fileformat.parse_s": per_pass(time_in, "fileformat.parse"),
        "fileformat.parse_mb_per_s": ratio(n_in.get("fileformat.parse", 0) / 1e6,
                                           time_in.get("fileformat.parse", 0.0)),
        "cli.main_self_s": per_pass(self_in, "cli.main"),
        "report.run_checks_s": per_pass(self_in, "report.run_checks"),
        "report.run_checks_calls": per_pass(calls, "report.run_checks"),
        "report.render_s": per_pass(time_in, "report.render"),
        "report.failures": per_pass(n_in, "report.render"),
        "fincat.validate_category_s": per_pass(time_in, "fincat.validate_category"),
        "fincat.validate_category_calls": per_pass(calls, "fincat.validate_category"),
        "skewmon.validate_s": per_pass(time_in, "skewmon.validate"),
        "skewmon.validate_calls": per_pass(calls, "skewmon.validate"),
        "classify.certify_s": per_pass(time_in, "classify.certify"),
        "classify.certify_calls": per_pass(calls, "classify.certify"),
        "classify.find_closed_structure_s": per_pass(time_in, "classify.find_closed_structure"),
        "classify.derived_classifiers_s": per_pass(time_in, "classify.derived_classifiers"),
        "classify.check_representable_s": per_pass(time_in, "classify.check_representable"),
        "classify.binary_searches": per_pass(calls, "classify.find_binary_classifier"),
        "classify.found_ratio": ratio(n_in.get("classify.find_binary_classifier", 0),
                                      calls.get("classify.find_binary_classifier", 0)),
        "shortskew.embed_plain_calls": per_pass(calls, "shortskew.embed_plain"),
        "induce.induce_s": per_pass(time_in, "induce.induce"),
        "induce.induce_calls": per_pass(calls, "induce.induce"),
        "transport.roundtrip_self_s": per_pass(self_in, "transport.roundtrip"),
        "transport.construct_s": per_pass(time_in, "transport.construct"),
        "transport.compare_s": per_pass(time_in, "transport.compare"),
        "transport.validations_per_roundtrip": ratio(validations_in_roundtrip,
                                                     calls.get("transport.roundtrip", 0)),
        "braiding.validate_s": per_pass(time_in, "braiding.validate"),
        "braiding.transport_s": per_pass(time_in, "braiding.transport"),
    }
    for layer in ("shortmulti", "shortskew"):
        out[f"{layer}.validate_s"] = per_pass(time_in, f"{layer}.validate")
        out[f"{layer}.validate_calls"] = per_pass(calls, f"{layer}.validate")
        out[f"{layer}.instances"] = per_pass(n_in, f"{layer}.validate")
        out[f"{layer}.check_structure_s"] = per_pass(time_in, f"{layer}.check_structure")
    return out


def main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    from shortcat import cli
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
