"""Outside-in tracer: times calls into the program's public functions.

The tracer patches functions from the benchmark's side and leaves the
program's source untouched. Each public module-level function of a layer
module (plus the methods in ``METHODS``) is wrapped once, and the wrapper is
bound in every namespace that bound the original, because modules import
names from each other (``influence`` and ``cli`` call ``top_items`` and
``drop_user`` through their own globals). Spans stay in memory and are
written out by the caller when the run ends. Self time is a span's duration
minus the time covered by its direct child spans, kept with a nesting stack.

Single-threaded by design: the benchmark runs every workload serially.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("data", "similarity", "recommender", "influence", "features",
          "predictor", "analysis", "artifacts", "cli")
METHODS = {"influence": ("LeaveOneOutEngine.distances_without",)}
ARTIFACT_FILES = ("artifacts.write_csv", "artifacts.write_sidecar",
                  "artifacts.write_tree_json")


def _changed_lists(counters, result):
    counters["lists_changed"] += int(np.count_nonzero(result))


def _nmf_fit(counters, model):
    iters = len(model.objective_history) - 1
    n, m = model.p.shape[0], model.q.shape[0]
    counters["nmf_iters"] += iters
    counters["nmf_early_stops"] += int(iters < model.n_iters)
    # From shapes: one n x m x f product for the starting objective, then
    # seven per iteration (two p @ q.T, four update products, objective).
    counters["nmf_gemm_flops"] += 2 * n * m * model.factors * (1 + 7 * iters)


def _pairs(counters, result):
    counters["similarity_pairs"] += int(result.size)


def _tree_nodes(counters, tree):
    counters["tree_nodes"] += 2 * tree.n_internal_nodes + 1


def _file_bytes(counters, path):
    counters["bytes_written"] += Path(path).stat().st_size


# Counters read from what a call returned, keyed by the traced name.
OBSERVERS = {
    "influence.LeaveOneOutEngine.distances_without": _changed_lists,
    "recommender.train_nmf": _nmf_fit,
    "similarity.user_similarity_matrix": _pairs,
    "similarity.item_distance_submatrix": _pairs,
    "predictor.fit_tree": _tree_nodes,
    **{name: _file_bytes for name in ARTIFACT_FILES},
}


def public_functions(module) -> dict:
    """name -> function for the public functions a module defines itself."""
    return {attr: obj for attr, obj in vars(module).items()
            if inspect.isfunction(obj) and not attr.startswith("_")
            and obj.__module__ == module.__name__}


class Tracer:
    """Wraps the layers of a package while installed; see module doc.

    ``spans`` holds ``(name, parent, start, end, self_s, failed)`` tuples,
    ``parent`` being the index of the enclosing span or -1.
    """

    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self.counters = {key: 0 for key in (
            "lists_changed", "nmf_iters", "nmf_early_stops",
            "nmf_gemm_flops", "similarity_pairs", "tree_nodes",
            "bytes_written")}
        self._stack: list = []
        self._patches: list = []
        self._thread = None

    def targets(self) -> dict:
        """Traced name -> (owner object, attribute, original function)."""
        out = {}
        for layer in LAYERS:
            module = getattr(self.package, layer)
            for attr, fn in public_functions(module).items():
                out[f"{layer}.{attr}"] = (module, attr, fn)
            for dotted in METHODS.get(layer, ()):
                cls_name, attr = dotted.split(".")
                cls = getattr(module, cls_name)
                out[f"{layer}.{dotted}"] = (cls, attr, vars(cls)[attr])
        return out

    def namespaces(self) -> list:
        return [self.package] + [getattr(self.package, layer)
                                 for layer in LAYERS]

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._thread = threading.get_ident()
        targets = self.targets()
        wrappers = {id(fn): self._wrap(name, fn)
                    for name, (_, _, fn) in targets.items()}
        for owner, attr, fn in targets.values():
            if owner in self.namespaces():
                continue  # module functions are rebound below
            self._patch(owner, attr, fn, wrappers[id(fn)])
        for ns in self.namespaces():
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patch(ns, attr, obj, wrappers[id(obj)])
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        observe = OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                raise RuntimeError("the tracer is single-threaded")
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(counters, result)
                failed = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[index] = (name, parent, start, end,
                                end - start - frame[1], failed)
        return traced

    def summary(self) -> dict:
        """Per traced name: calls, failed calls, self and total seconds."""
        out: dict = {}
        for name, _, start, end, self_s, failed in self.spans:
            row = out.setdefault(name, {"calls": 0, "failed": 0,
                                        "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["failed"] += int(failed)
            row["self_s"] += self_s
            row["total_s"] += end - start
        return out

    def nested_under(self, name: str, ancestor: str) -> list[int]:
        """Indices of ``name`` spans that have an ``ancestor`` span above."""
        found = []
        for index, span in enumerate(self.spans):
            if span[0] != name:
                continue
            parent = span[1]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][1]
            if parent >= 0:
                found.append(index)
        return found

    def write_spans(self, path) -> None:
        """One JSON array per line: name, parent, start, end, self, failed."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
