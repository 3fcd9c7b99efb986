"""In-memory span tracing of ordview's layers, installed from outside.

The package source is never edited: ``install`` replaces each traced public
function with a wrapper, in its defining module and in every ``ordview``
module that imported it by name (``pipeline`` and ``cli`` do
``from .model import train, tune``). Calls made through a module attribute
(``_k.run_sgd``) see the wrapper too, because the attribute is replaced.

A span is ``[name, parent, start, end, error, counts]``; spans stay in a
list until the run ends and are summarised there.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path


def _run_sgd_counts(args, kwargs, out):
    # run_sgd(x, labels, targets, shuffles, ..., batch_size): one minibatch
    # update per batch of every epoch, the short final batch included.
    shuffles, batch_size = args[3], args[-1]
    epochs, n = shuffles.shape
    return {"steps": epochs * math.ceil(n / batch_size)}


def _rows_counts(args, kwargs, out):
    return {"rows": int(out.shape[0])}


def _candidates_counts(args, kwargs, out):
    n_views = len(args[0])
    n_candidates = kwargs.get("n_candidates", args[2] if len(args) > 2 else 1000)
    # the V one-hot vectors and the uniform vector are always evaluated
    return {"candidates": n_views + 1 + int(n_candidates)}


def _path_bytes(paths):
    return sum(Path(p).stat().st_size for p in paths)


def _load_bytes(args, kwargs, out):
    return {"bytes": _path_bytes(args[0].values())}


def _write_bytes(args, kwargs, out):
    return {"bytes": _path_bytes(out.values())}


# (metric prefix, module, function, counter). Each traced layer is a public
# function of the module that implements it.
TARGETS = (
    ("kernels", "_kernels", "run_sgd", _run_sgd_counts),
    ("kernels", "_kernels", "forward_batch", None),
    ("model", "model", "train", None),
    ("model", "model", "tune", None),
    ("model", "model", "predict_proba_batch", _rows_counts),
    ("model", "model", "stratified_folds", None),
    ("ensemble", "ensemble", "optimize_weights", _candidates_counts),
    ("metrics", "metrics", "evaluate", None),
    ("metrics", "metrics", "amae", None),
    ("core", "core", "stratified_split", None),
    ("core", "core", "stratified_resample", None),
    ("stats", "stats", "anova2", None),
    ("stats", "stats", "tukey_hsd", None),
    ("stats", "stats", "studentized_range_sf", None),
    ("stats", "stats", "studentized_range_quantile", None),
    ("pipeline", "pipeline", "run_experiment", None),
    ("pipeline", "pipeline", "generate_synthetic", None),
    ("pipeline", "pipeline", "write_views_csv", _write_bytes),
    ("pipeline", "pipeline", "load_views_csv", _load_bytes),
    ("pipeline", "pipeline", "read_grid_csv", None),
    ("cli", "cli", "main", None),
)

LAYER_NAMES = tuple(f"{prefix}.{fn}" for prefix, _, fn, _ in TARGETS)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        span = [name, parent, time.perf_counter(), 0.0, None, None]
        self.spans.append(span)
        return span

    def _close(self, span):
        span[3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                self._close(span)
            if counter is not None:
                try:
                    span[5] = counter(args, kwargs, out)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    # the function's signature changed; the layer stays timed
                    span[5] = {"uncounted": 1}
            return out

        return traced

    def install(self) -> list[str]:
        """Wrap every target that exists; returns the names that do not."""
        import ordview.cli  # noqa: F401  (loads every module cli imports)

        missing = []
        for prefix, mod_name, fn_name, counter in TARGETS:
            name = f"{prefix}.{fn_name}"
            try:
                module = importlib.import_module(f"ordview.{mod_name}")
                fn = getattr(module, fn_name)
            except (ImportError, AttributeError):
                missing.append(name)
                continue
            traced = self.wrap(name, fn, counter)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("ordview"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, traced)
        return missing

    def summary(self, root: str) -> dict:
        """Per-layer totals over the spans under the last span named ``root``.

        A layer's self time is its spans' duration minus the time their
        direct child spans cover; the root's self time is the part of it
        that no traced layer accounts for.
        """
        root_id = max(i for i, s in enumerate(self.spans) if s[0] == root)
        inside = {root_id}
        child_time: dict[int, float] = {}
        for i in range(root_id + 1, len(self.spans)):
            name, parent, start, end, _, _ = self.spans[i]
            if parent in inside:
                inside.add(i)
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        layers: dict[str, dict] = {}
        for i in sorted(inside):
            name, parent, start, end, error, counts = self.spans[i]
            entry = layers.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time.get(i, 0.0)
            entry["calls"] += 1
            if error is not None:
                entry[f"raised.{error}"] = entry.get(f"raised.{error}", 0) + 1
            for key, value in (counts or {}).items():
                entry[key] = entry.get(key, 0) + value
        tune_ids = {i for i in inside if self.spans[i][0] == "model.tune"}
        if tune_ids:
            # a fit is a train call made by tune; a diverged fit raised
            fits = [
                s
                for i, s in enumerate(self.spans)
                if i in inside and s[0] == "model.train" and s[1] in tune_ids
            ]
            layers["model.tune"]["fits"] = len(fits)
            layers["model.tune"]["diverged"] = sum(
                1 for s in fits if s[4] == "TrainingDiverged"
            )
        return layers

    def dump(self) -> list[dict]:
        return [
            {
                "name": name,
                "parent": parent,
                "start": start,
                "end": end,
                "error": error,
                "counts": counts,
            }
            for name, parent, start, end, error, counts in self.spans
        ]
