"""Spans around every public ptskit function, for the traced run only.

A profile hook (``sys.setprofile``) opens a span when a public function
of a ptskit module is entered and closes it when the function returns
or raises.  The hook sees a call whichever name it was made through,
including the copies that ``from .x import f`` leaves in other modules,
and unlike a wrapper function it puts no extra frame on the stack, so
the program reaches the same recursion depth traced as untraced.
Nothing in ptskit is modified, and the hook is removed when the pass
ends.

A span has a name, a start, an end and a parent.  A call to a function
that already has an open span is re-entrant: it counts toward the
function's calls, but its time folds into the outermost span.  Self time
is a span's duration minus the durations of its child spans.  ``==`` and
``hash`` on the term classes are counted, not timed.
"""

from __future__ import annotations

import gzip
import inspect
import json
import os
import sys
import time
from array import array
from collections import Counter

MODULES = ("syntax", "reduction", "typecheck", "translate", "labeled", "corpus", "cli")


def _targets():
    """code object -> (module, function) for every public ptskit function."""
    import importlib

    targets = {}
    for short in MODULES:
        mod = importlib.import_module(f"ptskit.{short}")
        for name, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not name.startswith("_")
                and not inspect.isgeneratorfunction(obj)
            ):
                targets[obj.__code__] = (short, name)
    return targets


def _counted():
    """code object -> "eq"/"hash" for the term classes' dunder methods."""
    from ptskit import syntax

    counted = {}
    for cls in vars(syntax).values():
        if inspect.isclass(cls) and issubclass(cls, syntax.Expr) and cls is not syntax.Expr:
            for dunder, label in (("__eq__", "eq"), ("__hash__", "hash")):
                fn = cls.__dict__.get(dunder)
                if inspect.isfunction(fn):
                    counted[fn.__code__] = label
    return counted


class Tracer:
    """Records spans while installed; one instance per traced pass."""

    def __init__(self) -> None:
        from ptskit.reduction import UNDETERMINED

        self.targets = _targets()
        self.counted = _counted()
        self.names: list[tuple[str, str]] = []
        self._index: dict[tuple[str, str], int] = {}
        # spans, one slot each: function index, parent span, start, end
        self.span_fn = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()  # eq, hash and the outcome counters
        self._frames: list[tuple] = []  # (frame, key, outermost) per traced call
        self._spans: list[list] = []  # [span, start, child seconds] per open span
        self._open: Counter = Counter()
        self._undetermined = UNDETERMINED

    def _fn(self, key) -> int:
        idx = self._index.get(key)
        if idx is None:
            idx = self._index[key] = len(self.names)
            self.names.append(key)
        return idx

    def _hook(self, frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            key = self.targets.get(code)
            if key is None:
                label = self.counted.get(code)
                if label is not None:
                    self.counts[label] += 1
                return
            self.calls[key] += 1
            outermost = not self._open[key]
            self._open[key] += 1
            self._frames.append((frame, key, outermost))
            if outermost:
                span = len(self.span_fn)
                now = time.perf_counter()
                self.span_fn.append(self._fn(key))
                self.span_parent.append(self._spans[-1][0] if self._spans else -1)
                self.span_start.append(now)
                self.span_end.append(now)
                self._spans.append([span, now, 0.0])
        elif event == "return" and self._frames and self._frames[-1][0] is frame:
            now = time.perf_counter()
            _, key, outermost = self._frames.pop()
            self._open[key] -= 1
            if not outermost:
                return
            span, start, child = self._spans.pop()
            self.span_end[span] = now
            duration = now - start
            self.self_s[key] += duration - child
            if self._spans:
                self._spans[-1][2] += duration
            self._outcome(key, arg)

    def _outcome(self, key, result) -> None:
        name = key[1]
        if name == "beta_eq" and result is self._undetermined:
            self.counts["beta_eq.undetermined"] += 1
        elif name == "reachable" and result is True:
            self.counts["reachable.hits"] += 1
        elif name == "step_all" and result is not None:
            self.counts["step_all.unique"] += len(result)
        elif name == "enumerate_steps" and result is not None and self._parent_is("step_all"):
            self.counts["step_all.entries"] += len(result)

    def _parent_is(self, name: str) -> bool:
        return bool(self._frames) and self._frames[-1][1][1] == name

    def __enter__(self) -> Tracer:
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"functions": [".".join(k) for k in self.names]}) + "\n")
            for i in range(len(self.span_fn)):
                fh.write(
                    f"[{self.span_fn[i]},{self.span_parent[i]},"
                    f"{self.span_start[i]:.9f},{self.span_end[i]:.9f}]\n"
                )

    # -- per-layer metrics ---------------------------------------------------

    def _calls(self, *names: str) -> int:
        return sum(n for (_, fn), n in self.calls.items() if fn in names)

    def _self_ms(self, *names: str) -> float:
        return 1000 * sum(s for (_, fn), s in self.self_s.items() if fn in names)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        groups = {
            "parse_expr": ("parse_expr",),
            "print_expr": ("print_expr",),
            "instantiate": ("instantiate",),
            "binder": ("open_binder", "close_binder", "subst"),
            "free_vars": ("free_vars",),
            "normalize": ("normalize",),
            "whnf": ("whnf",),
            "beta_eq": ("beta_eq",),
            "step_all": ("step_all",),
            "reachable": ("reachable",),
            "reducts_within": ("reducts_within",),
            "infer_type": ("infer_type",),
            "classify": ("classify",),
            "translate_term": ("translate_term",),
            "translate_type": ("translate_type",),
            "tight_step_all": ("tight_step_all",),
        }
        for metric, fns in groups.items():
            out[f"{metric}.calls"] = (self._calls(*fns), "count")
            out[f"{metric}.self_ms"] = (self._self_ms(*fns), "ms")
        out["check_type.calls"] = (self._calls("check_type"), "count")
        for fn in (
            "wf_context", "check_translation", "check_reduction_preservation",
            "label_term", "labeled_infer", "run_report", "load_corpus_dir",
        ):
            out[f"{fn}.self_ms"] = (self._self_ms(fn), "ms")
        out["eq.calls"] = (self.counts["eq"], "count")
        out["hash.calls"] = (self.counts["hash"], "count")
        out["beta_eq.undetermined"] = (self.counts["beta_eq.undetermined"], "count")
        entries = self.counts["step_all.entries"]
        out["step_all.dedup_ratio"] = (self.counts["step_all.unique"] / entries if entries else 0.0, "ratio")
        reach = self._calls("reachable")
        out["reachable.hit_ratio"] = (self.counts["reachable.hits"] / reach if reach else 0.0, "ratio")
        for short in MODULES:
            layer_s = sum(s for (mod, _), s in self.self_s.items() if mod == short)
            out[f"{short}.self_ms"] = (1000 * layer_s, "ms")
        out["trace.spans"] = (len(self.span_fn), "count")
        return out
