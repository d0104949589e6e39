"""Timing shims for the traced benchmark run.

The benchmark never edits the program.  A traced run wraps public
callables of each layer in a shim that records one span per call
(layer, start, end, parent span, thread) in memory, plus per-call
counts.  Self time per layer is derived from the spans afterwards: a
span's duration minus the part of it its child spans cover.

A function imported by name is bound in every module that imported
it, so :meth:`Tracer.install` rebinds the shim wherever the original
object is bound in a loaded ``repro`` module, not only where it is
defined.  Methods are patched once on their class.

Shims must be installed before the objects that capture bound methods
are built (a serving shard binds ``tracker.observe`` at construction).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs import MetricsRegistry, get_registry, registry_state_delta

__all__ = ["TARGETS", "Tracer", "self_times"]


def _n_records(args, kwargs, result):
    return len(args[1] if len(args) > 1 else kwargs["records"])


#: (module, callable, layer, count name, count function).  The count
#: function gets (args, kwargs, result) and returns the amount to add.
TARGETS: List[Tuple[str, str, str, Optional[str], Optional[Callable]]] = [
    ("repro.datasets.generate", "generate_corpus", "datasets.genx",
     "sessions", lambda a, k, r: len(r.sessions)),
    ("repro.capture.reconstruction", "SessionReconstructor.reconstruct",
     "capture.reconstruction", "sessions_out", lambda a, k, r: len(r)),
    ("repro.datasets.preparation", "records_from_reconstruction",
     "datasets.preparation", None, None),
    ("repro.datasets.preparation", "group_cleartext_sessions",
     "datasets.preparation", None, None),
    ("repro.core.featurex.engine", "build_matrix", "core.featurex",
     "rows", lambda a, k, r: len(r)),
    ("repro.ml.selection", "CfsSubsetSelector.select", "ml.selection.cfs",
     None, None),
    ("repro.ml.forest", "RandomForestClassifier.fit", "ml.forest.fit",
     "fits", lambda a, k, r: 1),
    ("repro.ml.forest", "RandomForestClassifier.predict_proba",
     "ml.forest.predict", "rows", lambda a, k, r: len(r)),
    ("repro.ml.crossval", "cross_validate", "ml.crossval",
     "folds", lambda a, k, r: k.get("n_splits", a[3] if len(a) > 3 else 10)),
    ("repro.core.switching", "SwitchDetector.scores", "timeseries.cusum",
     None, None),
    ("repro.core.switching", "SwitchDetector.calibrate", "timeseries.cusum",
     None, None),
    ("repro.core.framework", "QoEFramework.diagnose",
     "core.framework.diagnose", "rows", _n_records),
    ("repro.realtime.tracker", "OnlineSessionTracker.observe",
     "realtime.tracker", None, None),
    ("repro.realtime.tracker", "OnlineSessionTracker.flush",
     "realtime.tracker", None, None),
    ("repro.online.early", "EarlyPredictor.predict_partial",
     "online.early.predict", None, None),
    ("repro.online.snapshot", "StreamingSessionState.stall_vector",
     "online.snapshot", None, None),
    ("repro.online.snapshot", "StreamingSessionState.representation_vector",
     "online.snapshot", None, None),
    ("repro.serving.framing", "FrameStream.send", "serving.framing",
     None, None),
    ("repro.serving.framing", "encode_frame", "serving.framing",
     "bytes", lambda a, k, r: len(r)),
]


class Tracer:
    """In-memory span recorder and shim installer."""

    def __init__(self) -> None:
        #: (span id, layer, start, end, parent id or -1, thread id)
        self.spans: List[Tuple[int, str, float, float, int, int]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        #: Shims record only while active, so untimed work around the
        #: measured window (inputs, references) leaves no spans.
        self.active = False
        #: Deltas of the program's own ``repro_*`` metrics over every
        #: active window, child-process registries included.
        self.registry = MetricsRegistry()
        self._before = None

    @contextmanager
    def window(self):
        """Record spans and registry deltas for the enclosed block."""
        self._before = get_registry().to_state()
        self.active = True
        try:
            yield self
        finally:
            self.active = False
            self.registry.merge(
                MetricsRegistry.from_state(
                    registry_state_delta(get_registry().to_state(), self._before)
                )
            )

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn: Callable, count_name=None, count=None):
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (span_id, layer, start, end, parent, threading.get_ident())
                )
            with tracer._lock:
                tracer.counts[layer + ".calls"] += 1
                if count is not None:
                    tracer.counts[f"{layer}.{count_name}"] += count(
                        args, kwargs, result
                    )
            return result

        return shim

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self, targets=TARGETS) -> "Tracer":
        for module_name, qualname, layer, count_name, count in targets:
            module = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                self._set(
                    cls, attr,
                    self.wrap(layer, cls.__dict__[attr], count_name, count),
                )
                continue
            original = getattr(module, qualname)
            shim = self.wrap(layer, original, count_name, count)
            for name, loaded in list(sys.modules.items()):
                if not name.startswith("repro") or loaded is None:
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        self._set(loaded, attr, shim)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "layer", "start", "end", "parent", "thread"],
                    "spans": self.spans,
                },
                fh,
            )


def self_times(spans) -> Tuple[Dict[str, float], Dict[str, float], Dict[int, float]]:
    """Per-layer self and top-level inclusive time, and per-span self time.

    Inclusive time counts only spans with no ancestor of the same
    layer, so a nested call into the same layer is not counted twice.
    """
    by_id = {s[0]: s for s in spans}
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span[4] >= 0:
            child_time[span[4]] += span[3] - span[2]
    per_span = {s[0]: (s[3] - s[2]) - child_time[s[0]] for s in spans}
    self_by_layer: Dict[str, float] = defaultdict(float)
    total_by_layer: Dict[str, float] = defaultdict(float)
    for span in spans:
        self_by_layer[span[1]] += per_span[span[0]]
        ancestor = by_id.get(span[4])
        while ancestor is not None and ancestor[1] != span[1]:
            ancestor = by_id.get(ancestor[4])
        if ancestor is None:
            total_by_layer[span[1]] += span[3] - span[2]
    return dict(self_by_layer), dict(total_by_layer), per_span
