"""Outside-in span tracer for the tightpoly benchmark.

The program carries no instrumentation. The tracer finds each target
function by object identity and replaces it at every name that binds it in a
`tightpoly` module namespace (methods: on their class), so a call through any
import path is recorded. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable

PACKAGE = "tightpoly"


class Tracer:
    """Wraps target functions and records one span per call.

    `targets` maps "module.function" or "module.Class.method" (relative to
    the package) to None or to a pair (count name, `f(args, result) -> int`);
    each call adds `f`'s value to that count. A target that cannot be found
    is listed in `missing` and left out.
    """

    def __init__(self, targets: dict[str, tuple[str, Callable[[tuple, Any], int]] | None]):
        self.targets = targets
        # (id, name, start, end, parent id or -1, item id, thread id)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.item: Any = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- install / uninstall -------------------------------------------------

    def install(self, only=None) -> None:
        """Wrap every target found, or only those named in `only`; targets
        that no longer exist are listed in `missing` either way."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for target, counter in self.targets.items():
            module_name, *path = target.split(".")
            owner = sys.modules.get(f"{PACKAGE}.{module_name}")
            for attr in path[:-1]:
                owner = getattr(owner, attr, None)
            original = getattr(owner, path[-1], None) if owner is not None else None
            if original is None or not callable(original):
                self.missing.append(target)
                continue
            if only is not None and target not in only:
                continue
            wrapper = self._wrap(target, original, counter)
            if isinstance(owner, type):
                self._rebind(owner, path[-1], wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, name, wrapper)

    def _rebind(self, owner: object, name: str, wrapper: Callable) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (sid, name, start, end, parent, self.item, threading.get_ident())
            )

    def _wrap(self, name: str, fn: Callable, counter) -> Callable:
        span = self.span
        counts = self.counts

        def traced(*args, **kwargs):
            with span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                count_name, count = counter
                counts[count_name] += count(args, result)
            return result

        return functools.wraps(fn)(traced)

    # -- results -------------------------------------------------------------

    def per_function(self) -> dict[str, dict[str, float]]:
        """Self time, total time and calls per span name.

        Self time is a span's duration minus the durations of its direct
        children; children of one span never overlap because each thread
        keeps its own stack.
        """
        child_time: dict[int, float] = defaultdict(float)
        for _sid, _name, start, end, parent, _item, _tid in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for sid, name, start, end, _parent, _item, _tid in self.spans:
            row = out.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[sid]
            row["calls"] += 1
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, item, tid in self.spans:
                fh.write(json.dumps([sid, name, start, end, parent, item, tid]) + "\n")
