"""Outside-in span tracer for the patrolsched modules.

The tracer wraps every public function of every ``patrolsched`` module at
every name it is bound to (``oracle.lower_bound`` is also bound as
``planner.lower_bound`` and ``cli.lower_bound``), so calls are recorded no
matter which module makes them.  A span is recorded only while an operation
is active, so the benchmark's own checks and set-up never show up.  Spans
live in memory as ``(name, start, end, parent, op)`` tuples; ``parent`` is
the index of the enclosing span or -1.  ``uninstall`` puts the original
functions back.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from types import ModuleType
from typing import Any, Callable


PACKAGE = "patrolsched"


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[ModuleType, str, Any]] = []

    # -- wrapping -----------------------------------------------------------

    @staticmethod
    def _modules() -> list[ModuleType]:
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _wrap(self, func: Callable, name: str) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return func(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
        return wrapper

    def install(self) -> None:
        """Wrap each public function at every module attribute bound to it."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = self._modules()
        wrappers: dict[int, Callable] = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__
                        and obj.__name__ == attr):
                    wrappers[id(obj)] = self._wrap(obj, f"{_short(mod.__name__)}.{attr}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------

    def finished(self) -> list[tuple[str, float, float, int, int]]:
        return [s for s in self.spans if s is not None]

    def summary(self, first: int = 0) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds,
        over the spans recorded from index ``first`` on.

        Self time is a span's duration minus the durations of its direct
        children; calls run on one thread, so children never overlap.
        Inclusive time counts only outermost spans of a name, so a
        recursive call is not counted twice.
        """
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans[first:]:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for index in range(first, len(self.spans)):
            span = self.spans[index]
            if span is None:
                continue
            name, start, end, parent, _ = span
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[index]
            if not self._has_ancestor(parent, name):
                row["total_s"] += end - start
        return dict(out)

    def _has_ancestor(self, parent: int, name: str) -> bool:
        while parent >= 0:
            span = self.spans[parent]
            if span is None:
                return False
            if span[0] == name:
                return True
            parent = span[3]
        return False

    def write(self, path: Path) -> None:
        """Write every finished span, one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write('["name", "start", "end", "parent", "op"]\n')
            for span in self.finished():
                fh.write(json.dumps(list(span)) + "\n")
