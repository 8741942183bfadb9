"""In-memory span recorder for the traced benchmark run.

Functions are wrapped where their callers look them up: a module attribute
(`nbmimo.runner.decode`, `nbmimo.decoder.fwht`) or a class attribute
(`CodeSpec.encode`).  Each call opens a span that records its name, its
parent span, and its start and end times; spans stay in memory until the
run ends and `dump` writes them out.  Self time is a span's duration minus
the time its child spans cover; busy time counts only spans not nested in a
span of the same name.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time
from collections import Counter
from contextlib import contextmanager

CHECK_SPAN = "bench.check"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.outermost: list[bool] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.outermost.append(self._open[name] == 0)
        self.ends.append(math.nan)
        self._stack.append(idx)
        self._open[name] += 1
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")
        self._open[self.names[idx]] -= 1

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    # -- wrapping --------------------------------------------------------
    def wrap(self, fn, name: str, observe=None):
        """`fn` inside a span; `observe(args, kwargs, result)` runs after it
        in a CHECK_SPAN, so checks never count toward the layer's time."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if observe is not None:
                with self.span(CHECK_SPAN):
                    observe(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_functions(self, modules, package: str, observers: dict) -> None:
        """Wrap every public function defined in `package` at each of the
        given modules that binds it by name."""
        wrapped: dict = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith(package + "."):
                    continue
                if obj not in wrapped:
                    name = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                    wrapped[obj] = self.wrap(obj, name, observers.get(name))
                self._patch(module, attr, wrapped[obj])

    def wrap_method(self, cls, attr: str, name: str, observe=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._patch(cls, attr, classmethod(self.wrap(raw.__func__, name, observe)))
        else:
            self._patch(cls, attr, self.wrap(raw, name, observe))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries -------------------------------------------------------
    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s and self_s."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        covered = [0.0] * len(dur)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += dur[i]
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += dur[i] - covered[i]
            if self.outermost[i]:
                row["busy_s"] += dur[i]
        return out

    def dump(self, path, header: dict) -> None:
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, name in enumerate(self.names):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "parent": self.parents[i],
                            "name": name,
                            "start": self.starts[i] - t0,
                            "end": self.ends[i] - t0,
                        }
                    )
                    + "\n"
                )
