"""In-memory span tracer that wraps a program's functions from outside.

The program under test is not edited.  Each traced function is replaced,
in every module namespace that binds it, by a wrapper that records a span
(name, start, end, enclosing span) and optional counters.  Special methods
are replaced on their class.  Spans stay in memory; the caller writes them
out once the traced work has finished.
"""

from __future__ import annotations

import functools
import time
from types import ModuleType


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        # (name id, start ns, end ns, index of the enclosing span or -1)
        self.spans: list[tuple[int, int, int, int] | None] = []
        self.counters: dict[tuple[str, str], int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None, materialize=False):
        """Return `fn` wrapped in a span named `name`.

        `count` maps counter names to functions of (args, result) that
        return the call's increment.  `materialize` turns a one-shot
        iterable first argument into a tuple first, so a counter can take
        its length.
        """
        name_id = len(self.names)
        self.names.append(name)
        count = count or {}
        for key in count:
            self.counters[name, key] = 0
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if materialize and not isinstance(args[0], (list, tuple)):
                args = (tuple(args[0]),) + args[1:]
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            for key, increment in count.items():
                self.counters[name, key] += increment(args, result)
            return result

        return traced

    def patch_function(self, modules, owner: ModuleType, attr: str,
                       name: str, replacement=None, **options) -> None:
        """Rebind every attribute of `modules` that is `owner.attr`.

        Modules import with `from .x import f`, so replacing `x.f` alone
        would miss every call made through those other bindings.
        `replacement`, when given, is traced in place of the original.
        """
        original = getattr(owner, attr)
        traced = self.wrap(name, replacement or original, **options)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, value))
                    setattr(module, key, traced)

    def patch_method(self, cls: type, attr: str, name: str,
                     **options) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, **options))

    def restore(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def totals(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, total ns and self ns.

        Self time is a span's duration minus the durations of its direct
        children; calls nest strictly, so children never overlap.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {name: {"calls": 0, "total_ns": 0, "self_ns": 0}
               for name in self.names}
        for index, (name_id, start, end, _) in enumerate(self.spans):
            row = out[self.names[name_id]]
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child_ns[index]
        return out
