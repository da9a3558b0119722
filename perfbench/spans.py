"""Spans recorded from outside the program, around calls into its layers.

:class:`Recorder` replaces a public function or method with a wrapper
that records one span per call that returns — name, start, end, the
span that was open when it was called (its parent), and optional
attributes — and puts the original back on :meth:`Recorder.restore`.
A call that raises records no span.  Nothing inside
``src/`` changes: layers are seen only at the boundaries the benchmark
patches.  Spans stay in memory until :meth:`Recorder.dump` writes them
as JSON lines.

The open span is tracked in a :class:`contextvars.ContextVar`, so
nesting is per thread and per asyncio task: a span opened on the
scheduler thread never becomes the parent of one opened on the event
loop.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import sys
import time
from typing import Callable

_OPEN: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_open_span", default=None
)

#: ``before(args) -> attrs`` runs before the call; ``after(args, result,
#: attrs)`` may add to ``attrs`` once the call returned.
Before = Callable[[tuple], dict]
After = Callable[[tuple, object, dict], None]


class Recorder:
    """Patches calls, records their spans, and undoes the patches."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    def patch(
        self,
        owner: object,
        attr: str,
        name: str,
        before: Before | None = None,
        after: After | None = None,
    ) -> None:
        """Record a ``name`` span around every call of ``owner.attr``."""
        self.patch_with(owner, attr, self._wrap(getattr(owner, attr), name, before, after))

    def patch_with(self, owner: object, attr: str, replacement: object) -> None:
        """Put ``replacement`` in place of ``owner.attr`` until :meth:`restore`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_bindings(self, module: object, attr: str, name: str) -> None:
        """Patch ``module.attr`` in every loaded ``repro`` module bound to it.

        For functions imported by name (``from m import f``), where
        patching the defining module alone would miss the callers.
        """
        original = getattr(module, attr)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self.patch(loaded, key, name)

    def restore(self) -> None:
        """Put every patched original back (last patched, first restored)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in list(self.spans):
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")

    def _record(
        self, sid: int, parent: int | None, name: str, start: float, end: float, attrs: dict
    ) -> None:
        # ``attrs`` itself becomes the span, so a callback holding it (a
        # future's completion time) can still add to it later.
        attrs.update(sid=sid, parent=parent, name=name, start=start, end=end)
        self.spans.append(attrs)

    def _wrap(self, fn, name: str, before: Before | None, after: After | None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(self._ids)
            attrs = before(args) if before is not None else {}
            parent = _OPEN.get()
            token = _OPEN.set(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _OPEN.reset(token)
            if after is not None:
                after(args, result, attrs)
            self._record(sid, parent, name, start, end, attrs)
            return result

        return wrapper


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]
