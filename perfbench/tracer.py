"""Outside-in span tracer for the `ifir_cdma` modules.

`Tracer.install` replaces every public function of the given modules
with a timing wrapper, and does the same for every module attribute that
is a copy of such a function bound by name (`adaptive.build_re_matrix`,
`mmse.build_re_matrix`, `harness.detect`, `cli.run_campaign`, ...), so a
call is caught whichever name it goes through.  A function keeps one
span name, `<defining module>.<function>`, under all of its names.
`uninstall` restores the originals.  The program itself is not edited.

A span records its name, start, end and parent (the innermost enclosing
span).  Spans live in flat integer arrays while the run lasts and are
written out once, by `save`, when it ends.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import time
import types
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.counters: Counter = Counter()
        self.kept: dict[str, list] = defaultdict(list)

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one campaign."""
        idx = self._open(self._name_id(name))
        try:
            yield idx
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str, keep: bool):
        nid = self._name_id(name)
        kept = self.kept[name]
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if keep:
                kept.append(result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, modules, package: str, keep=()) -> None:
        """Wrap every public function of `modules` defined in `package`.

        Names in `keep` (span names) also keep each returned object in
        `self.kept[name]`, for reading counters off it after the run.
        Generator functions are left alone: a span around one would time
        only the creation of the generator.
        """
        wrappers = {}
        for module in modules:
            for attr, obj in sorted(vars(module).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or not obj.__module__.startswith(package + ".")
                        or inspect.isgeneratorfunction(obj)):
                    continue
                if obj not in wrappers:
                    name = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                    wrappers[obj] = self._wrap(obj, name, name in keep)
                self._patch(module, attr, wrappers[obj])

    def after_call(self, owner, attr: str, hook) -> None:
        """Run `hook(tracer, self_obj)` after every call of method `owner.attr`."""
        method = getattr(owner, attr)

        @functools.wraps(method)
        def hooked(obj, *args, **kwargs):
            result = method(obj, *args, **kwargs)
            hook(self, obj)
            return result

        self._patch(owner, attr, hooked)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, *args, **kwargs):
        self.install(*args, **kwargs)
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ----------------------------------------------------------

    def table(self):
        """Spans as numpy arrays: name id, start, end, parent, root, duration, self time (ns)."""
        import numpy as np

        name, start, end, parent = (np.array(a, dtype=np.int64)
                                    for a in (self.name, self.start, self.end, self.parent))
        dur = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=dur.size)
        root = np.arange(dur.size)
        for i in np.flatnonzero(has_parent):   # a parent always precedes its children
            root[i] = root[parent[i]]
        return {"name": name, "start": start, "end": end, "parent": parent,
                "root": root, "dur": dur, "self": dur - child_time}

    def save(self, path, **extra) -> None:
        """Write every span, and `extra` arrays/strings, to one .npz file."""
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names),
            spans=np.stack([np.array(a, dtype=np.int64)
                            for a in (self.name, self.start, self.end, self.parent)], axis=1),
            **extra)
