"""In-memory span tracer that wraps jointmotion callables where they are bound.

A span records (name, start, end, parent index, pass id). Wrapping is
installed for one traced pass and removed after it, so untraced passes in
the same process run the unmodified code.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, pass_id]
        self.counts = {}  # pass_id -> Counter
        self.held = {}  # pass_id -> {id: object}, kept alive so ids stay unique
        self.pass_id = None
        self.paused = False  # inside an opaque span: nested wrappers record nothing
        self._stack = []
        self._undo = []

    def count(self, name, amount=1):
        self.counts.setdefault(self.pass_id, Counter())[name] += amount

    def hold(self, obj):
        self.held.setdefault(self.pass_id, {})[id(obj)] = obj

    def wrap(self, module_name, attr_path, span, after=None, opaque=False):
        """Replace ``module.attr_path`` (``"Class.method"`` allowed) by a
        spanning wrapper. ``span`` is the span name, or a function of the
        call's (args, kwargs) returning it. ``after(tracer, args, kwargs,
        result)`` runs once the span has closed, to record counts. An
        ``opaque`` span records no spans or counts of the calls inside it."""
        owner = importlib.import_module(module_name)
        *outer, attr = attr_path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return func(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            name = span(args, kwargs) if callable(span) else span
            record = [name, time.perf_counter(), None, parent, tracer.pass_id]
            tracer.spans.append(record)
            tracer._stack.append(index)
            tracer.paused = opaque
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.paused = False
                record[2] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._undo.append((owner, attr, raw))

    def unwrap_all(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def pass_spans(self, pass_id):
        """(name, duration, self time, parent name) of every span of a pass."""
        children = Counter()
        for name, start, end, parent, pid in self.spans:
            if parent is not None:
                children[parent] += end - start
        out = []
        for index, (name, start, end, parent, pid) in enumerate(self.spans):
            if pid == pass_id:
                parent_name = self.spans[parent][0] if parent is not None else None
                out.append((name, end - start, end - start - children[index], parent_name))
        return out

    def write(self, path):
        """Write every span as one JSON line: name, start, end, parent, pass."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")
