"""Spans and counts around the calls into each rmclass layer, recorded from
outside the package by wrapping its public callables in place.

A span is (id, name, parent id, start, end, busy).  ``busy`` equals
end - start, except for a generator, whose one span covers every step the
consumer pulled and whose busy time is the sum of those steps.  Spans stay in
memory; ``dump`` writes them out once, at the end.  Self times are derived
from the spans afterwards: a span's busy time minus the busy time of its
children.  Hot leaf calls (the subgroup sift) are counted, not spanned.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, parent, start, end, busy)
        self.counts = Counter()
        self._stack = [0]  # id 0 is the implicit root
        self._patches = []

    # -- recording ------------------------------------------------------------

    def _open(self):
        sid = len(self.spans) + 1
        self.spans.append(None)  # reserve the id; children get higher ids
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, name, parent, start, end, busy):
        self._stack.pop()
        self.spans[sid - 1] = (sid, name, parent, start, end, busy)

    def span(self, name, fn, *args, **kwargs):
        sid, parent = self._open()
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            self._close(sid, name, parent, start, end, end - start)

    # -- installing wrappers ----------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))

    def wrap(self, owner, attr, name, on_result=None):
        """Span every call of owner.attr.  ``name`` may be a function of the
        call's arguments; ``on_result(tracer, args, result)`` adds counts."""

        def wrapper(original):
            def traced(*args, **kwargs):
                label = name(*args, **kwargs) if callable(name) else name
                result = self.span(label, original, *args, **kwargs)
                if on_result is not None:
                    on_result(self, args, result)
                return result

            return traced

        self._patch(owner, attr, wrapper)

    def wrap_steps(self, owner, attr, name):
        """Span each step of a generator function separately (one span per
        value produced), e.g. one descent step per parent."""

        def wrapper(original):
            def traced(*args, **kwargs):
                it = original(*args, **kwargs)
                label = name(*args, **kwargs) if callable(name) else name
                while True:
                    sid, parent = self._open()
                    start = clock()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        end = clock()
                        self._close(sid, label, parent, start, end, end - start)
                    yield value

            return traced

        self._patch(owner, attr, wrapper)

    def wrap_stream(self, owner, attr, name, counter):
        """One span for a whole generator; busy time sums its steps and
        ``counter`` counts the values produced."""

        def wrapper(original):
            def traced(*args, **kwargs):
                it = original(*args, **kwargs)
                sid, parent = self._open()
                self._stack.pop()  # steps interleave with the consumer
                first = clock()
                busy = 0.0
                n = 0
                try:
                    while True:
                        self._stack.append(sid)
                        t0 = clock()
                        try:
                            value = next(it)
                        except StopIteration:
                            return
                        finally:
                            busy += clock() - t0
                            self._stack.pop()
                        n += 1
                        yield value
                finally:
                    self.spans[sid - 1] = (sid, name, parent, first, clock(), busy)
                    self.counts[counter] += n

            return traced

        self._patch(owner, attr, wrapper)

    def count_calls(self, owner, attr, counter):
        def wrapper(original):
            def counted(*args, **kwargs):
                self.counts[counter] += 1
                return original(*args, **kwargs)

            return counted

        self._patch(owner, attr, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------------

    def self_times(self):
        """Busy time of each span name minus that of its child spans."""
        spans = [sp for sp in self.spans if sp is not None]
        child_busy = defaultdict(float)
        for _sid, _name, parent, _s, _e, busy in spans:
            child_busy[parent] += busy
        out = defaultdict(float)
        for sid, name, _parent, _s, _e, busy in spans:
            out[name] += busy - child_busy[sid]
        return dict(out)

    def calls(self):
        return Counter(sp[1] for sp in self.spans if sp is not None)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)
