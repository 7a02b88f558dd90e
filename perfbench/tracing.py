"""In-memory spans around calls into extinf, and the self-time arithmetic.

A span is ``[name, parent, start, end, attrs]``: ``parent`` indexes the
enclosing span in the same tree (-1 for the root), times come from
``time.perf_counter`` and ``attrs`` is None or a dict of counts taken from
the call's arguments and result.  When a root span closes, its tree moves to
``Tracer.finished`` for the caller to drain, so memory grows with one request,
not with the run.
"""

import time
from contextlib import contextmanager

__all__ = ["Tracer", "installed", "self_times"]


class Tracer:
    """Records nested spans; a closed root and its descendants form one tree."""

    def __init__(self):
        self._tree = []
        self._open = []
        self.finished = []

    def open(self, name) -> list:
        parent = self._open[-1][0] if self._open else -1
        span = [name, parent, 0.0, 0.0, None]
        self._open.append((len(self._tree), span))
        self._tree.append(span)
        span[2] = time.perf_counter()
        return span

    def close(self, span):
        span[3] = time.perf_counter()
        if self._open.pop()[1] is not span:
            raise RuntimeError("spans must close in the order they opened")
        if not self._open:
            self.finished.append(self._tree)
            self._tree = []

    @contextmanager
    def span(self, name):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def drain(self) -> list:
        trees, self.finished = self.finished, []
        return trees


def _traced(tracer, function, name_of, attrs_of):
    def traced(*args, **kwargs):
        span = tracer.open(name_of(args))
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.close(span)
        if attrs_of is not None:
            span[4] = attrs_of(args, result)
        return result

    return traced


@contextmanager
def installed(tracer, targets):
    """Replace module-level names by tracing wrappers, restoring them on exit.

    targets holds ``(module, attribute, name_of, attrs_of)``: ``name_of(args)``
    gives the span name and ``attrs_of(args, result)``, if not None, its
    counts.  Callers that look the name up in the module at call time are
    traced.
    """
    saved = []
    try:
        for module, attribute, name_of, attrs_of in targets:
            original = getattr(module, attribute)
            saved.append((module, attribute, original))
            setattr(module, attribute, _traced(tracer, original, name_of, attrs_of))
        yield tracer
    finally:
        for module, attribute, original in reversed(saved):
            setattr(module, attribute, original)


def self_times(tree) -> list:
    """Each span's duration minus the part of its interval its children cover."""
    children = [[] for _ in tree]
    for index, span in enumerate(tree):
        if span[1] >= 0:
            children[span[1]].append(index)
    result = []
    for index, (_, _, start, end, _) in enumerate(tree):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted((tree[c][2], tree[c][3]) for c in children[index]):
            child_start = max(child_start, reach)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        result.append((end - start) - covered)
    return result
