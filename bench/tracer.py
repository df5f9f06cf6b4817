"""Spans and folded call counts recorded from outside the program.

The benchmark wraps public functions of the package in place and puts
the originals back afterwards; nothing in the package knows it is being
traced. Two kinds of wrapper exist:

  span  a coarse call (a task, a trainer run, an aggregation call, a
        writer). Each call becomes one span with an id, the id of the
        span it ran inside, start, end and self time.
  hot   a per-step call that runs 1e5-1e6 times per workload run. Calls
        are folded into a count, total and self time and a log-bucket
        duration histogram per (enclosing span, name), so memory stays
        bounded however long the run is.

Self time is a call's duration minus the time its wrapped children
cover. The program is single-threaded, so children never overlap and
the covered time is the sum of their durations.
"""

import math
import sys
import time

# 32 buckets per factor of e: a quantile read from the histogram is
# within about 3% of the exact sample quantile.
_BUCKETS_PER_E = 32.0


def _bucket(seconds: float) -> int:
    return int(math.floor(math.log(max(seconds, 1e-12)) * _BUCKETS_PER_E))


def _bucket_value(bucket: int) -> float:
    return math.exp((bucket + 0.5) / _BUCKETS_PER_E)


class Fold:
    """Folded statistics of one hot name under one enclosing span."""

    __slots__ = ("calls", "total_s", "self_s", "hist")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.hist: dict[int, int] = {}


def hist_quantile(hist: dict[int, int], q: float) -> float:
    """Duration (seconds) at quantile q of a merged bucket histogram."""
    total = sum(hist.values())
    if total == 0:
        return 0.0
    rank = q * (total - 1)
    seen = 0
    for bucket in sorted(hist):
        seen += hist[bucket]
        if seen > rank:
            return _bucket_value(bucket)
    return _bucket_value(max(hist))


class Tracer:
    """Collects spans and folds for one benchmark process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.trace_id = ""
        self.spans: list[dict] = []  # finished spans, in end order
        self.folds: dict[tuple[int, str], Fold] = {}
        # open calls, innermost last: [start, time covered by children],
        # and for spans also [.., id, name, id of the enclosing span]
        self._stack: list[list] = []
        self._span = 0  # id of the innermost open span, 0 at the root
        self._next_id = 1

    def begin(self, name: str) -> list:
        sid = self._next_id
        self._next_id += 1
        frame = [self.clock(), 0.0, sid, name, self._span]
        self._stack.append(frame)
        self._span = sid
        return frame

    def end(self, frame: list, error: str | None = None, attrs: dict | None = None) -> None:
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError("span ended out of order")
        start, covered, sid, name, parent = frame
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        self._span = parent
        self.spans.append({
            "trace": self.trace_id,
            "id": sid,
            "parent": parent,
            "name": name,
            "start": start,
            "end": end,
            "self_s": duration - covered,
            "error": error,
            "attrs": attrs or {},
        })

    def wrap_span(self, name: str, fn, on_return=None):
        tracer = self

        def span_wrapper(*args, **kwargs):
            frame = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end(frame, error=type(exc).__name__)
                raise
            tracer.end(frame, attrs=on_return(result) if on_return else None)
            return result

        span_wrapper.__wrapped__ = fn
        span_wrapper.__bench_traced__ = name
        return span_wrapper

    def wrap_hot(self, name: str, fn):
        tracer = self
        clock = self.clock
        stack = self._stack
        folds = self.folds

        def hot_wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                key = (tracer._span, name)
                fold = folds.get(key)
                if fold is None:
                    fold = folds[key] = Fold()
                fold.calls += 1
                fold.total_s += duration
                fold.self_s += duration - frame[1]
                bucket = _bucket(duration)
                fold.hist[bucket] = fold.hist.get(bucket, 0) + 1

        hot_wrapper.__wrapped__ = fn
        hot_wrapper.__bench_traced__ = name
        return hot_wrapper

    def to_json(self) -> dict:
        """The whole trace as plain data, for writing once at the end."""
        return {
            "spans": self.spans,
            "folds": [
                {
                    "parent": parent,
                    "name": name,
                    "calls": f.calls,
                    "total_s": f.total_s,
                    "self_s": f.self_s,
                    "hist": {str(b): c for b, c in sorted(f.hist.items())},
                }
                for (parent, name), f in self.folds.items()
            ],
        }


class Patch:
    """Replaces attributes with traced wrappers and puts them back.

    A module-level function is replaced under every name it is bound to
    in the package's loaded modules, because modules that did
    `from .model import accuracy` call their own binding. Methods are
    replaced on the class that defines them.
    """

    def __init__(self, package: str):
        self.package = package
        self._saved: list[tuple[object, str, object]] = []

    def _modules(self):
        prefix = self.package + "."
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(prefix))
        ]

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, module, attr: str, make_wrapper) -> None:
        """Wrap module.attr and every alias of it, if it exists."""
        original = module.__dict__.get(attr)
        if original is None:
            return
        wrapper = make_wrapper(original)
        for mod in self._modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper)

    def method(self, cls, attr: str, make_wrapper) -> None:
        """Wrap a method (plain or classmethod) defined on cls itself, if any."""
        original = cls.__dict__.get(attr)
        if original is None:
            return
        if isinstance(original, classmethod):
            self._set(cls, attr, classmethod(make_wrapper(original.__func__)))
        else:
            self._set(cls, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def leftovers(self) -> list[str]:
        """Names in the package still bound to a traced wrapper."""
        found = []
        for mod in self._modules():
            for name, value in vars(mod).items():
                if _is_wrapper(value):
                    found.append(f"{mod.__name__}.{name}")
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        if _is_wrapper(getattr(member, "__func__", member)):
                            found.append(f"{mod.__name__}.{name}.{attr}")
        return found


def _is_wrapper(value) -> bool:
    # read __dict__ directly: module objects may define a __getattr__
    return callable(value) and "__bench_traced__" in getattr(value, "__dict__", {})
