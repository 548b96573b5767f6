"""Outside-in tracing of the hsuq package.

The tracer wraps every public function of every ``hsuq`` module where it
is *looked up*: each module namespace that holds a reference to the
function gets the wrapper, not only the defining module. ``hsuq.tau``
calls ``score_m`` through its own global, so patching
``hsuq.kernels.score_m`` alone would see nothing. The public methods of
``PosteriorBatch`` are wrapped on the class.

Spans are aggregated in memory per function name (calls, total and self
time, rows of work) so hot calls such as ``gibbs_step`` cost one dict
update each. Self time is a span's duration minus the durations of the
wrapped spans it directly encloses. Observers may inspect a return value
after a span closes; their time is excluded from every enclosing span.
"""

import inspect
import math
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager

MODULES = ("kernels", "posterior", "tau", "credible", "hierarchical",
           "selection", "experiments")

# public PosteriorBatch methods, wrapped on the class
BATCH_METHODS = ("__init__", "cdf_rows", "radius_batch", "draw_weights",
                 "draw_matrix")


class SpanStat:
    __slots__ = ("calls", "total", "self_time", "rows", "durations")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.rows = 0
        self.durations = []

    def as_dict(self):
        return {"calls": self.calls, "total_s": self.total,
                "self_s": self.self_time, "rows": self.rows}


class Tracer:
    """In-memory span aggregator; inactive until :meth:`span` opens a root."""

    def __init__(self):
        self.stats = {}
        self.nested = Counter()      # (open ancestor name, span name) -> calls
        self.facts = Counter()       # observer tallies, e.g. boundary fits
        self.samples = {}            # observer values, e.g. chain ESS
        self._stack = []             # open frames: [name, child_s, excluded_s]
        self._active = False

    def stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStat()
        return st

    @contextmanager
    def span(self, name):
        """Root span around one operation; enables the wrappers inside."""
        frame = [name, 0.0, 0.0]
        self._stack.append(frame)
        was_active, self._active = self._active, True
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, time.perf_counter() - t0)
            self._active = was_active

    def _close(self, frame, wall):
        self._stack.pop()
        dur = wall - frame[2]
        st = self.stat(frame[0])
        st.calls += 1
        st.total += dur
        st.self_time += dur - frame[1]
        st.durations.append(dur)
        if self._stack:
            parent = self._stack[-1]
            parent[1] += dur
            parent[2] += frame[2]
            for anc in {f[0] for f in self._stack}:
                self.nested[(anc, frame[0])] += 1

    def call(self, name, fn, args, kwargs, rows_of, observe):
        if not self._active:
            return fn(*args, **kwargs)
        frame = [name, 0.0, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(frame, time.perf_counter() - t0)
        if rows_of is not None:
            self.stat(name).rows += rows_of(args, kwargs, result)
        if observe is not None:
            self._active = False
            t1 = time.perf_counter()
            try:
                observe(self, args, kwargs, result)
            finally:
                spent = time.perf_counter() - t1
                self._active = True
                if self._stack:
                    self._stack[-1][2] += spent
        return result

    def layer(self, module):
        """Spans of one module, by name."""
        prefix = module + "."
        return {k: v for k, v in self.stats.items() if k.startswith(prefix)}

    def nested_calls(self, ancestor, module):
        prefix = module + "."
        return sum(c for (a, n), c in self.nested.items()
                   if a == ancestor and n.startswith(prefix))

    def summary(self):
        return {k: v.as_dict() for k, v in sorted(self.stats.items())}


def _wrap(tracer, name, fn, rows_of=None, observe=None):
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, rows_of, observe)
    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


def public_functions(package):
    """{function object: span name} for every public function of MODULES."""
    found = {}
    for short in MODULES:
        mod = getattr(package, short)
        for attr in getattr(mod, "__all__", ()):
            obj = getattr(mod, attr)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                found[obj] = f"{short}.{attr}"
    return found


@contextmanager
def installed(tracer, package, rows=None, observers=None):
    """Patch every lookup site of the public functions; restore on exit.

    ``rows`` and ``observers`` map span names to callables
    ``rows_of(args, kwargs, result) -> int`` and
    ``observe(tracer, args, kwargs, result)``.
    """
    rows = rows or {}
    observers = observers or {}
    targets = public_functions(package)
    wrappers = {fn: _wrap(tracer, name, fn, rows.get(name), observers.get(name))
                for fn, name in targets.items()}
    undo = []
    prefix = package.__name__
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == prefix or modname.startswith(prefix + ".")):
            continue
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in wrappers:
                undo.append((mod, attr, val))
                setattr(mod, attr, wrappers[val])
    cls = package.posterior.PosteriorBatch
    for meth in BATCH_METHODS:
        orig = cls.__dict__[meth]
        name = f"posterior.PosteriorBatch.{meth}"
        undo.append((cls, meth, orig))
        setattr(cls, meth, _wrap(tracer, name, orig, rows.get(name), observers.get(name)))
    try:
        yield
    finally:
        for owner, attr, val in reversed(undo):
            setattr(owner, attr, val)


@contextmanager
def capturing(module, attr, sink):
    """Append every return value of ``module.attr`` to ``sink``."""
    orig = getattr(module, attr)

    def hook(*args, **kwargs):
        result = orig(*args, **kwargs)
        sink.append(result)
        return result

    setattr(module, attr, hook)
    try:
        yield
    finally:
        setattr(module, attr, orig)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def ratio(num, den):
    return num / den if den > 0 and math.isfinite(den) else 0.0
