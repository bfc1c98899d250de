"""Outside-in tracer: wraps the public functions and methods of chosen
modules, records one span per call, and restores the originals.

A function is rebound under every name that refers to it in any module of
the package (``from .projection import leray_project`` in ``dynamics`` makes
``dynamics.leray_project`` an alias of ``projection.leray_project``), so a
call is traced whichever import path the caller used.  Methods are wrapped
on their class, which covers every instance.  Names resolved at call time
(``ops.laplacian``, function-local imports) see the wrapper too.

Spans are kept in memory as ``(name, start, end, parent)`` tuples, with
``parent`` the index of the enclosing span or -1, plus a per-span work count
for functions that have one.  The span stack assumes one thread, which is
how the benchmark runs the CLI (``--threads 1``).

Known limitation: private helpers are not wrapped, so their time lands in
their caller.  The single-path ``hs_norm_sq`` branch calls
``projection._project_periodic_fft`` directly, so that projection time counts
under ``noise``.
"""

from __future__ import annotations

import functools
import inspect
import time
from types import ModuleType

WRAPPED_MARK = "__perfbench_wrapped__"


def _public_callables(module: ModuleType):
    """(short name, owner, attribute, function) for each public function
    defined in ``module`` and each public plain method of its public classes.
    Exceptions, classmethods, staticmethods and properties are skipped."""
    out = []
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((attr, module, attr, obj))
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for mattr, mobj in vars(obj).items():
                if not mattr.startswith("_") and inspect.isfunction(mobj):
                    out.append((mattr, obj, mattr, mobj))
    return out


class Tracer:
    """Wraps callables of ``layers`` (short layer name -> module) and records
    spans while installed.

    ``aliases`` lists every module whose attributes may alias a wrapped
    function; all of them are rebound.  ``select`` (a set of span names such
    as ``"ensemble.run_ensemble"``) restricts wrapping to those names;
    ``skip`` excludes names.  ``work`` maps a span name to a function of the
    call's ``(args, kwargs)`` returning a count stored with the span.
    """

    def __init__(self, layers: dict[str, ModuleType], aliases: list[ModuleType], *,
                 select: set[str] | None = None, skip: frozenset[str] = frozenset(),
                 work: dict | None = None, clock=time.perf_counter):
        self.layers = layers
        self.aliases = aliases
        self.select = select
        self.skip = skip
        self.work = work or {}
        self.clock = clock
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def targets(self) -> list[tuple[str, object, str, object]]:
        """(span name, owner, attribute, original) of everything to wrap."""
        found = []
        for layer, module in self.layers.items():
            for short, owner, attr, fn in _public_callables(module):
                name = f"{layer}.{short}"
                if name in self.skip or (self.select is not None and name not in self.select):
                    continue
                found.append((name, owner, attr, fn))
        return found

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        count = self.work.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent,
                              count(args, kwargs) if count is not None else 0)

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        originals = {}
        for name, owner, attr, fn in self.targets():
            wrapper = self._wrap(name, fn)
            originals[id(fn)] = (fn, wrapper)
            self._rebind(owner, attr, fn, wrapper)
        for module in self.aliases:
            for attr, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._rebind(module, attr, obj, hit[1])

    def _rebind(self, owner, attr, original, wrapper) -> None:
        if getattr(owner, attr) is wrapper:
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every rebound name to its original object."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def installed_wrappers(modules: list[ModuleType]) -> list[str]:
    """Names in ``modules`` (module attributes and methods of their classes)
    that are currently bound to a tracer wrapper."""
    out = []
    for module in modules:
        for attr, obj in vars(module).items():
            if getattr(obj, WRAPPED_MARK, False):
                out.append(f"{module.__name__}.{attr}")
            elif inspect.isclass(obj):
                for mattr, mobj in vars(obj).items():
                    if getattr(mobj, WRAPPED_MARK, False):
                        out.append(f"{module.__name__}.{obj.__name__}.{mattr}")
    return out


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the durations of its
    direct children (children of one span never overlap on one thread)."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(t1 - t0) - child[i] for i, (_, t0, t1, _, _) in enumerate(spans)]


def has_ancestor(spans, i: int, name: str) -> bool:
    """Whether span ``i`` runs inside a span called ``name``."""
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False
