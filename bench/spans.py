"""Spans around calls into localix, recorded from outside the package.

``install()`` wraps the public functions and classes of each traced
module.  A function is replaced in every ``localix`` module namespace
that binds it (``dsl`` imports ``dissolve`` by name, so the wrapper
goes there too); a class has its constructor and JSON methods patched
in place, which covers every namespace at once.  Spans and counts are
held in memory and written out by the caller when the run ends.

Self time of a span is its duration minus the time covered by its
direct child spans.  Summed over a module's spans this is the time
spent in that module's own code: ``FinLattice`` construction inside
``dissolve`` counts to ``lattice``, not to ``dissolution``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

MODULES = (
    "order", "lattice", "congruence", "dissolution", "posite", "presented",
    "sequent", "interp", "baire", "pruning", "dsl", "cli",
)

# Cheap, hot or self-recursive helpers (term constructors, evaluators,
# sort keys).  A wrapper on each call would cost more than the work it
# measures and would shift time into the caller's self time.
SKIP = {
    "order": {"canon_key"},
    "sequent": {"Term", "Derivation", "var", "nvar", "meet_t", "join_t", "neg", "term_key",
                "term_vars", "term_depth", "term_to_str", "eval_term"},
    "presented": {"var", "neg", "meet", "join", "term_vars", "eval_term",
                  "eval_term_in", "term_to_str"},
}

JSON_METHODS = ("to_json", "from_json")


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [span id, ns covered by child spans]
        self.spans: list[tuple] = []  # (id, parent id, key, start ns, end ns)
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self._next_id = 0

    def call(self, key: str, fn, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self.stack[-1][0] if self.stack else -1
        frame = [sid, 0]
        self.stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self.stack.pop()
            if self.stack:
                self.stack[-1][1] += t1 - t0
            self.calls[key] = self.calls.get(key, 0) + 1
            self.self_ns[key] = self.self_ns.get(key, 0) + (t1 - t0 - frame[1])
            self.spans.append((sid, parent, key, t0, t1))

    def count(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, key: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(key, fn, args, kwargs)

        return traced

    def summary(self) -> dict:
        """Per-key calls and self milliseconds, per-module self ms, counts."""
        self_ms = {k: v / 1e6 for k, v in self.self_ns.items()}
        modules: dict[str, float] = {}
        for k, v in self_ms.items():
            mod = k.split(".", 1)[0]
            modules[mod] = modules.get(mod, 0.0) + v
        return {"calls": dict(self.calls), "self_ms": self_ms, "module_self_ms": modules,
                "counts": dict(self.counts), "spans": len(self.spans)}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tkey\tstart_ns\tend_ns\n")
            for s in self.spans:
                fh.write("\t".join(map(str, s)) + "\n")


# per-operation cache sizes: metric -> (module, attribute path)
CACHES = {
    "dissolution.engines_cached": ("dissolution", "_ENGINES"),
    "congruence.tables_cached": ("congruence", "_TABLE_CACHE"),
    "sequent.interned_terms": ("sequent", "Term._interned"),
}


def cache(metric: str):
    """The cache behind ``metric``, or None once the package drops it."""
    mod, path = CACHES[metric]
    obj = sys.modules.get(f"localix.{mod}")
    for attr in path.split("."):
        obj = getattr(obj, attr, None)
    return obj


def count_caches(tracer: Tracer) -> None:
    """Add the current size of every cache, read from outside the package."""
    for metric in CACHES:
        c = cache(metric)
        tracer.count(metric, 0 if c is None else len(c))


def _patch_class(tracer: Tracer, mod: str, name: str, cls: type) -> None:
    key = f"{mod}.{name}"
    init = cls.__dict__.get("__init__")
    if init is not None:
        if name == "FinLattice":
            def init_counted(self, *args, **kwargs):
                init(self, *args, **kwargs)
                tracer.count("lattice.elements_built", len(self.elements))

            cls.__init__ = tracer.wrap(key, init_counted)
        else:
            cls.__init__ = tracer.wrap(key, init)
    for meth in JSON_METHODS:
        attr = cls.__dict__.get(meth)
        if isinstance(attr, staticmethod):
            setattr(cls, meth, staticmethod(tracer.wrap(f"{mod}.json", attr.__func__)))
        elif callable(attr):
            setattr(cls, meth, tracer.wrap(f"{mod}.json", attr))


def install() -> Tracer:
    """Wrap every traced module's public callables; call once per process."""
    import importlib

    for mod in MODULES:
        importlib.import_module(f"localix.{mod}")
    tracer = Tracer()
    namespaces = [m for n, m in sys.modules.items() if n == "localix" or n.startswith("localix.")]
    for mod in MODULES:
        module = sys.modules[f"localix.{mod}"]
        for name in getattr(module, "__all__", ()):
            if name in SKIP.get(mod, ()):
                continue
            obj = getattr(module, name)
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                _patch_class(tracer, mod, name, obj)
            elif inspect.isfunction(obj):
                wrapped = tracer.wrap(f"{mod}.{name}", obj)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is obj:
                            setattr(ns, attr, wrapped)
    return tracer
