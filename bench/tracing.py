"""Traced runs: spans and counts at every layer boundary, from outside.

Tracer.install() wraps every function named in the ``__all__`` of each
layer module, plus ClosedForm.evaluate, and rebinds the wrapper under every
sigmaprime module name that referred to the original, so calls between
modules are traced too.  Poly4.__call__ is counted but not spanned: it runs
millions of times and a span each would swamp what it measures.  Install
only in a process that will not run untraced work afterwards (the benchmark
installs in forked children); the package source is never touched.

A span is (request, name, start, end, parent).  Self time is a span's
duration minus the part of it covered by its child spans.  lru_cache hits
and misses come from cache_info() deltas, never from the wrappers.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = ("arith", "powersums", "lattice", "identities", "representations", "patternfit", "cli")


def _layer_modules() -> dict[str, object]:
    return {layer: sys.modules[f"sigmaprime.{layer}"] for layer in LAYERS}


def cache_snapshot() -> dict[str, tuple[int, int, int]]:
    """(hits, misses, currsize) of every lru_cache function in the layers."""
    out = {}
    for layer, mod in _layer_modules().items():
        for name, obj in vars(mod).items():
            # a traced wrapper keeps the cached function as __wrapped__
            cached = obj if hasattr(obj, "cache_info") else getattr(obj, "__wrapped__", None)
            if hasattr(cached, "cache_info") and cached.__module__ == mod.__name__:
                hits, misses, _max, size = cached.cache_info()
                out[f"{layer}.{name}"] = (hits, misses, size)
    return out


def cache_deltas(before: dict, after: dict) -> dict[str, dict[str, int]]:
    return {
        name: {
            "hits": after[name][0] - before.get(name, (0, 0, 0))[0],
            "misses": after[name][1] - before.get(name, (0, 0, 0))[1],
            "entries": after[name][2],
        }
        for name in sorted(after)
    }


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.request = -1
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.active: list[int] = []
        self.raised: Counter = Counter()
        self.extra: Counter = Counter()
        self._stack: list[list[int]] = []
        self.span_request = array("i")
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self._cache_before: dict = {}

    def _index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
            self.active.append(0)
        return self.names.index(name)

    def _depth(self, *names: str) -> int:
        return sum(self.active[self.names.index(n)] for n in names if n in self.names)

    def _wrap(self, name: str, fn, after=None):
        idx = self._index(name)
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            i = len(tracer.span_start)
            tracer.span_request.append(tracer.request)
            tracer.span_name.append(idx)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_start.append(0)
            tracer.span_end.append(0)
            tracer.calls[idx] += 1
            tracer.active[idx] += 1
            frame = [i, 0]
            stack.append(frame)
            t0 = clock()
            tracer.span_start[i] = t0
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.raised[f"{name}:{type(exc).__name__}"] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                tracer.span_end[i] = t1
                tracer.self_ns[idx] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                tracer.active[idx] -= 1
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        """Wrap the layers' public functions and rebind them package-wide."""
        layers = _layer_modules()
        self._cache_before = cache_snapshot()
        hooks = self._hooks(layers)
        replaced: dict[int, tuple[object, object]] = {}
        for layer, mod in layers.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr, None)
                if fn is None or isinstance(fn, type) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                replaced[id(fn)] = (fn, self._wrap(name, fn, hooks.get(name)))
        for modname, mod in list(sys.modules.items()):
            if modname != "sigmaprime" and not modname.startswith("sigmaprime."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        closed_form = getattr(layers["powersums"], "ClosedForm", None)
        if closed_form is not None:
            closed_form.evaluate = self._wrap("powersums.ClosedForm.evaluate", closed_form.evaluate)
        poly4 = getattr(layers["identities"], "Poly4", None)
        if poly4 is not None:
            original_call = poly4.__call__
            extra = self.extra
            tracer = self

            def counted_call(poly, *args):
                if tracer.enabled:
                    extra["identities.Poly4.call.calls"] += 1
                return original_call(poly, *args)

            poly4.__call__ = counted_call
        self.enabled = True

    def _hooks(self, layers: dict) -> dict:
        """Counts taken at specific boundaries, beyond calls and self time."""
        tracer = self
        extra = self.extra
        hooks = {}

        def enumerate_hook(count):
            extra["lattice.enumerate_quadruples.quads"] += count
            if tracer._depth("representations.count_fast", "representations.count_raw"):
                extra["representations.enumerations_in_counts"] += 1

        def oracle_hook(_value):
            if tracer._depth("patternfit.fit", "patternfit.validate"):
                extra["patternfit.oracle_calls"] += 1

        hooks["lattice.enumerate_quadruples"] = enumerate_hook
        hooks["lattice.brute_convolution"] = oracle_hook
        memo = getattr(layers["lattice"], "quadruples", None)
        if memo is not None and hasattr(memo, "cache_info"):
            last_misses = [memo.cache_info().misses]

            def memo_hook(quads):
                # a call that missed the memo materialized quads into it
                misses = memo.cache_info().misses
                if misses != last_misses[0]:
                    last_misses[0] = misses
                    extra["lattice.quadruples.cached_quads"] += len(quads)

            hooks["lattice.quadruples"] = memo_hook
        return hooks

    def snapshot(self) -> dict:
        """Exact counts and self times of everything traced so far."""
        return {
            "calls": {n: c for n, c in zip(self.names, self.calls) if c},
            "self_ns": {n: t for n, t in zip(self.names, self.self_ns) if t},
            "raised": dict(self.raised),
            "extra": dict(self.extra),
            "cache": cache_deltas(self._cache_before, cache_snapshot()),
            "spans": len(self.span_start),
        }

    def write_spans(self, path, append: bool = False) -> None:
        """Write every span kept in memory as gzipped JSON lines.

        A block starts with a line naming the functions; each further line
        is [request, name index, start ns, end ns, parent span or -1], with
        parent indices counted within the block.  With append=True each
        traced process adds its own block to the file.
        """
        with gzip.open(path, "at" if append else "wt", encoding="ascii", compresslevel=1) as out:
            out.write(json.dumps({"names": self.names}) + "\n")
            for row in zip(
                self.span_request, self.span_name, self.span_start, self.span_end, self.span_parent
            ):
                out.write("[%d,%d,%d,%d,%d]\n" % row)
