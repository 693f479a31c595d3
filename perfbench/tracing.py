"""Span tracing of x1points from outside the package.

`Tracer.install()` wraps every public function of the package modules (plus
MatGroup.elements/order/contains) and rebinds the wrapper in every x1points
module that holds the original, so calls between modules are traced too.
`mul_raw`, `apply_raw` and `inv_raw` stay unwrapped: they run millions of
times per job. Their call counts are computed at the layer boundary from
the arguments (elements built times generators, vectors times generators).
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter

from numtheory import minv

LAYERS = ("modarith", "matgroup", "orbits", "levels", "curveinv", "sporadic", "classify", "cli")
UNWRAPPED = {"mul_raw", "apply_raw", "inv_raw"}
FUNCTION_TYPES = (types.FunctionType, functools._lru_cache_wrapper)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent index, job index)
        self.names: list[str] = []
        self.job = -1
        self.counters: Counter = Counter()
        self.mul_calls: Counter = Counter()  # per modulus
        self.apply_calls: Counter = Counter()  # per modulus
        self._stack: list[int] = []
        self._patches: list = []

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        names = self.names
        names.append(name)
        name_id = len(names) - 1
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name_id, t0, t1, parent, self.job)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def install(self) -> None:
        mods = [sys.modules[f"x1points.{layer}"] for layer in LAYERS]
        everywhere = mods + [sys.modules["x1points"]]
        hooks = self._hooks()
        for mod in mods:
            layer = mod.__name__.split(".")[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or attr in UNWRAPPED or not isinstance(obj, FUNCTION_TYPES):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if layer == "cli" and attr != "main":
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", obj, hooks.get(attr))
                for target in everywhere:
                    for name, value in list(vars(target).items()):
                        if value is obj:
                            self._patches.append((target, name, value))
                            setattr(target, name, wrapper)
        cls = sys.modules["x1points.matgroup"].MatGroup
        self._patch_method(cls, "elements", self._wrap_elements(cls.elements))
        self._patch_method(cls, "contains", self._wrap("matgroup.MatGroup.contains", cls.contains))
        order = cls.order
        self._patch_method(cls, "order", property(self._wrap("matgroup.MatGroup.order", order.fget)))

    def _patch_method(self, cls, attr, new):
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, new)

    def uninstall(self) -> None:
        for target, name, value in reversed(self._patches):
            setattr(target, name, value)
        self._patches.clear()

    def _wrap_elements(self, fn):
        traced = self._wrap("matgroup.MatGroup.elements", fn)
        counters, mul_calls = self.counters, self.mul_calls

        @functools.wraps(fn)
        def elements(group):
            building = not group.is_materialized
            result = traced(group)
            if building:
                n = group.modulus.n
                gens = group.raw_generators
                start = dict.fromkeys(x for g in gens for x in (g, minv(g, n)))
                counters["elements_materialized"] += len(result)
                counters["peak_group_elements"] = max(counters["peak_group_elements"], len(result))
                mul_calls[n] += len(result) * len(start)
            return result

        return elements

    def _hooks(self) -> dict:
        counters, apply_calls = self.counters, self.apply_calls

        def vector_orbits(args, result):
            group, vectors = args[0], args[1]
            counters["orbit_vectors"] += len(vectors)
            counters["orbits"] += len(result)
            apply_calls[group.modulus.n] += len(vectors) * len(group.raw_generators)

        def full_preimage(args, result):
            counters["full_preimage_gens"] += len(result.raw_generators)

        def cm_threshold(args, result):
            threshold, ell = result
            counters["cm_candidates_scanned"] += ell - max(2, int(threshold))

        return {"vector_orbits": vector_orbits, "full_preimage": full_preimage, "cm_threshold": cm_threshold}

    # -- reduction -----------------------------------------------------------------

    def summary(self) -> dict:
        """Self time per layer, and per span name: calls and inclusive seconds.

        Inclusive time skips spans nested inside a span of the same name, so
        recursive calls are not counted twice.
        """
        spans, names = self.spans, self.names
        child = [0] * len(spans)
        for name_id, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        incl_ns: Counter = Counter()
        for i, (name_id, t0, t1, parent, _) in enumerate(spans):
            name = names[name_id]
            self_ns[name.split(".", 1)[0]] += t1 - t0 - child[i]
            calls[name] += 1
            p = parent
            while p >= 0 and spans[p][0] != name_id:
                p = spans[p][3]
            if p < 0:
                incl_ns[name] += t1 - t0
        return {
            "self_s": {k: v / 1e9 for k, v in self_ns.items()},
            "calls": dict(calls),
            "incl_s": {k: v / 1e9 for k, v in incl_ns.items()},
        }

    def dump_spans(self) -> list:
        names = self.names
        return [[names[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans]
