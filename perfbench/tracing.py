"""Timing wrappers installed from outside the program, for traced runs only.

A wrapper replaces an attribute (a module's function or a context instance's
method) and adds its calls and seconds to a per-layer tally.  Only the
outermost call per layer is tallied, so a wrapped function that reaches
another wrapped function of the same layer is not counted twice.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.seconds: Counter[str] = Counter()
        self._active: Counter[str] = Counter()

    def reset(self) -> None:
        self.calls.clear()
        self.seconds.clear()

    def wrap(self, layer: str, fn, observe=None):
        """``fn`` with its outermost calls tallied under ``layer``; ``observe``,
        if given, is called with each result."""
        def traced(*args, **kwargs):
            if self._active[layer]:
                return fn(*args, **kwargs)
            self._active[layer] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.seconds[layer] += perf_counter() - t0
                self.calls[layer] += 1
                self._active[layer] -= 1
            if observe is not None:
                observe(result)
            return result
        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap each (layer, owner, attribute name[, observe]) within the block."""
        saved = []
        try:
            for layer, owner, name, *observe in targets:
                had_own = name in vars(owner)
                saved.append((owner, name, had_own, getattr(owner, name)))
                setattr(owner, name, self.wrap(layer, getattr(owner, name), *observe))
            yield self
        finally:
            for owner, name, had_own, original in reversed(saved):
                if had_own:
                    setattr(owner, name, original)
                else:
                    delattr(owner, name)
