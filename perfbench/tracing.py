"""Spans around the public functions of each treea1 layer, recorded from outside.

A :class:`Tracer` rebinds every module attribute of the loaded ``treea1``
package that refers to a listed public function, so calls made by the
benchmark and calls the package makes internally (``check_growth_bound``
calling ``a1_constant``, ``cli`` calling ``fuzz_campaign``) each open a span.
Private helpers, such as the ``lru_cache`` on ``maximal._level_sums``, are
never wrapped, so cache hits and misses are those of an untraced run.  The
original bindings come back when the tracer's ``with`` block ends.

Spans live in memory as ``(name, start_ns, end_ns, parent, request)`` tuples
and are written out once, at the end of the run.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# layer -> public functions given a span; missing names are skipped, so a
# later version of the package that drops one still traces the rest.
TRACED = {
    "weights": ("random_weight", "make_step_weight", "weight_hash", "weight_to_text", "weight_from_text"),
    "maximal": ("maximal_function", "a1_constant", "stopping_family", "superlevel_set",
                "maximal_function_bruteforce"),
    "rearrangement": ("rearrange", "sup_ratio", "kadic_constant", "prefix_average"),
    "verify": ("check_stopping_consistency", "check_growth_bound", "average_thresholds", "check_weak_type",
               "check_decomposition", "check_oracle_equality", "audit_superlevel",
               "check_rearrangement_bound", "fuzz_campaign"),
    "search": ("hill_climb",),
}


class Tracer:
    """Records nested spans on one thread; use as a context manager."""

    def __init__(self):
        self.spans: list = []
        self.request = "setup"
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            spans[index] = (name, start, end, parent, self.request)

    def _wrap(self, name: str, fn):
        # span() inlined: a generator context manager per call would double the overhead
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)

        return traced

    def __enter__(self):
        modules = [m for key, m in list(sys.modules.items()) if key == "treea1" or key.startswith("treea1.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"treea1.{layer}"]
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()
        return False

    def totals(self) -> dict[str, tuple[int, int, int]]:
        """name -> (calls, total ns, self ns); self time excludes child spans."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, list[int]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, [0, 0, 0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_ns[i]
        return {name: tuple(v) for name, v in out.items()}

    def write(self, path: Path) -> None:
        """One JSON array per span: name, start_ns, end_ns, parent index, request id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class NullTracer:
    """Stand-in for timed runs: spans cost one no-op context manager."""

    @contextmanager
    def span(self, name: str):
        yield
