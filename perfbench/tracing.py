"""Spans around the calls into each gausscub module, recorded from outside.

The layers are the package's modules.  `Tracer` replaces each layer's public
functions by attribute, in every package module that binds them (so
`gausscub.existence.triple_product` and `gausscub.ortho.moment_matrix` are
wrapped too), with a wrapper that records a span: name, start, end, parent
span and request id.  The package itself is not changed.  Spans stay in
memory; `write_spans` dumps them when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import defaultdict

LAYERS = ("cli", "measures", "indexing", "ortho", "existence", "cubature", "qcheck")

# Leaf helpers called from the innermost loops (indexing.add alone runs
# millions of times per pass).  Each costs less than the span that would
# record it, so wrapping them would multiply their cost and hide the
# callers' work; their time stays in the caller's self time.
UNWRAPPED = {
    "indexing.add",
    "indexing.dim_homog",
    "indexing.dim_total",
    "indexing.homog_rank",
    "indexing.pair_rank",
    "indexing.pair_count",
    "indexing.glex_key",
    "indexing.glex_compare",
    "indexing.format_multiindex",
    "indexing.parse_multiindex",
}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Context manager: wraps the layers' public functions while active.

    `hooks` maps a span name to `hook(args, result, counters)`, run after the
    span closes, for counts taken at the same boundary (entries assembled,
    bytes loaded).  `request` is set by the client before each request.
    """

    def __init__(self, hooks=None):
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self.request = -1
        self._hooks = hooks or {}
        self._stack: list[int] = []
        self._patches: list = []

    def take(self) -> tuple[list, dict]:
        """Spans and counters since the last call; the next pass starts empty."""
        spans, counters = self.spans, self.counters
        self.spans, self.counters = [], defaultdict(float)
        return spans, counters

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        stack = self._stack
        hook = self._hooks.get(name)
        tracer = self

        def traced(*args, **kwargs):
            spans = tracer.spans
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
                spans[idx] = (name, t0, t1, parent, tracer.request)
            if hook is not None:
                hook(args, result, tracer.counters)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        modules = [importlib.import_module(f"gausscub.{layer}") for layer in LAYERS]
        owners = {mod.__name__: layer for mod, layer in zip(modules, LAYERS)}
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                owner = owners.get(getattr(value, "__module__", None))
                if owner is None or attr.startswith("_") or isinstance(value, type) or not callable(value):
                    continue
                name = f"{owner}.{value.__name__}"
                if name in UNWRAPPED:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(name, value)
                self._patches.append((mod, attr, value))
                setattr(mod, attr, wrappers[id(value)])
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()
        return False


def analyse(spans: list) -> dict:
    """Self time per layer and per function, call counts, and root time.

    A span's self time is its duration less its child spans.  A function's
    time is its layer's self time inside its spans: its own self time plus
    that of same-layer callees, stopping at calls into other layers.
    """
    count = len(spans)
    child_time = [0.0] * count
    within = [0.0] * count
    layer_self: dict[str, float] = defaultdict(float)
    fn_time: dict[str, float] = defaultdict(float)
    fn_total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    root_time = 0.0
    # children are appended after their parent, so walking backwards visits
    # every child before its parent
    for i in range(count - 1, -1, -1):
        name, t0, t1, parent, _ = spans[i]
        duration = t1 - t0
        own = duration - child_time[i]
        layer_self[layer_of(name)] += own
        within[i] += own
        calls[name] += 1
        fn_total[name] += duration
        if parent < 0:
            root_time += duration
        else:
            child_time[parent] += duration
            if layer_of(spans[parent][0]) == layer_of(name):
                within[parent] += within[i]
    for i, span in enumerate(spans):
        fn_time[span[0]] += within[i]
    return {
        "layer_self": dict(layer_self),
        "fn_time": dict(fn_time),
        "fn_total": dict(fn_total),
        "calls": dict(calls),
        "root_time": root_time,
        "spans": count,
    }


def write_spans(path: str, passes: list[tuple[float, list]]) -> None:
    """One JSON line per span; times are seconds from the start of its pass."""
    with gzip.open(path, "wt") as fh:
        for number, (start, spans) in enumerate(passes):
            for idx, (name, t0, t1, parent, request) in enumerate(spans):
                record = {"pass": number, "span": idx, "name": name, "start": t0 - start,
                          "end": t1 - start, "parent": parent, "request": request}
                fh.write(json.dumps(record) + "\n")
