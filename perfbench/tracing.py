"""Per-layer tracing for the traced run (`--trace 1`).

Wrappers go around the layers' public functions from outside, in every
`macdyn` module namespace that binds them, because callers look functions up
by name in their own module (`simulator` imports `fundamental` and `S_quant`
by name, `classifier` imports `factor_product`).  Nothing is wrapped in an
untraced run.

Each wrapped call is a span (name, start, end, parent); the op is the root
span.  Busy time counts only the outermost span of a function, so recursion
is not counted twice; self time is a span's duration minus the time its
wrapped children cover, summed per layer.  Counts and times are aggregated
for every op; the spans themselves are kept in memory for the first
`MAX_SPANS` spans only, and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

LAYERS = ("arrays", "macdonald", "classifier", "insertions", "simulator", "oracle", "cli")

# layer -> wrapped functions.  `_check_interlacing` runs once per Gillespie
# event in the reference engine, so its call count is the event count.
TARGETS = {
    "arrays": ("interlaces", "free_indices"),
    "macdonald": ("factor_product", "mac_P", "univariate_rates"),
    "classifier": ("S_quant", "T_quant", "fundamental", "decompose"),
    "insertions": ("h_rs_forward", "h_rs_inverse"),
    "simulator": (
        "run_ensemble", "simulate", "jump_rates", "propagate", "slice_solution",
        "_check_interlacing",
    ),
    "oracle": ("exact_transient",),
    "cli": ("main",),
}
EVENT_COUNTER = "simulator._check_interlacing"
MAX_SPANS = 20_000


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in report order; all are per op."""
    names = []
    for layer, funcs in TARGETS.items():
        for func in funcs:
            if f"{layer}.{func}" != EVENT_COUNTER:
                names += [f"{layer}.{func}.calls", f"{layer}.{func}.busy_s"]
    names += [f"{layer}.self_s" for layer in LAYERS]
    names += [
        "simulator.events",
        "simulator.jump_rates_per_event",
        "simulator.slice_solves_per_event",
        "cli.output_bytes",
    ]
    return names


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_per_event"):
        return "1/event"
    return "count"


class Tracer:
    def __init__(self):
        self.on = False
        self.stats: dict[str, list] = {}  # name -> [calls, busy, self, depth]
        self.spans: list[tuple] = []
        self._stack = [[0.0, None]]  # [child time, span id]; bottom frame is never popped
        self._ids = 0

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "macdyn"]
        for layer, funcs in TARGETS.items():
            home = sys.modules[f"macdyn.{layer}"]
            for func in funcs:
                orig = getattr(home, func, None)
                if orig is None:
                    continue
                wrapper = self._wrap(f"{layer}.{func}", orig)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is orig:
                            setattr(module, attr, wrapper)

    def _wrap(self, name, fn):
        tracer = self
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            return tracer._span(name, stat, fn, args, kwargs)

        return wrapper

    def _span(self, name, stat, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1]
        self._ids += 1
        frame = [0.0, self._ids]
        stack.append(frame)
        stat[3] += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            dur = end - start
            stat[0] += 1
            stat[2] += dur - frame[0]
            stat[3] -= 1
            if stat[3] == 0:
                stat[1] += dur
            parent[0] += dur
            if len(self.spans) < MAX_SPANS:
                self.spans.append((frame[1], parent[1], name, start, end))

    def run_op(self, kind: str, fn):
        """Run one op as a root span with tracing on."""
        self.on = True
        try:
            return self._span(f"op.{kind}", self.stats.setdefault(f"op.{kind}", [0, 0.0, 0.0, 0]),
                              fn, (), {})
        finally:
            self.on = False

    def metrics(self, ops: int, output_bytes: int) -> dict:
        def stat(name):
            return self.stats.get(name, [0, 0.0, 0.0, 0])

        out = {}
        for layer, funcs in TARGETS.items():
            for func in funcs:
                name = f"{layer}.{func}"
                if name != EVENT_COUNTER:
                    out[f"{name}.calls"] = stat(name)[0] / ops
                    out[f"{name}.busy_s"] = stat(name)[1] / ops
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                s[2] for name, s in self.stats.items() if name.split(".")[0] == layer
            ) / ops
        events = stat(EVENT_COUNTER)[0]
        out["simulator.events"] = events / ops
        out["simulator.jump_rates_per_event"] = (
            stat("simulator.jump_rates")[0] / events if events else 0.0
        )
        out["simulator.slice_solves_per_event"] = (
            stat("simulator.slice_solution")[0] / events if events else 0.0
        )
        out["cli.output_bytes"] = output_bytes / ops
        return out

    def dump(self, path) -> None:
        base = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in sorted(self.spans, key=lambda s: s[0]):
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": start - base, "end": end - base,
                }) + "\n")
