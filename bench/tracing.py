"""Spans around the benchmark's calls into the program's layers.

A `Tracer` keeps spans in memory as (name, start, end, parent, case,
round) tuples and writes them out as JSON lines when the run ends.  While
`patched()` is active, each layer function in the table below is replaced,
in every package module that holds it, by a wrapper that records a span;
calls the package makes internally (collapse_k calling the discrete
collapse, the rate oracles calling the measure collapse) are therefore
seen too.  With tracing off nothing is replaced and no span is recorded.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time

# span name -> (module, function) of the layer call it wraps
LAYER_CALLS = {
    "collapse.discrete": ("collapse", "collapse_discrete"),
    "collapse.points": ("collapse", "collapse_points"),
    "collapse.measure": ("collapse", "collapse_measure"),
    "dynamics.pushforward": ("dynamics", "pushforward_distribution"),
    "dynamics.exact_stationary": ("dynamics", "exact_stationary"),
    "dynamics.sample_invariant": ("dynamics", "sample_invariant"),
    "dynamics.had_simulate": ("dynamics", "had_simulate"),
    "rate.s2": ("rate", "s2"),
    "rate.s2_oracle": ("rate", "s2_oracle"),
    "rate.contraction": ("rate", "contraction_identity_check"),
    "rate.sk_oracle": ("rate", "sk_oracle"),
    "rate.s3_recursive": ("rate", "s3_recursive"),
}

PACKAGE = "toruscollapse"


class Tracer:
    """In-memory span recorder.  `case` names the benchmark operation that
    is running; spans opened inside it inherit it."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.case = ""
        self.round = -1

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.case, self.round)

    def _wrap(self, name, fn):
        # span() inlined: ring-exact makes ~270k wrapped calls per round,
        # and a generator-based context manager would double their cost
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.case, self.round)

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Replace every layer function by a span-recording wrapper."""
        undo = []
        try:
            for name, (mod, attr) in LAYER_CALLS.items():
                original = getattr(sys.modules[f"{PACKAGE}.{mod}"], attr)
                wrapper = self._wrap(name, original)
                for modname, module in list(sys.modules.items()):
                    if modname.startswith(PACKAGE) and getattr(module, attr, None) is original:
                        setattr(module, attr, wrapper)
                        undo.append((module, attr, original))
            yield
        finally:
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)

    def write_jsonl(self, path: str, origin: float) -> None:
        with open(path, "w") as fh:
            for idx, (name, t0, t1, parent, case, rnd) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": idx,
                            "name": name,
                            "start": t0 - origin,
                            "end": t1 - origin,
                            "parent": parent,
                            "case": case,
                            "round": rnd,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )


class NullTracer:
    """Tracing off: spans cost one no-op context manager."""

    case = ""
    round = -1

    def span(self, name: str):
        return contextlib.nullcontext()


class SpanView:
    """Per-layer figures derived from the spans of one round.  No layer
    function calls itself, so a layer's busy time is the sum of its span
    durations."""

    def __init__(self, spans, rnd: int):
        self.spans = [s for s in spans if s[5] == rnd]

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def busy_s(self, name: str, *cases: str) -> float:
        """Time inside the layer, optionally within the given cases only."""
        return sum(
            s[2] - s[1] for s in self.spans if s[0] == name and (not cases or s[4] in cases)
        )

    def case_ms(self, name: str, *cases: str) -> float:
        """Median duration in ms of the benchmark's own calls of the cases."""
        ds = [
            (s[2] - s[1]) * 1e3
            for s in self.spans
            if s[0] == name and s[4] in cases and s[3] == -1
        ]
        return statistics.median(ds) if ds else 0.0
