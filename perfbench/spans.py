"""In-memory spans around the calls the benchmark makes into each module.

The tracer never edits the package.  While a traced pass runs, it swaps
selected public functions for thin wrappers in every ``dispersion``
module namespace that holds them (and in ``verify.SUITES``), so calls
between modules are recorded too.  Each span keeps its name, start,
end, parent and a few counts taken from the arguments or the result.
"""
from __future__ import annotations

import json
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)
    kids: list[int] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _n(first, result) -> dict:
    return {"n": first}


def _start(first, result) -> dict:
    return {"n": first.total, "flat": first.occupancy == (1,) * first.total}


def _graph(first, result) -> dict:
    return {"nodes": len(result.nodes), "edges": sum(len(e) for e in result.edges.values())}


# (module, function, span name, attrs from (first argument, result))
WRAPPED: tuple[tuple[str, str, str, Callable], ...] = (
    ("reachability", "explore", "reachability.explore", _graph),
    ("probability", "scaled_row", "probability.scaled_row", _n),
    ("probability", "final_distribution", "probability.final_distribution", _start),
    ("probability", "monte_carlo_counts", "probability.monte_carlo_counts",
     lambda n, counts: {"n": n, "samples": sum(counts.values())}),
    ("suites", "verify_move_correspondence", "suites.verify_move_correspondence",
     lambda s, report: {"nodes": report.room_nodes}),
    ("trees", "r_table_bruteforce", "trees.r_table_bruteforce", _n),
    ("trees", "r_table_recursive", "trees.r_table_recursive", _n),
    ("perms", "perm_count_checks", "perms.perm_count_checks", _n),
    ("perms", "roundtrip_check", "perms.roundtrip_check", _n),
)


class Tracer:
    """Collects spans; ``enabled`` is False for untraced passes."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.explored: dict = {}  # start states explore was called on, in first-call order
        self.enabled = False
        self._stack: list[int] = []

    def span(self, name: str, **attrs):
        return self._span(name, attrs) if self.enabled else nullcontext(None)

    @contextmanager
    def _span(self, name: str, attrs: dict):
        sp = Span(len(self.spans), name, self._stack[-1] if self._stack else None, 0.0,
                  attrs=attrs)
        self.spans.append(sp)
        if sp.parent is not None:
            self.spans[sp.parent].kids.append(sp.id)
        self._stack.append(sp.id)
        sp.start = perf_counter()
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            self._stack.pop()

    def _wrap(self, fn: Callable, name: str, describe: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            first = args[0] if args else next(iter(kwargs.values()))
            with self._span(name, {}) as sp:
                result = fn(*args, **kwargs)
            sp.attrs.update(describe(first, result))
            if name == "reachability.explore":
                self.explored[first] = None
            return result

        return wrapper

    @contextmanager
    def tracing(self):
        """Record spans, with the package's functions wrapped, inside the block."""
        import dispersion
        import dispersion.verify

        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "dispersion"]
        undo: list[tuple[Any, str, Any]] = []
        for mod, attr, name, describe in WRAPPED:
            fn = getattr(getattr(dispersion, mod), attr)
            wrapper = self._wrap(fn, name, describe)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        undo.append((m, key, value))
                        setattr(m, key, wrapper)
        suites = dispersion.verify.SUITES
        saved = dict(suites)
        for suite, fn in saved.items():
            wrapper = self._wrap(fn, "verify.suite", lambda cfg, r, s=suite: {"suite": s})
            suites[suite] = wrapper
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = False
            suites.update(saved)
            for m, key, value in reversed(undo):
                setattr(m, key, value)

    def children(self, sp: Span) -> list[Span]:
        return [self.spans[i] for i in sp.kids]

    def self_seconds(self, sp: Span) -> float:
        """Span duration minus the part its child spans cover."""
        return sp.seconds - sum(c.seconds for c in self.children(sp))

    def named(self, name: str, **match) -> list[Span]:
        return [
            s for s in self.spans
            if s.name == name and all(s.attrs.get(k) == v for k, v in match.items())
        ]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"id": s.id, "name": s.name, "parent": s.parent, "start": s.start,
             "end": s.end, **s.attrs}
            for s in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n")
