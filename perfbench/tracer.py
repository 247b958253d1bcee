"""Spans around calls into isograd, recorded from the benchmark's own files.

The tracer replaces module attributes (a function as a module sees it, so
``core.gradient`` and ``jointbinary.gradient`` are wrapped one by one) with
wrappers that record a span: name, start, end, parent span, and a few
attributes.  Spans stay in memory and are written out when the run ends.
A name that no longer exists is recorded as missing, never as an error.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: int
    end: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6


class Tracer:
    """Install with ``wrap``; ``restore`` puts every original back."""

    def __init__(self, segment: str):
        self.segment = segment
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._children: dict[int | None, list[Span]] = defaultdict(list)
        self._stack: list[Span] = []
        self._originals: list[tuple[Any, str, Any]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter_ns())
        self.spans.append(span)
        self._children[parent].append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    def traced(self, fn: Callable, name: str,
               annotate: Callable[[Span, tuple, dict, Any], None] | None = None
               ) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                self._close(span)
                if annotate is not None:
                    annotate(span, args, kwargs, result)
        return wrapper

    def counted(self, fn: Callable, counter: str) -> Callable:
        """Count calls on the innermost open span; no span of their own."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack:
                attrs = self._stack[-1].attrs
                attrs[counter] = attrs.get(counter, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def replace(self, owner: Any, attr: str, make: Callable[[Callable], Callable],
                name: str) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.add(name)
            return
        self._originals.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def wrap(self, owner: Any, attr: str, name: str, annotate=None) -> None:
        self.replace(owner, attr, lambda fn: self.traced(fn, name, annotate),
                     name)

    def count(self, owner: Any, attr: str, counter: str) -> None:
        self.replace(owner, attr, lambda fn: self.counted(fn, counter), counter)

    def wrap_mapping(self, mapping: dict, name: str) -> None:
        """Wrap every value of a dispatch table (restored by ``restore``)."""
        for key, fn in list(mapping.items()):
            self._originals.append((mapping, key, fn))
            mapping[key] = self.traced(fn, name)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._originals):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._originals.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- reading spans -------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self, span: Span) -> list[Span]:
        return self._children[span.id]

    def self_ms(self, span: Span) -> float:
        """Span time minus the time its child spans cover."""
        covered = 0
        cursor = span.start
        for child in sorted(self.children(span), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return (span.end - span.start - covered) / 1e6

    def has_ancestor(self, span: Span, name: str) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def subtree_count(self, span: Span, counter: str) -> int:
        total = span.attrs.get(counter, 0)
        for child in self.children(span):
            total += self.subtree_count(child, counter)
        return total

    def dump(self, fh) -> None:
        for s in self.spans:
            fh.write(json.dumps({"segment": self.segment, "id": s.id,
                                 "name": s.name, "parent": s.parent,
                                 "start_ns": s.start, "end_ns": s.end,
                                 "attrs": s.attrs}, default=str) + "\n")


# ---------------------------------------------------------------------------
# what gets wrapped


def _gradient_mode(span, args, kwargs, result):
    mode = args[2] if len(args) > 2 else kwargs.get("mode")
    span.attrs["mode"] = type(mode).__name__


def _grid_shape(span, args, kwargs, result):
    span.attrs["sides"], span.attrs["resolution"] = int(args[0]), int(args[1])


def _nfev(span, args, kwargs, result):
    span.attrs["nfev"] = int(getattr(result, "nfev", 0) or 0)


def _cells(span, args, kwargs, result):
    span.attrs["cells"] = len(getattr(result, "entries", ()) or ())


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every isograd module."""
    from isograd import (cli, core, dice, game, gaussian, jointbinary,
                         strategy, treeopt)
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "render", "cli.render")
    if isinstance(getattr(cli, "_COMMANDS", None), dict):
        tracer.wrap_mapping(cli._COMMANDS, "cli.command")
    else:
        tracer.missing.add("cli.command")
    for module in (core, cli, jointbinary, gaussian, strategy):
        if module is core or hasattr(module, "gradient"):
            tracer.wrap(module, "gradient", "core.gradient", _gradient_mode)
    tracer.wrap(core, "finite_difference", "core.finite_difference")
    tracer.count(core, "_eval", "evals")
    tracer.wrap(dice, "_entropy_on_grid", "dice.grid", _grid_shape)
    tracer.wrap(dice, "minimize", "dice.polish", _nfev)
    tracer.wrap(treeopt, "maximize_payoff_on_slice", "treeopt.slice")
    tracer.wrap(treeopt, "maximize_discrepancy", "treeopt.discrepancy")
    tracer.wrap(treeopt, "minimize", "treeopt.minimize", _nfev)
    tracer.wrap(treeopt, "minimize_scalar", "treeopt.minimize_scalar", _nfev)
    tracer.replace(treeopt, "slice_payoff", lambda fn: _split_payoff(
        tracer, fn), "treeopt.grid")
    tracer.wrap(strategy, "table1", "strategy.table1", _cells)
    tracer.wrap(gaussian, "check_suite", "gaussian.check_suite")
    tracer.wrap(jointbinary, "relation_suite", "jointbinary.relation_suite")
    tracer.wrap(jointbinary, "entropy_gradient",
                "jointbinary.entropy_gradient")
    tracer.wrap(game, "global_comparison", "game.global_comparison")


def _split_payoff(tracer: Tracer, fn: Callable) -> Callable:
    """Mesh evaluations of slice_payoff get a span; scalar ones a count."""
    mesh = tracer.traced(fn, "treeopt.grid")
    scalar = tracer.counted(fn, "payoff_scalar_calls")

    @functools.wraps(fn)
    def wrapper(p, q, rho):
        if getattr(p, "ndim", 0):
            return mesh(p, q, rho)
        return scalar(p, q, rho)
    return wrapper
