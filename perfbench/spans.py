"""Span recording around calls into rhokit's layers, from outside the package.

``instrument`` builds recording wrappers for chosen public functions, and
``apply`` rebinds every name under which a ``rhokit`` module holds them (for example
``rhokit.purification.eig_hermitian`` as well as ``rhokit.linalg``'s own), so
calls between layers are recorded too. Spans stay in memory; ``self_ms``
turns them into per-layer self time, a span's duration minus the part of it
its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    ident: int
    parent: int | None
    round_id: int
    name: str
    start: float
    end: float = 0.0


@dataclass
class Tracer:
    """Records nested spans while a round is open; idle otherwise."""

    clock: object = time.perf_counter
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    round_id: int | None = None
    _stack: list = field(default_factory=list)

    def begin_round(self, round_id: int) -> None:
        self.round_id = round_id
        self.counts[round_id] = {}
        self._open("round")

    def end_round(self) -> None:
        self._close()
        self.round_id = None

    def count(self, key: str, amount) -> None:
        if self.round_id is not None:
            bucket = self.counts[self.round_id]
            bucket[key] = bucket.get(key, 0) + amount

    def call(self, name: str, fn, args, kwargs, counter=None):
        if self.round_id is None:
            return fn(*args, **kwargs)
        self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close()
        if counter is not None:
            counter(self, args, kwargs, result)
        return result

    def _open(self, name: str) -> None:
        parent = self._stack[-1].ident if self._stack else None
        span = Span(len(self.spans), parent, self.round_id, name, self.clock())
        self.spans.append(span)
        self._stack.append(span)

    def _close(self) -> None:
        self._stack.pop().end = self.clock()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps([s.ident, s.parent, s.round_id, s.name, s.start, s.end]))
                handle.write("\n")


def instrument(tracer: Tracer, targets: dict) -> list:
    """Wrap ``{"module.function": counter_or_None}``, finding every alias.

    Installs nothing. Returns the ``(module, attribute, original, wrapper)``
    list with which ``apply`` installs the wrappers and ``restore`` removes
    them.
    """
    modules = [m for name, m in list(sys.modules.items()) if name == "rhokit" or name.startswith("rhokit.")]
    replaced = []
    for qualified, counter in targets.items():
        module_name, attr = qualified.rsplit(".", 1)
        original = getattr(sys.modules["rhokit." + module_name], attr)
        wrapper = _wrap(tracer, qualified, original, counter)
        for module in modules:
            for alias, value in list(vars(module).items()):
                if value is original:
                    replaced.append((module, alias, original, wrapper))
    return replaced


def apply(replaced: list) -> None:
    for module, alias, _, wrapper in replaced:
        setattr(module, alias, wrapper)


def restore(replaced: list) -> None:
    for module, alias, original, _ in replaced:
        setattr(module, alias, original)


def _wrap(tracer: Tracer, name: str, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, counter)

    return wrapper


def self_ms(spans) -> dict:
    """``{round_id: {span name: summed self time in ms}}``.

    Children of one span never overlap each other (one thread, strictly
    nested calls), but each is clipped to its parent's interval.
    """
    covered: dict[int, float] = {}
    by_id = {s.ident: s for s in spans}
    for s in spans:
        if s.parent is not None:
            p = by_id[s.parent]
            overlap = min(s.end, p.end) - max(s.start, p.start)
            covered[p.ident] = covered.get(p.ident, 0.0) + max(overlap, 0.0)
    out: dict[int, dict[str, float]] = {}
    for s in spans:
        own = (s.end - s.start) - covered.get(s.ident, 0.0)
        per_round = out.setdefault(s.round_id, {})
        per_round[s.name] = per_round.get(s.name, 0.0) + own * 1e3
    return out


def call_counts(spans) -> dict:
    """``{round_id: {span name: number of spans}}``."""
    out: dict[int, dict[str, int]] = {}
    for s in spans:
        per_round = out.setdefault(s.round_id, {})
        per_round[s.name] = per_round.get(s.name, 0) + 1
    return out
