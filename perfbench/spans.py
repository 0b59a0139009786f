"""In-memory spans for the traced run, and the self-time arithmetic over them.

A node is either one span (one call of a coarse function) or the aggregate of
every call of a per-row function under one parent span, so that a function
called 100k times costs one node rather than 100k.  Both carry a summed
duration; self time is that duration minus the durations of the node's
direct children, so a tree's self times always sum to its root's duration.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Callable, Iterable


@dataclass
class Node:
    name: str
    parent: int | None
    duration: float = 0.0
    calls: int = 0
    start: float | None = None  # None for per-row aggregates
    end: float | None = None


def self_times(nodes: list[Node]) -> list[float]:
    """Each node's duration minus the summed durations of its direct children."""
    covered = [0.0] * len(nodes)
    for node in nodes:
        if node.parent is not None:
            covered[node.parent] += node.duration
    return [node.duration - c for node, c in zip(nodes, covered)]


def totals_by_name(nodes: list[Node]) -> dict[str, tuple[int, float]]:
    """name -> (calls, summed self time) over every node of that name."""
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for node, self_s in zip(nodes, self_times(nodes)):
        out[node.name][0] += node.calls
        out[node.name][1] += self_s
    return {name: (calls, s) for name, (calls, s) in out.items()}


def nodes_to_json(nodes: Iterable[Node]) -> list[dict]:
    return [asdict(n) for n in nodes]


def nodes_from_json(rows: Iterable[dict]) -> list[Node]:
    return [Node(**r) for r in rows]


class Tracer:
    """Records nested calls of wrapped functions; nothing leaves memory until dumped."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.nodes: list[Node] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._aggregates: dict[tuple[str, int | None], int] = {}

    def _enter(self, name: str, per_row: bool) -> tuple[int, float]:
        parent = self._stack[-1] if self._stack else None
        if per_row:
            idx = self._aggregates.get((name, parent))
            if idx is None:
                idx = self._aggregates[(name, parent)] = len(self.nodes)
                self.nodes.append(Node(name, parent))
        else:
            idx = len(self.nodes)
            self.nodes.append(Node(name, parent))
        self._stack.append(idx)
        t0 = self.clock()
        if not per_row:
            self.nodes[idx].start = t0
        return idx, t0

    def _exit(self, idx: int, t0: float) -> None:
        t1 = self.clock()
        node = self.nodes[idx]
        node.duration += t1 - t0
        node.calls += 1
        if node.start is not None:
            node.end = t1
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, per_row: bool = False,
             count: Callable | None = None) -> Callable:
        """``fn`` recorded under ``name``; ``count(counts, args, result)`` tallies work."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, t0 = self._enter(name, per_row)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx, t0)
            if count is not None:
                count(self.counts, args, result)
            return result
        return traced

    def wrap_iter(self, name: str, fn: Callable) -> Callable:
        """A generator function whose every ``next`` is recorded as one per-row call."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                idx, t0 = self._enter(name, True)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(idx, t0)
                yield item
        return traced
