"""Per-layer measurement from outside the program: patches, spans and call counts.

Wrappers go on the name the caller looks up (``aide.planner.match_tool``, not
``aide.ers.match_tool``) and on the class for methods. :class:`Patches` puts
every original back and reports any name it could not restore.

A span is ``[name, start, end, parent, episode, child_seconds]``. Calls are
strictly nested (one thread, one episode at a time), so a span's self time is
its duration minus the summed durations of its direct children.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Callable

from aide import ers, harness, planner
from aide.ers import CandidatePool, Grounded
from aide.perception import PerceptionError
from aide.remote import RemotePerception
from aide.space import RelationshipSpace

# The public methods of the backend contract, each counted and reported.
CAPABILITIES = (
    "detect",
    "similarity",
    "score_affordance",
    "propose_tool",
    "select_candidate",
    "segment_regions",
    "infer_unseen_label",
)


class Patches:
    """Replaces attributes of modules and classes and puts the originals back."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def install(self, owner: object, attr: str, replacement: object) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> list[str]:
        """Restore every patched name; return the names still not original."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        left = [
            f"{_owner_name(owner)}.{attr}"
            for owner, attr, original in self._saved
            if vars(owner).get(attr) is not original
        ]
        self._saved.clear()
        return left


def _owner_name(owner: object) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__qualname__}"
    return owner.__name__


class Tracer:
    """In-memory span recorder with event counters; ``clock`` times the spans."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.episode = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent, self.episode, 0.0])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        end = self.clock()
        span = self.spans[index]
        span[2] = end
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][5] += end - span[1]

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Callable[[object], None] | None = None,
    ) -> Callable:
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        out: dict[str, list] = {}
        for name, start, end, _, _, child in self.spans:
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child
        return {name: tuple(v) for name, v in out.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, episode, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, episode]) + "\n")


class CallCounter:
    """Counts backend calls by capability through a subclass of the backend.

    Only outermost calls count, so a capability implemented by calling another
    one is one call, as it is one round trip under ``RemotePerception``. With a
    tracer, calls are also spans named ``perception.<capability>``, errors are
    counted and repeated ``similarity`` pairs within one backend instance (one
    episode) are counted.
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        self.calls: Counter[str] = Counter()
        self.errors = 0
        self.similarity_repeats = 0
        self._depth = 0

    @property
    def total(self) -> int:
        return sum(self.calls.values())

    def subclass(self, base: type) -> type:
        methods = {cap: self._method(cap, getattr(base, cap)) for cap in CAPABILITIES}
        return type(f"Counting{base.__name__}", (base,), methods)

    def _method(self, cap: str, original: Callable) -> Callable:
        counter = self
        tracer = self.tracer
        if tracer is None:

            def counted(backend, *args, **kwargs):
                if counter._depth:
                    return original(backend, *args, **kwargs)
                counter.calls[cap] += 1
                counter._depth += 1
                try:
                    return original(backend, *args, **kwargs)
                finally:
                    counter._depth -= 1

            return counted

        name = f"perception.{cap}"

        def traced(backend, *args, **kwargs):
            if counter._depth:
                return original(backend, *args, **kwargs)
            counter.calls[cap] += 1
            if cap == "similarity":
                seen = backend.__dict__.setdefault("_bench_pairs", set())
                pair = (args, tuple(kwargs.items()))
                if pair in seen:
                    counter.similarity_repeats += 1
                seen.add(pair)
            counter._depth += 1
            index = tracer.open(name)
            try:
                return original(backend, *args, **kwargs)
            except PerceptionError:
                counter.errors += 1
                raise
            finally:
                tracer.close(index)
                counter._depth -= 1

        return traced


def install_layer_spans(patches: Patches, tracer: Tracer, remote: bool) -> None:
    """Wrap every layer boundary the per-layer report reads."""

    def count(key: str, amount: Callable[[object], int]) -> Callable[[object], None]:
        def add(result) -> None:
            tracer.counts[key] += amount(result)

        return add

    spans: list[tuple[object, str, str, Callable | None]] = [
        (harness, "run_closed_loop", "harness.run_closed_loop", None),
        (harness, "check_success", "harness.check_success", None),
        (RelationshipSpace, "clone", "space.clone", None),
        (RelationshipSpace, "dfs_retrieve", "space.dfs_retrieve",
         count("space.dfs_visited", lambda r: r[1])),
        (RelationshipSpace, "candidate_set", "space.candidate_set",
         count("space.candidates", len)),
        (RelationshipSpace, "insert", "space.insert", None),
        (planner, "retrieve_candidates", "ers.retrieve_candidates", None),
        (planner, "match_tool", "ers.match_tool",
         count("ers.grounded", lambda r: isinstance(r, Grounded))),
        (CandidatePool, "tool_labels", "ers.tool_labels", None),
        (CandidatePool, "distinct_images", "ers.distinct_images", None),
        (ers, "ground_regions", "ers.ground_regions", None),
        (planner, "step", "planner.step", None),
        (planner, "validity_check", "planner.validity_check", None),
        (planner, "run_msi", "planner.run_msi", None),
        (planner, "visible_explore", "exploration.visible_explore", None),
        (planner, "invisible_explore", "exploration.invisible_explore", None),
        (planner, "observe", "simulator.observe", None),
        (planner, "apply", "simulator.apply", None),
    ]
    if remote:
        spans += [(RemotePerception, cap, f"remote.{cap}", None) for cap in CAPABILITIES]
    for owner, attr, name, on_result in spans:
        original = vars(owner)[attr]
        if owner is RemotePerception:
            original = _breaker_watch(original, tracer)
        patches.install(owner, attr, tracer.wrap(name, original, on_result))
    patches.install(harness, "fresh_world", _new_episode(vars(harness)["fresh_world"], tracer))


def _new_episode(fresh_world: Callable, tracer: Tracer) -> Callable:
    # Each harness episode starts by copying its world template, so spans
    # opened from here on belong to the next episode.
    def start(*args, **kwargs):
        tracer.episode += 1
        return fresh_world(*args, **kwargs)

    return start


def _breaker_watch(method: Callable, tracer: Tracer) -> Callable:
    def watched(client, *args, **kwargs):
        was_open = client.circuit_open
        try:
            return method(client, *args, **kwargs)
        finally:
            if not was_open and client.circuit_open:
                tracer.counts["remote.breaker_opens"] += 1

    return watched
