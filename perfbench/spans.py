"""Outside-in spans for the traced run.

Nothing here edits the program: :class:`Tracer` swaps wrappers onto the
public functions each layer exposes, at the place their caller looks them
up (a module global for ``run_scenario``/``record_from_outcome``, a class
attribute for methods), and restores the originals on exit.

Two kinds of boundary are recorded:

* **Spans** (name, start, end, parent) for the coarse layer calls: the
  sweep, ``run_scenario``, ``ProtocolRegistry.build``,
  ``SynchronousNetwork.run``/``step_round``, every protocol class's
  ``step``, ``record_from_outcome`` and ``RunStore.put_run``.
* **Leaf timers** for calls too frequent to keep one span each
  (``DelayModel.delivery_round`` and the ``synchronous`` check, the
  ``Trace.record_*`` methods): only a count and a time total, charged to
  the enclosing span as child time.

A layer's self time is its spans' duration minus the time their child
spans and leaf timers cover.  Tally builds run inside protocol steps; the
program's own ``repro.core.tally.profile_snapshot()`` clock is read at
every span boundary and the tally seconds a span contains (less those of
its child spans) move from that span's layer to ``tally.build``.  By
construction the self times of all layers add up to the duration of the
root spans.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

from repro.api import registry
from repro.core.tally import profile_snapshot
from repro.sim.delays import DelayModel
from repro.sim.events import Trace
from repro.sim.messages import ColumnarInbox
from repro.sim.metrics import RunMetrics
from repro.sim.network import SynchronousNetwork
from repro.sim.node import Process
from repro.store import resumable
from repro.store.db import RunStore

def _subclasses(cls: type) -> list[type]:
    found, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return [cls] + found


def _tally_seconds() -> float:
    return profile_snapshot()["seconds"]


class Tracer:
    """In-memory span recorder; use as a context manager around a pass."""

    def __init__(self) -> None:
        #: One ``[layer, start, end, parent_index]`` entry per span.
        self.spans: list[list] = []
        #: Self seconds per layer; together they cover the root spans.
        self.self_s: dict[str, float] = defaultdict(float)
        #: Inclusive seconds per span layer.
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._round_inboxes: dict[int, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, layer: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        tally = _tally_seconds()
        self.spans.append([layer, perf_counter(), 0.0, parent])
        # [span index, child seconds, tally seconds at open, child tally seconds]
        self._stack.append([len(self.spans) - 1, 0.0, tally, 0.0])

    def close(self) -> None:
        index, child_s, tally_open, child_tally = self._stack.pop()
        end = perf_counter()
        tally_in = _tally_seconds() - tally_open
        span = self.spans[index]
        span[2] = end
        duration = end - span[1]
        own_tally = tally_in - child_tally
        self.self_s[span[0]] += duration - child_s - own_tally
        self.self_s["tally.build"] += own_tally
        self.total_s[span[0]] += duration
        if self._stack:
            parent = self._stack[-1]
            parent[1] += duration
            parent[3] += tally_in

    def leaf(self, layer: str, seconds: float, counted: bool = True) -> None:
        self.self_s[layer] += seconds
        if counted:
            self.counts[layer] += 1
        if self._stack:
            self._stack[-1][1] += seconds

    def _inside(self, layer: str) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1][0]][0] == layer

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    # -- wrappers ----------------------------------------------------------

    def _patch(self, owner: object, name: str, make) -> None:
        original = getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, make(original))

    def _span(self, layer: str):
        def make(fn):
            @wraps(fn)
            def wrapper(*args, **kwargs):
                self.open(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close()

            return wrapper

        return make

    def _leaf(self, layer: str, counted: bool = True):
        def make(fn):
            @wraps(fn)
            def wrapper(*args, **kwargs):
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.leaf(layer, perf_counter() - start, counted)

            return wrapper

        return make

    def _counted(self, key: str):
        def make(fn):
            @wraps(fn)
            def wrapper(*args, **kwargs):
                self.counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def _schedule(self, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            schedule = fn(*args, **kwargs)
            for event in schedule.events:
                self.counts[f"dynamic.{event.kind}s"] += 1
            return schedule

        return wrapper

    def _step(self, fn):
        @wraps(fn)
        def wrapper(process, view):
            layer = "adversary.step" if process.is_byzantine else "core.step"
            if not self._inside(layer):  # super().step chains count once
                self.counts[layer] += 1
                if layer == "core.step":
                    self._round_inboxes.setdefault(id(view.inbox), view.inbox)
            self.open(layer)
            try:
                return fn(process, view)
            finally:
                self.close()

        return wrapper

    def _round(self, fn):
        @wraps(fn)
        def wrapper(network):
            self._round_inboxes.clear()
            self.counts["sim.rounds"] += 1
            self.open("sim.round")
            try:
                return fn(network)
            finally:
                self.close()
                inboxes = list(self._round_inboxes.values())
                self._round_inboxes.clear()
                if inboxes:
                    self.counts["sim.stepped_rounds"] += 1
                    self.counts["sim.inboxes"] += len(inboxes)
                    self.counts["sim.nonempty_inboxes"] += sum(1 for i in inboxes if len(i))
                    self.counts["sim.columnar_inboxes"] += sum(
                        1 for i in inboxes if isinstance(i, ColumnarInbox)
                    )

        return wrapper

    def __enter__(self) -> "Tracer":
        self._patch(resumable.ResumableSweep, "run_specs", self._span("store.sweep"))
        self._patch(resumable, "run_scenario", self._span("api.run"))
        self._patch(registry.ProtocolRegistry, "build", self._span("api.build"))
        self._patch(SynchronousNetwork, "run", self._span("sim.run"))
        self._patch(SynchronousNetwork, "step_round", self._round)
        self._patch(resumable, "record_from_outcome", self._span("store.record"))
        self._patch(RunStore, "put_run", self._span("store.put"))
        for cls in _subclasses(Process):
            if "step" in vars(cls) and not getattr(cls.step, "__isabstractmethod__", False):
                self._patch(cls, "step", self._step)
        for cls in _subclasses(DelayModel):
            if "delivery_round" in vars(cls) and not getattr(
                cls.delivery_round, "__isabstractmethod__", False
            ):
                self._patch(cls, "delivery_round", self._leaf("delays"))
            if "synchronous" in vars(cls):
                # The kernel asks the delay model once a round which kernel
                # to run; timed, not counted, so delays.calls stays the
                # delivery_round count.
                timed = self._leaf("delays", counted=False)
                self._patch(cls, "synchronous", lambda prop: property(timed(prop.fget)))
        for name in ("record_event", "record_sends_columnar", "record_deliveries_columnar"):
            self._patch(Trace, name, self._leaf("trace.record"))
        self._patch(RunMetrics, "record_send", self._counted("metrics.record_send_calls"))
        self._patch(SynchronousNetwork, "add_process", self._counted("dynamic.joins"))
        self._patch(SynchronousNetwork, "remove_process", self._counted("dynamic.leaves"))
        for name in ("generate_churn_schedule", "generate_flash_crowd_schedule"):
            self._patch(registry, name, self._schedule)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Write the recorded spans as one JSON document."""

        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": ["layer", "start", "end", "parent"], "spans": self.spans},
                handle,
                separators=(",", ":"),
            )
