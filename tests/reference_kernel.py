"""The original single-list round loop, kept as the tests' reference oracle.

:class:`repro.sim.network.SynchronousNetwork` runs on two kernels (``vector``
for lock-step delivery, ``queue`` for delayed delivery).  Both are compared
against this loop: the round engine as it was before the staged and bucketed
kernels existed — one flat pending-envelope list rescanned every round, one
private inbox per node, one trace event per call.  It is slow on purpose and
lives only here, outside the runtime.

:class:`ReferenceNetwork` is a ``SynchronousNetwork`` whose rounds run on
that loop; :func:`run_reference` mirrors :func:`repro.api.sweep.run_scenario`
on it, swapping the class of the registry-built network before round 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.api.registry import REGISTRY
from repro.api.spec import ScenarioSpec
from repro.api.sweep import ScenarioOutcome, resolve_stop
from repro.sim.events import EventKind
from repro.sim.errors import InvalidOutgoingError
from repro.sim.messages import (
    Broadcast,
    Envelope,
    Inbox,
    NodeId,
    Outgoing,
    Payload,
    Unicast,
    payload_nbytes,
)
from repro.sim.network import SynchronousNetwork, SystemView
from repro.sim.node import RoundView

#: Engine label under which tests report the reference loop.
REFERENCE = "reference"


@dataclass
class InboxBuilder:
    """Mutable accumulator used by the network while routing envelopes."""

    _pairs: dict[NodeId, list[tuple[NodeId, Payload]]] = field(default_factory=dict)

    def add(self, dest: NodeId, sender: NodeId, payload: Payload) -> None:
        self._pairs.setdefault(dest, []).append((sender, payload))

    def build(self, dest: NodeId) -> Inbox:
        pairs = self._pairs.get(dest)
        if not pairs:
            return Inbox.empty()
        return Inbox.from_pairs(pairs)


class ReferenceNetwork(SynchronousNetwork):
    """A :class:`SynchronousNetwork` whose rounds run on the reference loop.

    Accepts every ``delay_model``; its inboxes are plain per-node
    :class:`Inbox` objects, so protocol tallies use the scalar backend.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._legacy_pending: list[Envelope] = []

    def resolved_engine(self) -> str:
        return REFERENCE

    def step_round(self) -> None:
        self._step_round_legacy()

    def _step_round_legacy(self) -> None:
        """The original pre-bucketing round loop, preserved verbatim.

        This is the oracle the equivalence tests compare the vector and
        queue engines against.  It deliberately keeps the original cost
        profile: a flat pending list scanned in full every round, fresh
        ``sorted(self._active)`` calls, per-delivery metric updates and an
        unconditionally constructed :class:`SystemView`.  The one deviation
        is trace recording, which goes through the scalar
        :meth:`~repro.sim.events.Trace.record_event` interface (one call
        per event, like the original) — the columnar store has no
        per-event object to build.
        """

        self._round += 1
        round_index = self._round
        self._apply_membership_changes(round_index)
        round_metrics = self._metrics.start_round(round_index)
        self._trace.record_event(EventKind.ROUND_START, round_index)

        # 1. Deliver messages scheduled for this round.
        builder = InboxBuilder()
        still_pending: list[Envelope] = []
        for envelope in self._legacy_pending:
            if envelope.deliver_round > round_index:
                still_pending.append(envelope)
                continue
            if envelope.dest not in self._active:
                continue  # the destination left before delivery
            builder.add(envelope.dest, envelope.sender, envelope.payload)
            self._trace.record_event(
                EventKind.MESSAGE_DELIVERED,
                round_index,
                node_id=envelope.dest,
                peer_id=envelope.sender,
                payload=envelope.payload,
            )
        self._legacy_pending = still_pending

        # 2. Step every active process.
        active_ids = frozenset(self._active)
        byzantine_ids = frozenset(
            i for i in self._active if self._processes[i].is_byzantine
        )
        round_metrics.active_nodes = len(active_ids)
        round_metrics.byzantine_nodes = len(byzantine_ids)
        system_view = SystemView(
            round_index=round_index,
            active_ids=active_ids,
            byzantine_ids=byzantine_ids,
            correct_processes={
                i: p for i, p in self._processes.items() if not p.is_byzantine
            },
            rng=self._rng,
        )

        outgoing_by_node: dict[NodeId, Sequence[Outgoing]] = {}
        for node_id in sorted(self._active):
            process = self._processes[node_id]
            if process.halted:
                round_metrics.halted_nodes += 1
                continue
            inbox = builder.build(node_id)
            self._metrics.record_delivery(node_id, len(inbox))
            if process.is_byzantine and hasattr(process, "observe_system"):
                process.observe_system(system_view)
            view = RoundView(round_index=round_index, inbox=inbox)
            outgoing = process.step(view)
            if outgoing:
                outgoing_by_node[node_id] = outgoing
            self._record_decision(process, round_index)
            if process.halted:
                self._trace.record_event(
                    EventKind.NODE_HALTED, round_index, node_id=node_id
                )

        # 3. Schedule the outgoing messages.
        for node_id, actions in outgoing_by_node.items():
            for action in actions:
                self._schedule_legacy(node_id, action, round_index)

    def _schedule_legacy(
        self, sender: NodeId, action: Outgoing, round_index: int
    ) -> None:
        if isinstance(action, Broadcast):
            destinations = sorted(self._active)
            self._metrics.record_send(sender, len(destinations), broadcast=True)
            if self._measure_bytes:
                self._metrics.record_payload(
                    payload_nbytes(action.payload), len(destinations)
                )
            for dest in destinations:
                self._enqueue_legacy(sender, dest, action.payload, round_index)
        elif isinstance(action, Unicast):
            self._metrics.record_send(sender, 1, broadcast=False)
            if self._measure_bytes:
                self._metrics.record_payload(payload_nbytes(action.payload), 1)
            self._enqueue_legacy(sender, action.dest, action.payload, round_index)
        else:
            raise InvalidOutgoingError(sender, action)

    def _enqueue_legacy(
        self, sender: NodeId, dest: NodeId, payload: Any, round_index: int
    ) -> None:
        deliver = self._delay_model.delivery_round(sender, dest, round_index, self._rng)
        self._legacy_pending.append(
            Envelope(
                sender=sender,
                dest=dest,
                payload=payload,
                sent_round=round_index,
                deliver_round=deliver,
            )
        )
        self._trace.record_event(
            EventKind.MESSAGE_SENT,
            round_index,
            node_id=sender,
            peer_id=dest,
            payload=payload,
        )


def run_reference(
    spec: ScenarioSpec, *, payload_accounting: bool = False
) -> ScenarioOutcome:
    """:func:`~repro.api.sweep.run_scenario` on the reference loop."""

    info = REGISTRY.info(spec.protocol)
    system = REGISTRY.build(spec)
    network = system.network
    # Swapped before round 1, so the reference loop runs the whole scenario.
    network.__class__ = ReferenceNetwork
    network._legacy_pending = []
    if payload_accounting:
        network.enable_payload_accounting()
    max_rounds = (
        spec.max_rounds if spec.max_rounds is not None else info.default_max_rounds(spec)
    )
    result = network.run(max_rounds=max_rounds, stop_when=resolve_stop(spec, info))
    return ScenarioOutcome(spec=spec, system=system, result=result)
