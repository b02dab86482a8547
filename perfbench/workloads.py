"""The benchmark's four workloads, as scenario lists derived from one seed.

Every workload is a plain list of :class:`repro.api.ScenarioSpec` values.
All scenario seeds derive from the workload seed through
:func:`repro.sim.rng.derive`, so the same ``--seed`` always yields the same
inputs, and the program under test only ever sees the generated specs.
"""

from __future__ import annotations

from repro.api import ScenarioSpec, SweepSpec
from repro.sim.rng import derive

#: The seed the pinned signatures in ``signatures.json`` were taken on.
DEFAULT_SEED = 1


def _spec(seed: int, tag: str, rep: int, protocol: str, n: int, **fields) -> ScenarioSpec:
    return ScenarioSpec(
        protocol=protocol,
        n=n,
        f=(n - 1) // 3,
        seed=derive(seed, tag, rep),
        **fields,
    )


def sync_quorum(seed: int) -> list[ScenarioSpec]:
    """Broadcast-only rounds at large n: one shared columnar inbox a round."""

    specs = []
    for rep in range(3):
        specs += [
            _spec(seed, "rb", rep, "reliable-broadcast", 2000, adversary="silent"),
            _spec(seed, "cons", rep, "consensus", 1000, adversary="crash"),
            _spec(
                seed, "approx", rep, "approximate-agreement", 1000,
                adversary="silent", params={"iterations": 4},
            ),
            _spec(seed, "pc", rep, "parallel-consensus", 400, adversary="crash"),
            _spec(seed, "rotor", rep, "rotor-coordinator", 250, adversary="silent"),
        ]
    return specs


def byzantine_unicast(seed: int) -> list[ScenarioSpec]:
    """Unicasting attackers: every round falls back to per-node inboxes."""

    specs = []
    for rep in range(5):
        specs += [
            _spec(seed, "cons", rep, "consensus", 20, adversary="consensus-split-vote"),
            _spec(seed, "cons-eqv", rep, "consensus", 32, adversary="equivocate-value"),
            _spec(seed, "rotor", rep, "rotor-coordinator", 100,
                  adversary="rotor-candidate-stuffer"),
            _spec(seed, "rb", rep, "reliable-broadcast", 160,
                  adversary="rb-equivocating-sender", params={"byzantine_sender": True}),
            _spec(seed, "pc", rep, "parallel-consensus", 64,
                  adversary="coordinated-equivocation"),
            _spec(seed, "approx", rep, "approximate-agreement", 100,
                  adversary="approx-outlier"),
            _spec(
                seed, "to", rep, "total-order", 11, adversary="random-noise",
                churn={"join_rate": 0.25, "leave_rate": 0.15, "rounds": 24},
            ),
        ]
    return specs


def async_event_trace(seed: int) -> list[ScenarioSpec]:
    """Non-synchronous delays with full event traces, persisted as segments."""

    specs = []
    for rep in range(5):
        specs += [
            _spec(seed, "rotor", rep, "rotor-coordinator", 64, delay="heavy-tail", trace=True),
            _spec(seed, "rb", rep, "reliable-broadcast", 128, delay="uniform-random",
                  trace=True),
            _spec(seed, "approx", rep, "approximate-agreement", 128, delay="jittered",
                  trace=True),
            _spec(seed, "cons", rep, "consensus", 64, delay="uniform-random",
                  max_rounds=30, trace=True),
            _spec(
                seed, "part", rep, "consensus", 64, delay="partition",
                delay_params={"sizes": [32, 32], "heal_round": 20}, trace=True,
            ),
        ]
    return specs


#: Each small-n protocol with the attacker it is swept against.
SMALL_N_ATTACKERS = (
    ("reliable-broadcast", "rb-false-echo"),
    ("rotor-coordinator", "rotor-candidate-stuffer"),
    ("consensus", "consensus-split-vote"),
    ("parallel-consensus", "coordinated-equivocation"),
    ("approximate-agreement", "approx-outlier"),
)


def small_n_sweep(seed: int) -> list[ScenarioSpec]:
    """480 cheap cells, where per-scenario fixed costs dominate.

    Twelve closely spaced sizes keep the per-cell time distribution smooth,
    so its p90 does not sit in a gap between a few very different cells.
    """

    return [
        spec
        for protocol, attacker in SMALL_N_ATTACKERS
        for spec in SweepSpec(
            protocol=protocol,
            grid={"n": tuple(range(4, 27, 2)), "adversary": ("silent", attacker)},
            repetitions=4,
            base_seed=seed,
            seed_tags=("small-n",),
        ).scenarios()
    ]


#: Workload name -> scenario generator, in the round-robin order.
WORKLOADS = {
    "sync-quorum": sync_quorum,
    "byzantine-unicast": byzantine_unicast,
    "async-event-trace": async_event_trace,
    "small-n-sweep": small_n_sweep,
}


def warmup_specs(specs: list[ScenarioSpec]) -> list[ScenarioSpec]:
    """Untimed warm-up: each protocol of the workload once, at n = 7.

    A protocol's first execution in a process pays one-off costs (first
    calls into its code paths, tallies memoised on the process-wide empty
    inbox); the warm-up moves most of them out of the timed passes.
    """

    first = {}
    for spec in specs:
        first.setdefault(spec.protocol, spec)
    return [spec.replace(n=7, f=2) for spec in first.values()]
