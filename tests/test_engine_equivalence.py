"""Metamorphic engine-equivalence suite.

The round engine runs on one of two kernels (``vector``, ``queue`` — see
:mod:`repro.sim.network`).  These tests are the core guard for both: for
every registered protocol, over a grid of seeds, each applicable kernel
must produce an execution **bit-identical** to the original single-list
round loop kept in ``tests/reference_kernel.py`` — the same trace events
in the same order, the same metrics (including per-node counter
*insertion order*), the same outputs, the same stop reason.  A divergence
anywhere means a kernel changed observable semantics, not just speed.
"""

from __future__ import annotations

import pytest

from repro.api import ScenarioSpec, available_protocols
from repro.api.sweep import run_scenario
from repro.sim import ConfigurationError, SynchronousNetwork
from repro.sim.node import NullProcess

from reference_kernel import REFERENCE, run_reference

SEEDS = (0, 1, 2)

#: One representative (deliberately adversarial) scenario per registered
#: protocol.  Churn-capable protocols get churn so the vector kernel's
#: delivery-time membership filtering is exercised, not just the steady
#: state.
SCENARIOS = {
    "reliable-broadcast": dict(
        n=7, f=2, adversary="rb-equivocating-sender", params={"byzantine_sender": True}
    ),
    "rotor-coordinator": dict(n=5, f=1, adversary="rotor-split-echo"),
    "consensus": dict(n=7, f=2, adversary="consensus-split-vote"),
    "approximate-agreement": dict(n=7, f=2, adversary="approx-outlier"),
    "iterated-approximate-agreement": dict(
        n=7, f=2, adversary="approx-outlier", churn={"join_fraction": 0.5, "pool": 4}
    ),
    "parallel-consensus": dict(n=7, f=2, adversary="random-noise"),
    "total-order": dict(
        n=6, f=1, adversary="equivocate-value",
        churn={"rounds": 20, "join_rate": 0.1, "leave_rate": 0.05},
    ),
    "srikanth-toueg-broadcast": dict(n=7, f=2, adversary="rb-false-echo"),
    "known-f-consensus": dict(n=7, f=2, adversary="equivocate-value"),
    "dolev-approx": dict(n=7, f=1, adversary="approx-outlier"),
}


def fingerprint(outcome):
    """Everything observable about a finished run, order included."""

    result = outcome.result
    events = tuple(
        (e.kind, e.round_index, e.node_id, e.peer_id, e.payload, e.detail)
        for e in result.trace
    )
    metrics = result.metrics
    return (
        events,
        metrics.as_dict(),
        tuple(metrics.per_node_sent.items()),
        tuple(metrics.per_node_delivered.items()),
        tuple((d.node_id, d.round_index, d.value) for d in metrics.decisions),
        tuple(sorted((i, p.output, p.halted) for i, p in result.processes.items())),
        result.rounds_executed,
        result.stop_reason,
    )


def test_scenario_table_covers_every_registered_protocol():
    assert sorted(SCENARIOS) == available_protocols()


@pytest.mark.parametrize("protocol", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", SEEDS)
def test_vector_queue_and_reference_are_trace_identical(protocol, seed):
    spec = ScenarioSpec(protocol=protocol, seed=seed, trace=True, **SCENARIOS[protocol])
    reference = fingerprint(run_reference(spec))
    assert fingerprint(run_scenario(spec, engine="vector")) == reference
    assert fingerprint(run_scenario(spec, engine="queue")) == reference


def test_total_order_churn_n50_is_trace_identical_across_kernels():
    """Total-order at n=50 with churn, on both kernels and the reference.

    Before the instance-lifecycle rewrite the protocol's own chain/ack
    bookkeeping made n=50 too slow to run on the reference loop; now
    that per-round cost is bounded by the decide+linger window, the
    bit-identical guarantee is enforced at a size where
    batching, quiescence (first transition ≈ round 20: decide + linger)
    and churn-time delivery filtering are all exercised for real.  Churn
    also forces the vector kernel through its unicast/non-shared fallback
    rounds mid-run.
    """

    spec = ScenarioSpec(
        protocol="total-order",
        n=50,
        f=12,
        adversary="equivocate-value",
        seed=1,
        trace=True,
        churn={"rounds": 24, "join_rate": 0.2, "leave_rate": 0.1},
    )
    reference = fingerprint(run_reference(spec))
    assert fingerprint(run_scenario(spec, engine="vector")) == reference
    assert fingerprint(run_scenario(spec, engine="queue")) == reference


@pytest.mark.parametrize("protocol", ("consensus", "total-order"))
def test_trace_with_payload_accounting_is_kernel_identical(protocol):
    """``trace=True`` + ``enable_payload_accounting()`` on every kernel.

    The columnar trace store and the byte accounting hook into the same
    send/delivery paths of each kernel; running them *together* pins that
    neither feature perturbs the other's recording order or totals — the
    full fingerprint (trace events, payload_bytes per round, peak payload)
    must stay bit-identical across kernels.
    """

    spec = ScenarioSpec(protocol=protocol, seed=2, trace=True, **SCENARIOS[protocol])
    outcomes = {
        engine: run_scenario(spec, engine=engine, payload_accounting=True)
        for engine in ("vector", "queue")
    }
    outcomes[REFERENCE] = run_reference(spec, payload_accounting=True)
    prints = {}
    for engine, outcome in outcomes.items():
        result = outcome.result
        assert len(result.trace) > 0
        assert result.metrics.total_payload_bytes > 0
        prints[engine] = fingerprint(outcome)
    assert prints["vector"] == prints[REFERENCE]
    assert prints["queue"] == prints[REFERENCE]


@pytest.mark.parametrize(
    "delay,delay_params",
    [
        ("uniform-random", {"max_delay": 3}),
        ("bounded-unknown", {"sizes": [4, 3], "delta": 6}),
        ("partition", {"sizes": [4, 3], "heal_round": 5}),
    ],
)
@pytest.mark.parametrize("seed", SEEDS)
def test_queue_matches_reference_under_delay_models(delay, delay_params, seed):
    spec = ScenarioSpec(
        protocol="consensus",
        n=7,
        f=2,
        adversary="consensus-split-vote",
        seed=seed,
        trace=True,
        delay=delay,
        delay_params=delay_params,
        max_rounds=25,
    )
    queued = fingerprint(run_scenario(spec, engine="queue"))
    assert queued == fingerprint(run_reference(spec))


def test_auto_resolves_to_vector_only_for_synchronous_delay():
    sync = SynchronousNetwork([NullProcess(1)])
    assert sync.resolved_engine() == "vector"
    assert sync.tally_backend() == "numpy"
    from repro.sim import UniformRandomDelay

    delayed = SynchronousNetwork([NullProcess(1)], delay_model=UniformRandomDelay())
    assert delayed.resolved_engine() == "queue"
    assert delayed.tally_backend() == "scalar"


def test_vector_engine_rejects_delayed_delivery():
    from repro.sim import UniformRandomDelay

    with pytest.raises(ConfigurationError):
        SynchronousNetwork(
            [NullProcess(1)], delay_model=UniformRandomDelay(), engine="vector"
        )
    spec = ScenarioSpec(
        protocol="consensus", n=4, f=1, delay="uniform-random", seed=0
    )
    with pytest.raises(ConfigurationError):
        run_scenario(spec, engine="vector")


def test_engine_cannot_change_mid_run():
    net = SynchronousNetwork([NullProcess(1)], engine="vector")
    net.step_round()
    with pytest.raises(ConfigurationError):
        net.set_engine("queue")
    net.set_engine(net.engine)  # a no-op reassignment stays allowed


def test_unknown_engine_is_rejected_eagerly_with_choices():
    from repro.sim.errors import UnknownEngineError
    from repro.sim.network import ENGINE_CHOICES

    # Still a ConfigurationError (backwards compatible) *and* a plain
    # ValueError, raised at construction — never at mid-run resolution —
    # with a message listing every known engine.
    with pytest.raises(ConfigurationError):
        SynchronousNetwork([NullProcess(1)], engine="warp")
    with pytest.raises(ValueError) as excinfo:
        SynchronousNetwork([NullProcess(1)], engine="warp")
    message = str(excinfo.value)
    assert "warp" in message
    for choice in ENGINE_CHOICES:
        assert choice in message
    assert excinfo.value.choices == ENGINE_CHOICES
    net = SynchronousNetwork([NullProcess(1)])
    with pytest.raises(UnknownEngineError):
        net.set_engine("warp")
    assert ENGINE_CHOICES == ("auto", "vector", "queue")


@pytest.mark.parametrize("retired", ("fast", "legacy"))
def test_retired_engine_names_are_rejected_at_every_layer(retired):
    # the retired kernels are gone, not aliased: the network, the scenario
    # runner and the sweep runner all refuse their names
    from repro.api import SweepRunner, SweepSpec
    from repro.sim.errors import UnknownEngineError

    with pytest.raises(UnknownEngineError):
        SynchronousNetwork([NullProcess(1)], engine=retired)
    with pytest.raises(UnknownEngineError):
        SynchronousNetwork([NullProcess(1)]).set_engine(retired)
    spec = ScenarioSpec(protocol="consensus", n=4, f=1, seed=0)
    with pytest.raises(UnknownEngineError):
        run_scenario(spec, engine=retired)
    sweep = SweepSpec(protocol="consensus", grid={"n": (4,)}, base_seed=0)
    with pytest.raises(UnknownEngineError):
        SweepRunner(jobs=1, engine=retired).run(sweep)


@pytest.mark.parametrize("value", ("queue", "legacy", "warp"))
def test_engine_env_var_has_no_effect(monkeypatch, value):
    # REPRO_ENGINE used to override ``auto`` with a valid name and to fail
    # construction on an unknown one; the override is deleted, so every
    # value (valid, retired or unknown) leaves engine selection alone.
    from repro.sim import UniformRandomDelay

    monkeypatch.setenv("REPRO_ENGINE", value)
    assert SynchronousNetwork([NullProcess(1)]).resolved_engine() == "vector"
    delayed = SynchronousNetwork([NullProcess(1)], delay_model=UniformRandomDelay())
    assert delayed.resolved_engine() == "queue"
    outcome = run_scenario(ScenarioSpec(protocol="consensus", n=4, f=1, seed=0))
    assert outcome.system.network.resolved_engine() == "vector"


def test_sweep_runner_engine_is_result_identical():
    from repro.api import SweepRunner, SweepSpec

    sweep = SweepSpec(
        protocol="consensus",
        grid={"n": (4, 7), "adversary": ("silent", "consensus-split-vote")},
        repetitions=2,
        base_seed=11,
    )
    by_engine = {
        engine: SweepRunner(jobs=1, engine=engine).run(sweep)
        for engine in (None, "vector", "queue")
    }
    by_engine[REFERENCE] = [
        run_reference(spec).summary_row() for spec in sweep.scenarios()
    ]
    baseline = by_engine[None]
    assert all(rows == baseline for rows in by_engine.values())
