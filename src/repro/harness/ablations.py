"""Ablations A1–A2 of the implementation's design decisions.

These are not part of the paper's claims; they quantify why the
implementation makes the choices it makes:

* **A1 — substitution rule.**  Algorithm 3's missing-message substitution
  must be restricted to nodes that never speak inside the loop.  The
  "broad" variant (substitute for anyone who skipped the current round)
  looks like a harmless liveness aid but is unsound: under a split-vote
  adversary two correct nodes can be pushed over conflicting ``2·nv/3``
  quorums and decide different values.  The ablation measures the
  agreement rate of both variants under identical workloads.

* **A2 — assumed fault bound in the classic baselines.**  The known-(n, f)
  algorithms keep their guarantees only while the configured ``f`` is a
  true upper bound; the ablation sweeps the configured value below the real
  number of Byzantine nodes and measures how often the classic reliable
  broadcast accepts a forged message, something the id-only algorithm
  cannot be misconfigured into.
"""

from __future__ import annotations

from ..analysis.properties import consensus_agreement
from ..analysis.stats import aggregate_rows
from ..api import ScenarioSpec, run_scenario
from ..core.quorums import max_faults_tolerated
from ..sim.rng import derive
from .experiments import ExperimentResult

__all__ = ["a1_substitution_rule", "a2_misconfigured_fault_bound", "ABLATIONS"]


def a1_substitution_rule(scale: int = 1, seed: int = 101) -> ExperimentResult:
    """A1: narrow (paper) vs broad (unsound) missing-message substitution."""

    rows: list[dict[str, object]] = []
    sizes = [10, 13] + ([16, 19] if scale > 1 else [])
    for n in sizes:
        f = max_faults_tolerated(n)
        for rule in ("narrow", "broad"):
            # Plain small integer seeds: the broad rule's failure depends on
            # how the adversary's per-destination split lines up with the
            # correct nodes' input split, and this seed range contains both
            # benign and violating alignments.
            for rep in range(8 * scale):
                outcome = run_scenario(
                    ScenarioSpec(
                        protocol="consensus",
                        n=n,
                        f=f,
                        adversary="consensus-split-vote",
                        seed=rep,
                        max_rounds=60,
                        params={"substitution": rule},
                    )
                )
                outputs = outcome.outputs()
                rows.append(
                    {
                        "n": n,
                        "f": f,
                        "substitution": rule,
                        "agreement": consensus_agreement(outputs),
                    }
                )
    aggregated = aggregate_rows(rows, group_by=["substitution", "n"], metrics=["agreement"])
    return ExperimentResult(
        experiment_id="A1",
        title="Ablation: missing-message substitution rule",
        claim="The narrow rule preserves agreement; the broad rule is unsound under a split-vote adversary.",
        rows=aggregated,
        notes="broad substitution lets the local node vote on behalf of any silent peer, inflating conflicting quorums.",
    )


def a2_misconfigured_fault_bound(scale: int = 1, seed: int = 103) -> ExperimentResult:
    """A2: what the classic known-f reliable broadcast does when f is wrong."""

    rows: list[dict[str, object]] = []
    n, real_f = 10, 3
    for assumed_f in range(0, real_f + 2):
        for rep in range(3 * scale):
            run_seed = derive(seed, assumed_f, rep)
            classic = run_scenario(
                ScenarioSpec(
                    protocol="srikanth-toueg-broadcast",
                    n=n,
                    f=real_f,
                    adversary="rb-false-echo",
                    seed=run_seed,
                    max_rounds=10,
                    stop="never",
                    params={"assumed_f": assumed_f},
                )
            )
            source = classic.system.params["source"]
            correct = classic.system.correct_ids
            forged = any(
                rec.message == "forged"
                for i in correct
                for rec in classic.network.process(i).accepted
            )
            delivered = all(
                classic.network.process(i).has_accepted("hello", source) for i in correct
            )
            # The id-only algorithm on the identical workload, for contrast.
            id_only = run_scenario(
                ScenarioSpec(
                    protocol="reliable-broadcast",
                    n=n,
                    f=real_f,
                    adversary="rb-false-echo",
                    seed=run_seed,
                    max_rounds=10,
                    stop="never",
                )
            )
            id_only_forged = any(
                rec.message == "forged"
                for i in id_only.system.correct_ids
                for rec in id_only.network.process(i).accepted
            )
            rows.append(
                {
                    "assumed_f": assumed_f,
                    "real_f": real_f,
                    "classic_accepts_forgery": forged,
                    "classic_delivers": delivered,
                    "id_only_accepts_forgery": id_only_forged,
                }
            )
    aggregated = aggregate_rows(
        rows,
        group_by=["assumed_f", "real_f"],
        metrics=["classic_accepts_forgery", "classic_delivers", "id_only_accepts_forgery"],
    )
    return ExperimentResult(
        experiment_id="A2",
        title="Ablation: misconfigured fault bound in the classic baseline",
        claim="The classic algorithm's unforgeability depends on the configured f; the id-only algorithm has no such knob.",
        rows=aggregated,
    )


ABLATIONS = {
    "A1": a1_substitution_rule,
    "A2": a2_misconfigured_fault_bound,
}
