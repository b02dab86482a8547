"""Workload primitives: identifiers, inputs, adversary placement, networks.

Per-protocol systems are built from a :class:`repro.api.ScenarioSpec` with
:func:`repro.api.build_system` or :func:`repro.api.run_scenario`.
"""

from .generators import (
    SystemSpec,
    binary_inputs,
    build_network,
    real_inputs,
    sparse_ids,
    split_correct_byzantine,
)

__all__ = [
    "SystemSpec",
    "binary_inputs",
    "build_network",
    "real_inputs",
    "sparse_ids",
    "split_correct_byzantine",
]
