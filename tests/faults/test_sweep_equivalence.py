"""Sweeping R in place must equal injecting at that R directly.

The R searches (critical resistance, R_min bisection, defect
calibration) rely on ``set_fault_resistance`` for speed, while the
coverage sweeps inject every R afresh; if the two ever diverged the
figures would disagree with the searches.
"""

import pytest

from repro.cells import build_path
from repro.faults import (BridgingFault, ExternalOpen, FeedbackBridgingFault,
                          InternalBridgingFault, InternalOpen, PULL_UP,
                          inject, set_fault_resistance)

NAND_CHAIN = ("inv", "nand2", "inv", "nand2", "inv", "inv", "inv")


def circuit_signature(path):
    """Structural fingerprint: element names, terminals and values."""
    signature = {}
    for element in path.circuit.elements():
        entry = dict(element.terminals)
        for attr in ("resistance", "capacitance"):
            if hasattr(element, attr):
                entry[attr] = getattr(element, attr)
        signature[element.name] = entry
    return signature


FAULTS = [
    InternalOpen(2, PULL_UP, 2e3),
    ExternalOpen(2, 2e3),
    BridgingFault(2, 2e3),
    FeedbackBridgingFault(2, 5, 2e3),
]


@pytest.mark.parametrize("fault", FAULTS, ids=lambda f: type(f).__name__)
def test_sweep_matches_fresh_injection(fault):
    path = build_path()
    fresh = inject(path, fault.with_resistance(9e3))
    swept = inject(path, fault)
    set_fault_resistance(swept, 9e3)
    assert circuit_signature(fresh) == circuit_signature(swept)


def test_internal_bridging_sweep_matches():
    path = build_path(gate_kinds=NAND_CHAIN)
    fault = InternalBridgingFault(2, 2e3)
    fresh = inject(path, fault.with_resistance(9e3))
    swept = inject(path, fault)
    set_fault_resistance(swept, 9e3)
    assert circuit_signature(fresh) == circuit_signature(swept)


def test_original_path_never_mutated():
    path = build_path()
    before = circuit_signature(path)
    for fault in FAULTS:
        faulty = inject(path, fault)
        set_fault_resistance(faulty, 5e4)
    assert circuit_signature(path) == before
