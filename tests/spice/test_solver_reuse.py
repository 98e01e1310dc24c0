"""What the removed factorization-reuse solver leaves to test.

The scalar ``reuse`` Newton and its ``exact`` reference are gone: every
transient runs the lockstep engine, a population of one included.  This
file keeps the lockstep engine's check against the scalar exact-Newton
waveforms it was compared with (now a pinned reference, see
``test_batch_engine.py``) and the companion-base cache both lowerings
keep.
"""

import numpy as np
import pytest

from repro.cells import build_path
from repro.montecarlo import sample_population
from repro.core.pulse import build_instance
from repro.spice.batch import BatchCompiledCircuit
from repro.spice.mna import _COMPANION_CACHE_MAX, CompiledCircuit
from repro.spice.transient import TRAPEZOIDAL

from .test_batch_engine import assert_matches_scalar_exact

DT = 4e-12
TSTOP = 1.2e-9


def _inverter_chain(n_gates=3, w_in=0.15e-9):
    path = build_path(gate_kinds=("inv",) * n_gates)
    path.set_input_pulse(w_in)
    return path


class TestBatchEquivalence:
    def _population(self, n=4):
        samples = sample_population(n, base_seed=7)
        paths = [build_instance(sample=s, gate_kinds=("inv",) * 3)
                 for s in samples]
        for p in paths:
            p.set_input_pulse(0.15e-9)
        return paths

    def test_batch_matches_scalar_exact(self):
        """Lockstep runs exact Newton, so it holds the scalar exact
        reference far inside the 1e-6 V engine bound."""
        assert_matches_scalar_exact("inverter_chain_population",
                                    self._population(), TSTOP, DT)


class TestCompanionBaseCache:
    def test_identity_is_stable(self):
        compiled = CompiledCircuit(_inverter_chain().circuit)
        a1 = compiled.companion_base(TRAPEZOIDAL, 1.0)
        a2 = compiled.companion_base(TRAPEZOIDAL, 1.0)
        assert a1 is a2

    def test_distinct_keys_distinct_matrices(self):
        compiled = CompiledCircuit(_inverter_chain().circuit)
        a1 = compiled.companion_base(TRAPEZOIDAL, 1.0)
        a2 = compiled.companion_base(TRAPEZOIDAL, 2.0)
        assert a1 is not a2
        assert not np.array_equal(a1, a2)

    def test_cached_matrix_is_read_only(self):
        compiled = CompiledCircuit(_inverter_chain().circuit)
        a1 = compiled.companion_base(TRAPEZOIDAL, 1.0)
        with pytest.raises(ValueError):
            a1[0, 0] = 123.0

    def test_lru_eviction_bounds_cache(self):
        compiled = CompiledCircuit(_inverter_chain().circuit)
        first = compiled.companion_base(TRAPEZOIDAL, 1.0)
        for i in range(_COMPANION_CACHE_MAX):
            compiled.companion_base(TRAPEZOIDAL, 2.0 + i)
        assert len(compiled._companion_cache) <= _COMPANION_CACHE_MAX
        # the first entry was the oldest: it has been evicted, so a
        # fresh request rebuilds a distinct object
        assert compiled.companion_base(TRAPEZOIDAL, 1.0) is not first

    def test_batch_identity_is_stable(self):
        paths = [_inverter_chain(), _inverter_chain()]
        batch = BatchCompiledCircuit([p.circuit for p in paths])
        a1 = batch.companion_base(TRAPEZOIDAL, 1.0)
        assert batch.companion_base(TRAPEZOIDAL, 1.0) is a1
