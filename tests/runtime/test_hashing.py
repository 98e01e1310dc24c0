"""Stable hashing tests: keys must be deterministic across processes."""

import os
import subprocess
import sys

import numpy as np

from repro.cells import default_technology
from repro.faults import ExternalOpen, InternalOpen, PULL_UP
from repro.montecarlo import NominalModel, VariationModel
from repro.runtime import canonical_token, stable_hash, stable_hashes


class TestCanonicalToken:
    def test_scalars(self):
        assert canonical_token(None) is None
        assert canonical_token(True) is True
        assert canonical_token(3) == 3
        assert canonical_token("x") == "x"
        assert canonical_token(0.1) == repr(0.1)

    def test_numpy_lowered(self):
        assert canonical_token(np.float64(0.25)) == repr(0.25)
        assert canonical_token(np.int64(3)) == 3
        token = canonical_token(np.array([1.0, 2.0]))
        assert token[0] == "ndarray"

    def test_dict_order_independent(self):
        assert (canonical_token({"a": 1, "b": 2})
                == canonical_token({"b": 2, "a": 1}))

    def test_domain_objects(self):
        # fallback path: class name + public attributes
        a = stable_hash(ExternalOpen(2, 8e3))
        b = stable_hash(ExternalOpen(2, 8e3))
        c = stable_hash(ExternalOpen(3, 8e3))
        d = stable_hash(InternalOpen(2, PULL_UP, 8e3))
        assert a == b
        assert len({a, c, d}) == 3

    def test_unhashable_rejected(self):
        class Slotted:
            __slots__ = ("x",)
        try:
            canonical_token(Slotted())
        except TypeError:
            pass
        else:
            raise AssertionError("expected TypeError")


class TestStableHash:
    def test_variation_models_distinct(self):
        assert (stable_hash(VariationModel(seed=1))
                != stable_hash(VariationModel(seed=2)))
        assert (stable_hash(VariationModel(seed=1))
                == stable_hash(VariationModel(seed=1)))

    def test_nominal_vs_sampled(self):
        assert (stable_hash(NominalModel())
                != stable_hash(VariationModel(seed=0)))

    def test_technology_sensitivity(self):
        tech = default_technology()
        assert stable_hash(tech) == stable_hash(default_technology())
        assert stable_hash(tech) != stable_hash(tech.copy(vdd=2.4))

    def test_shared_parts_lowered_once(self):
        """``stable_hashes`` gives ``stable_hash``'s bytes, whichever
        parts it shares."""
        shared = [VariationModel(seed=1), {"dt": 3e-12}, [1.0, np.int64(2)]]
        varying = ["N1", 0.25, None, ExternalOpen(2, 8e3), []]
        for cut in range(len(shared) + 1):
            head, tail = shared[:cut], shared[cut:]
            assert stable_hashes(head, varying, tail) == [
                stable_hash(*head, value, *tail) for value in varying]
        assert stable_hashes((), ["x"]) == [stable_hash("x")]
        assert stable_hashes(("a",), []) == []

    def test_stable_across_processes(self):
        """Same inputs must hash identically in a fresh interpreter
        (content-addressed cache entries survive process restarts)."""
        import repro
        src = os.path.dirname(os.path.dirname(repro.__file__))
        script = (
            "import sys; sys.path.insert(0, {!r});"
            "from repro.runtime import stable_hash;"
            "from repro.montecarlo import VariationModel;"
            "from repro.faults import ExternalOpen;"
            "print(stable_hash('sweep-row', VariationModel(seed=7),"
            " ExternalOpen(2, 8e3), [1000.0, 8000.0], 3e-12))"
        ).format(src)
        expected = stable_hash("sweep-row", VariationModel(seed=7),
                               ExternalOpen(2, 8e3), [1000.0, 8000.0],
                               3e-12)
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True,
            text=True, check=True)
        assert out.stdout.strip() == expected
