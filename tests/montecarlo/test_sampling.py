"""Variation-model tests: determinism, truncation, scaling."""

import numpy as np
import pytest

from repro.cells import default_technology
from repro.montecarlo import (GLOBAL_FIELDS, NominalModel, VariationModel,
                              sample_population)


class TestDeterminism:
    def test_same_seed_same_global_factors(self):
        a = VariationModel(seed=7)
        b = VariationModel(seed=7)
        assert a.global_factors == b.global_factors

    def test_different_seeds_differ(self):
        a = VariationModel(seed=7)
        b = VariationModel(seed=8)
        assert a.global_factors != b.global_factors

    def test_device_factors_stable_per_name(self):
        m = VariationModel(seed=3)
        assert m.device_factors("g1.MN") == m.device_factors("g1.MN")

    def test_device_factors_differ_per_name(self):
        m = VariationModel(seed=3)
        assert m.device_factors("g1.MN") != m.device_factors("g1.MP")

    def test_device_factors_independent_of_call_order(self):
        m1 = VariationModel(seed=3)
        f_a_first = m1.device_factors("a")
        m1.device_factors("b")
        m2 = VariationModel(seed=3)
        m2.device_factors("b")
        assert m2.device_factors("a") == f_a_first

    def test_timing_factor_stable(self):
        m = VariationModel(seed=3)
        assert m.timing_factor("ff0.cq") == m.timing_factor("ff0.cq")

    def test_memoized_timing_factors_equal_fresh_draws(self):
        """A label's factor is drawn once per instance; read again, in
        any order, it equals a fresh instance's first draw bit for
        bit."""
        labels = ["gate:g{}:{}".format(i, edge) for i in range(20)
                  for edge in ("lh", "hl")]
        m = VariationModel(seed=11)
        first = [m.timing_factor(label) for label in labels]
        again = [m.timing_factor(label) for label in reversed(labels)]
        fresh = [VariationModel(seed=11).timing_factor(label)
                 for label in labels]
        assert [f.hex() for f in first] == [f.hex() for f in fresh]
        assert again[::-1] == first

    def test_memo_leaves_the_cache_token(self):
        from repro.runtime import stable_hash

        m = VariationModel(seed=11)
        before = stable_hash(m)
        m.timing_factor("ff0.cq")
        m.timing_factor("gate:g1:lh")
        assert stable_hash(m) == before == stable_hash(VariationModel(11))

    def test_pickle_carries_no_memo(self):
        import pickle

        m = VariationModel(seed=11)
        value = m.timing_factor("ff0.cq")
        copy = pickle.loads(pickle.dumps(m))
        assert copy._timing_factors == {}
        assert m._timing_factors == {"ff0.cq": value}
        assert copy.timing_factor("ff0.cq") == value
        assert copy.global_factors == m.global_factors


class TestTruncation:
    def test_factors_within_three_sigma(self):
        for seed in range(50):
            m = VariationModel(seed=seed, sigma_global=0.1)
            for factor in m.global_factors.values():
                assert 0.7 - 1e-12 <= factor <= 1.3 + 1e-12

    def test_device_factors_within_three_sigma(self):
        m = VariationModel(seed=5, sigma_local=0.1)
        for i in range(100):
            for f in m.device_factors("dev{}".format(i)):
                assert 0.7 - 1e-12 <= f <= 1.3 + 1e-12

    def test_factors_scatter_around_one(self):
        values = [VariationModel(seed=s).global_factors["kpn"]
                  for s in range(200)]
        assert abs(np.mean(values) - 1.0) < 0.02


class TestNominal:
    def test_everything_is_one(self):
        m = NominalModel()
        assert all(f == 1.0 for f in m.global_factors.values())
        assert m.device_factors("anything") == (1.0, 1.0, 1.0)
        assert m.timing_factor("anything") == 1.0

    def test_apply_to_technology_identity(self):
        tech = default_technology()
        assert NominalModel().apply_to_technology(tech) is tech


class TestTechnologyApplication:
    def test_scales_expected_fields(self):
        tech = default_technology()
        m = VariationModel(seed=9, sigma_global=0.1)
        perturbed = m.apply_to_technology(tech)
        for field in GLOBAL_FIELDS:
            assert getattr(perturbed, field) == pytest.approx(
                getattr(tech, field) * m.global_factors[field])

    def test_untouched_fields_stay(self):
        tech = default_technology()
        m = VariationModel(seed=9)
        perturbed = m.apply_to_technology(tech)
        assert perturbed.vdd == tech.vdd
        assert perturbed.length == tech.length


class TestPopulation:
    def test_population_size_and_distinct_seeds(self):
        pop = sample_population(10, base_seed=100)
        assert len(pop) == 10
        assert len({m.seed for m in pop}) == 10

    def test_population_reproducible(self):
        a = sample_population(4, base_seed=1)
        b = sample_population(4, base_seed=1)
        assert [m.global_factors for m in a] == [m.global_factors for m in b]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_population(0)

    def test_kwargs_forwarded(self):
        pop = sample_population(2, sigma_local=0.2)
        assert all(m.sigma_local == 0.2 for m in pop)
