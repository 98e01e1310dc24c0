"""ChaosConfig spec parsing and deterministic-decision tests."""

import os

import pytest

from repro.runtime import (ChaosConfig, ChaosSpecError, ResultCache,
                           stable_hash)


class TestSpecParsing:
    def test_full_spec_round_trip(self):
        chaos = ChaosConfig.parse(
            "kill=0.2,corrupt=0.1,hang=0.05,seed=7,hang_s=9.5,"
            "kill_attempts=2,hang_attempts=3")
        assert chaos.kill_p == 0.2
        assert chaos.corrupt_p == 0.1
        assert chaos.hang_p == 0.05
        assert chaos.seed == 7
        assert chaos.hang_s == 9.5
        assert chaos.kill_attempts == 2
        assert chaos.hang_attempts == 3
        assert chaos.active

    def test_parse_accepts_config_instances(self):
        chaos = ChaosConfig(kill_p=0.5)
        assert ChaosConfig.parse(chaos) is chaos

    def test_unknown_knob_rejected(self):
        with pytest.raises(ChaosSpecError):
            ChaosConfig.parse("explode=1.0")

    def test_bad_value_rejected(self):
        with pytest.raises(ChaosSpecError):
            ChaosConfig.parse("kill=lots")

    def test_missing_equals_rejected(self):
        with pytest.raises(ChaosSpecError):
            ChaosConfig.parse("kill")

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ChaosSpecError):
            ChaosConfig.parse("kill=1.5")

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert ChaosConfig.from_env() is None
        monkeypatch.setenv("REPRO_CHAOS", "kill=0.25,seed=3")
        chaos = ChaosConfig.from_env()
        assert chaos.kill_p == 0.25 and chaos.seed == 3

    def test_default_inactive(self):
        assert not ChaosConfig().active


class TestDeterministicDecisions:
    def test_decisions_pure_in_seed_and_tokens(self):
        a = ChaosConfig(kill_p=0.5, seed=7)
        b = ChaosConfig(kill_p=0.5, seed=7)
        c = ChaosConfig(kill_p=0.5, seed=8)
        kills_a = [a.should_kill(i, 0) for i in range(64)]
        assert kills_a == [b.should_kill(i, 0) for i in range(64)]
        assert kills_a != [c.should_kill(i, 0) for i in range(64)]

    def test_rate_roughly_respected(self):
        chaos = ChaosConfig(kill_p=0.25, seed=11)
        kills = sum(chaos.should_kill(i, 0) for i in range(1000))
        assert 150 < kills < 350

    def test_kill_attempts_bounds_exposure(self):
        """Default kill_attempts=1: only a task's first execution is at
        risk, so a retried task is guaranteed to recover."""
        chaos = ChaosConfig(kill_p=1.0, seed=0)
        assert chaos.should_kill(3, 0)
        assert not chaos.should_kill(3, 1)
        deeper = ChaosConfig(kill_p=1.0, seed=0, kill_attempts=3)
        assert deeper.should_kill(3, 2)
        assert not deeper.should_kill(3, 3)

    def test_zero_rate_never_fires(self):
        chaos = ChaosConfig()
        assert not any(chaos.should_kill(i, 0) for i in range(100))
        assert not any(chaos.should_hang(i, 0) for i in range(100))
        assert not any(chaos.should_corrupt(str(i)) for i in range(100))


class TestCorruptObject:
    def test_clobbers_stored_object(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        key = stable_hash("to-corrupt")
        cache.put(key, {"v": 1})
        chaos = ChaosConfig(corrupt_p=1.0)
        assert chaos.corrupt_object(cache, key)
        json_path = cache._path(key)
        assert os.path.exists(json_path)  # contains() still answers True
        from repro.runtime import CacheMiss
        with pytest.raises(CacheMiss):
            cache.get(key)
        assert cache.quarantined == 1

    def test_missing_object_reports_false(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        chaos = ChaosConfig(corrupt_p=1.0)
        assert not chaos.corrupt_object(cache, stable_hash("absent"))
