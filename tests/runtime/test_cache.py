"""ResultCache round-trip and layout tests."""

import json
import math
import os

import numpy as np
import pytest

from repro.runtime import CacheMiss, ResultCache, stable_hash


@pytest.fixture
def cache(tmp_path):
    return ResultCache(str(tmp_path / "cache"))


class TestJsonValues:
    def test_round_trip_scalars(self, cache):
        key = stable_hash("scalars")
        cache.put(key, {"a": 1, "b": 0.25, "c": None, "d": True,
                        "e": "text", "f": [1, 2, 3]})
        assert cache.get(key) == {"a": 1, "b": 0.25, "c": None,
                                  "d": True, "e": "text", "f": [1, 2, 3]}

    def test_numpy_scalars_lowered(self, cache):
        key = stable_hash("npscalar")
        cache.put(key, {"x": np.float64(0.5), "n": np.int64(3)})
        value = cache.get(key)
        assert value == {"x": 0.5, "n": 3}
        assert isinstance(value["x"], float)

    def test_embedded_array_in_nested_value(self, cache):
        key = stable_hash("nested")
        cache.put(key, {"meta": "row", "data": np.array([1.0, 2.5])})
        value = cache.get(key)
        assert value["meta"] == "row"
        np.testing.assert_array_equal(value["data"],
                                      np.array([1.0, 2.5]))

    def test_unserialisable_rejected(self, cache):
        with pytest.raises(TypeError):
            cache.put(stable_hash("bad"), object())


class TestNonFiniteFloats:
    """Regression: NaN/Infinity used to be written as bare ``NaN`` /
    ``Infinity`` tokens — a Python-only JSON extension that breaks any
    strict consumer (jq, browsers, other languages) reading the cache."""

    def test_nan_round_trips(self, cache):
        key = stable_hash("nan")
        cache.put(key, {"w_out": float("nan"), "detected": False})
        value = cache.get(key)
        assert math.isnan(value["w_out"])
        assert value["detected"] is False

    def test_infinities_round_trip(self, cache):
        key = stable_hash("inf")
        cache.put(key, [float("inf"), float("-inf"), 1.0])
        assert cache.get(key) == [float("inf"), float("-inf"), 1.0]

    def test_numpy_nan_round_trips(self, cache):
        key = stable_hash("npnan")
        cache.put(key, {"x": np.float64("nan")})
        assert math.isnan(cache.get(key)["x"])

    def test_nan_inside_embedded_array(self, cache):
        key = stable_hash("nanarray")
        stored = np.array([1.0, float("nan"), float("inf")])
        cache.put(key, {"meta": "row", "data": stored})
        loaded = cache.get(key)["data"]
        np.testing.assert_array_equal(loaded, stored)

    def test_stored_json_is_strict(self, cache):
        """The on-disk bytes must parse without Python's lenient
        constants — ``parse_constant`` fires on NaN/Infinity tokens."""
        key = stable_hash("strict")
        cache.put(key, {"a": float("nan"), "b": [float("-inf")],
                        "c": np.array([float("nan")])})
        with open(cache._path(key)) as handle:
            json.load(handle, parse_constant=pytest.fail)


class TestNpzValues:
    """Arrays round-trip through the one JSON format (tagged objects)."""

    def test_bare_array(self, cache):
        key = stable_hash("bare")
        stored = np.linspace(0.0, 1.0, 7)
        cache.put(key, stored)
        loaded = cache.get(key)
        np.testing.assert_array_equal(loaded, stored)

    def test_flat_array_mapping(self, cache):
        key = stable_hash("mapping")
        cache.put(key, {"w_in": np.array([1.0]), "w_out": np.array([2.0])})
        loaded = cache.get(key)
        assert set(loaded) == {"w_in", "w_out"}
        np.testing.assert_array_equal(loaded["w_out"], np.array([2.0]))


class TestProtocol:
    def test_miss_raises(self, cache):
        with pytest.raises(CacheMiss):
            cache.get(stable_hash("never-stored"))
        assert not cache.contains(stable_hash("never-stored"))

    def test_contains_and_count(self, cache):
        assert cache.n_objects() == 0
        for i in range(3):
            cache.put(stable_hash("entry", i), {"i": i})
        assert cache.n_objects() == 3
        assert cache.contains(stable_hash("entry", 1))

    def test_overwrite(self, cache):
        key = stable_hash("overwrite")
        cache.put(key, {"v": 1})
        cache.put(key, {"v": 2})
        assert cache.get(key) == {"v": 2}
        assert cache.n_objects() == 1

    def test_no_tmp_litter(self, cache):
        key = stable_hash("clean")
        cache.put(key, {"v": 1})
        directory = cache._object_dir(key)
        assert not [f for f in os.listdir(directory)
                    if f.endswith(".tmp")]

    def test_sharded_layout(self, cache):
        key = stable_hash("layout")
        cache.put(key, 1)
        assert os.sep + os.path.join("objects", key[:2]) + os.sep \
            in cache._path(key)


class TestCorruptObjects:
    def test_corrupt_json_reads_as_miss_and_quarantines(self, cache):
        key = stable_hash("torn-json")
        cache.put(key, {"v": 1})
        json_path = cache._path(key)
        with open(json_path, "w") as handle:
            handle.write('{"v": 1')  # truncated write
        with pytest.raises(CacheMiss):
            cache.get(key)
        assert cache.quarantined == 1
        # the bad file moved aside (postmortem material), key now free
        assert not os.path.exists(json_path)
        assert os.path.exists(os.path.join(cache.quarantine_dir(),
                                           os.path.basename(json_path)))
        assert not cache.contains(key)

    def test_recompute_after_quarantine(self, cache):
        key = stable_hash("recompute")
        cache.put(key, {"v": 1})
        json_path = cache._path(key)
        with open(json_path, "w") as handle:
            handle.write("not json at all")
        with pytest.raises(CacheMiss):
            cache.get(key)
        cache.put(key, {"v": 2})
        assert cache.get(key) == {"v": 2}

    def test_quarantine_files_not_counted_as_objects(self, cache):
        key = stable_hash("count-after")
        cache.put(key, {"v": 1})
        json_path = cache._path(key)
        with open(json_path, "w") as handle:
            handle.write("{broken")
        with pytest.raises(CacheMiss):
            cache.get(key)
        assert cache.n_objects() == 0
        # intact entries are unaffected
        other = stable_hash("count-other")
        cache.put(other, {"v": 3})
        assert cache.get(other) == {"v": 3}
        assert cache.n_objects() == 1


class TestDurableWrites:
    def test_atomic_write_fsyncs_file_and_directory(self, tmp_path,
                                                    monkeypatch):
        from repro.runtime.cache import atomic_write

        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: synced.append(fd) or
                            real_fsync(fd))
        path = str(tmp_path / "durable.json")
        atomic_write(path, lambda h: h.write('{"v": 1}'))
        # one fsync for the temp file, one for the directory entry
        assert len(synced) == 2
        with open(path) as handle:
            assert json.load(handle) == {"v": 1}

    def test_cache_put_goes_through_durable_write(self, cache,
                                                  monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: synced.append(fd) or
                            real_fsync(fd))
        cache.put(stable_hash("synced"), {"v": 1})
        assert len(synced) >= 2

    def test_checkpoint_flush_goes_through_durable_write(self, tmp_path,
                                                         monkeypatch):
        from repro.runtime import CampaignCheckpoint

        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: synced.append(fd) or
                            real_fsync(fd))
        checkpoint = CampaignCheckpoint("deadbeef", root=str(tmp_path))
        checkpoint.mark_done("k1")
        checkpoint.flush()
        assert len(synced) >= 2
