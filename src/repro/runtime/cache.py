"""Content-addressed on-disk result cache.

Layout (under the cache root, default ``.repro_cache/``)::

    objects/ab/abcdef...0123.json   # one stored value
    objects/quarantine/             # corrupt entries set aside by get()
    manifests/<campaign>.json       # checkpoint manifests (checkpoint.py)

Keys are the stable hashes of :mod:`repro.runtime.hashing`; values are
whatever a campaign task returned, stored as strict JSON (numpy arrays
and non-finite floats round-trip through tagged objects).  Writes are
atomic and durable (temp file + fsync + ``os.replace`` + directory
fsync, see :func:`atomic_write`) so neither a killed campaign nor a
power loss leaves a truncated entry behind.
"""

import json
import logging
import math
import os
import tempfile

import numpy as np

_ARRAY_TAG = "__ndarray__"
_FLOAT_TAG = "__float__"


def fsync_directory(path):
    """Flush a directory's entry table to disk (best effort).

    ``os.replace`` is atomic against concurrent readers but the rename
    itself lives in the directory inode — without this a power loss can
    forget a fully-written file.  Platforms whose directories cannot be
    opened/fsynced (some network filesystems, Windows) are tolerated.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write(path, writer):
    """Write ``path`` atomically: temp file + fsync + ``os.replace``.

    The single durable-write helper shared by the result cache and the
    checkpoint manifests.  ``writer`` receives the open text-mode
    temp-file handle.  The temp file is fsynced before the rename and
    the directory after it, so a power loss can neither tear the object
    nor lose the rename.
    """
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            writer(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        fsync_directory(directory)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _encode_float(value):
    """A float as strict JSON.

    ``json.dump`` emits bare ``NaN``/``Infinity`` tokens for non-finite
    floats — JavaScript, not JSON, and rejected by strict parsers.  A
    dampened pulse legitimately measures a NaN width, so non-finite
    values are first-class here: they round-trip via a tagged dict.
    """
    if math.isfinite(value):
        return value
    if math.isnan(value):
        return {_FLOAT_TAG: "nan"}
    return {_FLOAT_TAG: "inf" if value > 0 else "-inf"}


def _encode(value):
    """Lower ``value`` to a strict-JSON-serialisable structure."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return _encode_float(value)
    if isinstance(value, (np.floating,)):
        return _encode_float(float(value))
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.ndarray):
        # tolist() yields plain floats, so _encode tags any non-finite
        # entries; _decode re-assembles the array from the decoded list.
        return {_ARRAY_TAG: _encode(value.tolist()),
                "dtype": str(value.dtype)}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise TypeError(
                    "cache values need string dict keys, got {!r}".format(k))
            out[k] = _encode(v)
        return out
    raise TypeError(
        "cannot cache value of type {}".format(type(value).__name__))


def _decode(value):
    if isinstance(value, dict):
        if _FLOAT_TAG in value:
            return float(value[_FLOAT_TAG])
        if _ARRAY_TAG in value:
            return np.asarray(_decode(value[_ARRAY_TAG]),
                              dtype=value.get("dtype"))
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


#: public aliases for other strict-JSON writers (the trace sink)
encode_jsonable = _encode
decode_jsonable = _decode


class CacheMiss(Exception):
    """Raised by :meth:`ResultCache.get` for unknown keys."""


class ResultCache:
    """Content-addressed store for campaign task results.

    Unreadable entries (truncated JSON, bit rot) never fail a
    campaign: :meth:`get` quarantines the bad file under
    ``objects/quarantine/`` and reports a :class:`CacheMiss`, so the
    runner simply recomputes the sample.  ``quarantined`` counts the
    entries set aside over this instance's lifetime (the runner folds
    the delta into the campaign report).
    """

    def __init__(self, root=".repro_cache"):
        self.root = str(root)
        #: corrupt entries moved aside by :meth:`get`
        self.quarantined = 0

    # ------------------------------------------------------------------

    def _object_dir(self, key):
        return os.path.join(self.root, "objects", key[:2])

    def _path(self, key):
        return os.path.join(self._object_dir(key), key + ".json")

    def quarantine_dir(self):
        return os.path.join(self.root, "objects", "quarantine")

    def _quarantine(self, path, key, error):
        """Move an unreadable object aside; never raises.

        The original file is preserved (renamed into
        ``objects/quarantine/``) for postmortems rather than deleted —
        a recompute will land a fresh object at the original path.
        """
        destination = os.path.join(self.quarantine_dir(),
                                   os.path.basename(path))
        try:
            os.makedirs(self.quarantine_dir(), exist_ok=True)
            os.replace(path, destination)
        except OSError:
            # quarantine is best effort; an undeletable corrupt file
            # still reads as a miss on this run
            destination = None
        self.quarantined += 1
        logging.getLogger("repro.cache").warning(
            "quarantined corrupt cache object for key %s (%s: %s)%s",
            key, type(error).__name__, error,
            " -> {}".format(destination) if destination else "")

    def contains(self, key):
        return os.path.exists(self._path(key))

    def get(self, key):
        """Return the stored value, or raise :class:`CacheMiss`.

        A present-but-unreadable object (corrupt JSON) is treated as a
        miss: the bad file moves to ``objects/quarantine/`` and the
        sample recomputes — one rotten entry must not kill a campaign.
        """
        path = self._path(key)
        if not os.path.exists(path):
            raise CacheMiss(key)
        try:
            with open(path) as handle:
                return _decode(json.load(handle))
        except Exception as exc:  # noqa: BLE001 - corrupt object
            self._quarantine(path, key, exc)
            raise CacheMiss(key) from None

    def put(self, key, value):
        """Store ``value`` under ``key`` (atomic; overwrites)."""
        os.makedirs(self._object_dir(key), exist_ok=True)
        encoded = _encode(value)
        # allow_nan=False backstops the encoder: a bare NaN token can
        # never reach disk.
        atomic_write(self._path(key),
                     lambda h: json.dump(encoded, h, allow_nan=False))
        return key

    # ------------------------------------------------------------------

    def n_objects(self):
        """Number of readable stored entries (walks the object tree;
        quarantined corpses are not entries)."""
        objects = os.path.join(self.root, "objects")
        if not os.path.isdir(objects):
            return 0
        count = 0
        for directory, subdirs, files in os.walk(objects):
            if directory == objects and "quarantine" in subdirs:
                subdirs.remove("quarantine")
            count += sum(1 for f in files if not f.endswith(".tmp"))
        return count

    def __repr__(self):
        return "ResultCache({!r})".format(self.root)
