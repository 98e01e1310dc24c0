"""Stable content hashing for cache keys.

The result cache is content-addressed: a task's key is a hash of every
input that can change its result (technology parameters, fault spec,
pulse/clock configuration, sample seed, time step...).  The hash must be
stable across processes and interpreter runs, so objects are first
lowered to a canonical JSON-serialisable *token*:

* floats are rendered with ``repr`` (shortest round-trip form);
* dicts are sorted by key, sets are sorted;
* numpy scalars and arrays are lowered to Python numbers / lists;
* objects exposing ``cache_token()`` delegate to it;
* other objects fall back to ``(class name, sorted public attributes)``.

Python's built-in ``hash`` is unsuitable (per-process salting); we use
SHA-256 over the canonical JSON encoding.
"""

import hashlib
import json

import numpy as np


def canonical_token(obj):
    """Lower ``obj`` to a canonical JSON-serialisable structure."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (float, np.floating)):
        # lower numpy floats first: np.float64 subclasses float but
        # repr()s differently between numpy versions
        return repr(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return ["ndarray", list(obj.shape),
                [canonical_token(v) for v in obj.ravel().tolist()]]
    if isinstance(obj, (list, tuple)):
        return [canonical_token(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(canonical_token(v) for v in obj)
    if isinstance(obj, dict):
        return [[canonical_token(k), canonical_token(v)]
                for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))]
    token_method = getattr(obj, "cache_token", None)
    if callable(token_method):
        return [type(obj).__name__, canonical_token(token_method())]
    if callable(obj):
        # A worker function: its qualified name identifies the code path.
        name = getattr(obj, "__qualname__", None) or repr(obj)
        return ["callable", getattr(obj, "__module__", "?"), name]
    attrs = getattr(obj, "__dict__", None)
    if attrs is not None:
        public = {k: v for k, v in attrs.items() if not k.startswith("_")}
        return [type(obj).__name__, canonical_token(public)]
    raise TypeError(
        "cannot build a stable cache token for {!r}".format(obj))


def _encode(token):
    return json.dumps(token, separators=(",", ":"), sort_keys=False)


def stable_hash(*parts):
    """SHA-256 hex digest (truncated) of the canonical token of ``parts``."""
    payload = _encode(canonical_token(list(parts)))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def stable_hashes(head, varying, tail=()):
    """``[stable_hash(*head, value, *tail) for value in varying]``, with
    the shared parts lowered once.

    A list's canonical JSON is its items' JSON joined by commas, so the
    shared parts are encoded once, and each key hashes on from a copy
    of the digest of everything before its own part.  Each key equals
    the :func:`stable_hash` of its parts.
    """
    prefix = "[" + "".join(_encode(canonical_token(part)) + ","
                           for part in head)
    suffix = "".join("," + _encode(canonical_token(part))
                     for part in tail) + "]"
    shared = hashlib.sha256(prefix.encode("utf-8"))
    keys = []
    for value in varying:
        digest = shared.copy()
        digest.update((_encode(canonical_token(value)) + suffix)
                      .encode("utf-8"))
        keys.append(digest.hexdigest()[:32])
    return keys
