"""Deterministic fault injection for campaign-hardening tests.

Production campaigns die in three characteristic ways: a worker process
is killed mid-chunk (OOM, segfault), a solve diverges and hangs its
pool slot, or a cached result object is torn/corrupted on disk.  This
module injects exactly those faults, *deterministically*: every
decision is a pure hash of ``(seed, fault kind, task tokens)``, so a
chaos campaign is reproducible bit-for-bit and its recovery path can be
asserted against an undisturbed serial run.

Enable with ``Runtime(chaos=...)`` (a :class:`ChaosConfig` or a spec
string) or the ``REPRO_CHAOS`` environment variable::

    REPRO_CHAOS="kill=0.2,corrupt=0.1,hang=0.05,seed=7" pulsetest ...

Spec keys: ``kill`` / ``hang`` / ``corrupt`` (rates in [0, 1]),
``seed`` (int), ``hang_s`` (simulated hang duration, seconds),
``kill_attempts`` / ``hang_attempts`` (how many of a task's executions
are at risk; default 1 = first execution only, so a retried task always
recovers and fault-free result parity is guaranteed — raise them to
exercise the poison-quarantine path).

Worker kills and hangs only apply under the process-pool backend (the
serial backend *is* the undisturbed reference and killing it would kill
the campaign); cache corruption applies wherever a result cache is
attached.
"""

import hashlib
import os
import struct
import time

#: exit code chaos-killed workers die with (recognisable in postmortems)
KILL_EXIT_CODE = 87

_RATE_KEYS = {"kill": "kill_p", "hang": "hang_p", "corrupt": "corrupt_p"}
_INT_KEYS = {"seed": "seed", "kill_attempts": "kill_attempts",
             "hang_attempts": "hang_attempts"}


class ChaosSpecError(ValueError):
    """A chaos spec string (``REPRO_CHAOS``) is malformed."""


class ChaosConfig:
    """Seeded fault-injection knobs (picklable; travels to workers)."""

    __slots__ = ("kill_p", "hang_p", "corrupt_p", "seed", "hang_s",
                 "kill_attempts", "hang_attempts")

    def __init__(self, kill_p=0.0, hang_p=0.0, corrupt_p=0.0, seed=0,
                 hang_s=30.0, kill_attempts=1, hang_attempts=1):
        for name, value in (("kill", kill_p), ("hang", hang_p),
                            ("corrupt", corrupt_p)):
            if not 0.0 <= float(value) <= 1.0:
                raise ChaosSpecError(
                    "chaos {} rate must be in [0, 1], got {!r}".format(
                        name, value))
        self.kill_p = float(kill_p)
        self.hang_p = float(hang_p)
        self.corrupt_p = float(corrupt_p)
        self.seed = int(seed)
        self.hang_s = float(hang_s)
        self.kill_attempts = int(kill_attempts)
        self.hang_attempts = int(hang_attempts)

    # ------------------------------------------------------------------

    @classmethod
    def parse(cls, text):
        """Build a config from a ``"kill=0.2,corrupt=0.1,seed=7"`` spec."""
        if isinstance(text, cls):
            return text
        kwargs = {}
        for part in str(text).split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep:
                raise ChaosSpecError(
                    "chaos spec entries look like key=value, got "
                    "{!r}".format(part))
            try:
                if key in _RATE_KEYS:
                    kwargs[_RATE_KEYS[key]] = float(value)
                elif key in _INT_KEYS:
                    kwargs[_INT_KEYS[key]] = int(value)
                elif key == "hang_s":
                    kwargs["hang_s"] = float(value)
                else:
                    raise ChaosSpecError(
                        "unknown chaos knob {!r} (known: {})".format(
                            key, ", ".join(sorted(
                                list(_RATE_KEYS) + list(_INT_KEYS)
                                + ["hang_s"]))))
            except ValueError as exc:
                if isinstance(exc, ChaosSpecError):
                    raise
                raise ChaosSpecError(
                    "bad value for chaos knob {!r}: {!r}".format(
                        key, value)) from None
        return cls(**kwargs)

    @classmethod
    def from_env(cls, name="REPRO_CHAOS"):
        """Config from the environment, or None when unset/empty."""
        text = os.environ.get(name)
        return cls.parse(text) if text else None

    @property
    def active(self):
        return self.kill_p > 0 or self.hang_p > 0 or self.corrupt_p > 0

    # ------------------------------------------------------------------
    # Deterministic decisions
    # ------------------------------------------------------------------

    def _roll(self, kind, *tokens):
        """A uniform [0, 1) draw, pure in (seed, kind, tokens)."""
        text = "{}|{}|{}".format(self.seed, kind,
                                 "|".join(str(t) for t in tokens))
        digest = hashlib.sha256(text.encode("utf-8")).digest()
        return struct.unpack("<Q", digest[:8])[0] / 2.0 ** 64

    def should_kill(self, index, attempt):
        return (self.kill_p > 0 and attempt < self.kill_attempts
                and self._roll("kill", index, attempt) < self.kill_p)

    def should_hang(self, index, attempt):
        return (self.hang_p > 0 and attempt < self.hang_attempts
                and self._roll("hang", index, attempt) < self.hang_p)

    def should_corrupt(self, key):
        return (self.corrupt_p > 0
                and self._roll("corrupt", key) < self.corrupt_p)

    # ------------------------------------------------------------------
    # Fault actors (called from the executor / runner)
    # ------------------------------------------------------------------

    def maybe_kill(self, index, attempt):
        """Die like an OOM-killed worker: immediate, no cleanup."""
        if self.should_kill(index, attempt):
            os._exit(KILL_EXIT_CODE)

    def maybe_hang(self, index, attempt):
        """Simulate a diverging solve occupying its pool slot."""
        if self.should_hang(index, attempt):
            time.sleep(self.hang_s)

    def corrupt_object(self, cache, key):
        """Overwrite ``key``'s stored object with garbage bytes.

        Mimics a torn write / bit-rotted entry: the file exists (so
        ``contains`` still answers True) but no longer parses.  Returns
        True when an object file was actually clobbered.
        """
        path = cache._path(key)
        if not os.path.exists(path):
            return False
        with open(path, "wb") as handle:
            handle.write(b"\x00chaos-corrupted\xff\xfe")
        return True

    def __repr__(self):
        return ("ChaosConfig(kill={}, hang={}, corrupt={}, seed={})"
                .format(self.kill_p, self.hang_p, self.corrupt_p,
                        self.seed))
