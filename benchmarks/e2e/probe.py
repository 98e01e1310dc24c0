"""Host-speed probe: normalises benchmark times to a reference host speed.

The benchmark host is a shared virtual machine whose CPU speed drifts by
up to 2x within seconds; neither CPU time nor a probe running on the
other core tracks it.  A short fixed computation run *on the same core,
between the workload's own bytecodes* does: every ``interval`` seconds a
``SIGALRM`` handler times :func:`reference_work` (about 1.5 ms of small
numpy, LAPACK and dict operations, the mix the simulator's Newton loop
runs).  The ratio ``PROBE_NOMINAL_S / probe duration`` is the momentary
host speed, and :meth:`HostProbe.nominal_seconds` converts a measured
interval into seconds at the nominal speed, with the probes' own time
taken out.  On a quiet host the two agree.

The probe is the benchmark's own code and does not change between the
commits it compares, so a faster simulator still shows as fewer nominal
seconds.
"""

import json
import os
import signal
import statistics
import time

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

#: probe duration that defines the nominal host speed (the median on
#: the machine the benchmark was defined on)
PROBE_NOMINAL_S = 1.05e-3

#: probe repetitions of the reference mix
PROBE_REPS = 150

#: seconds between probes
PROBE_INTERVAL_S = 0.05

#: fewest probes used to estimate the speed over an interval
MIN_PROBES = 5

_N = 24
_RNG = np.random.default_rng(0)
_A = _RNG.random((_N, _N)) + _N * np.eye(_N)
_LU, _PIV, _ = dgetrf(_A)
_X0 = _RNG.random(_N)
_IDX = _RNG.integers(0, _N, 2 * _N)


def reference_work(reps=PROBE_REPS):
    """The fixed computation the probe times."""
    x = _X0.copy()
    f = np.empty(_N + 1)
    table = {}
    for i in range(reps):
        np.matmul(_A, x, out=f[:_N])
        np.add.at(f, _IDX, 1e-3)
        dx, _ = dgetrs(_LU, _PIV, -f[:_N])
        x = x + 1e-6 * dx
        table[i % 16] = table.get(i % 16, 0.0) + float(dx[i % _N])
    return table


class HostProbe:
    """Times :func:`reference_work` every ``interval`` seconds.

    ``samples`` holds ``(start, duration)`` pairs on the
    ``time.perf_counter`` clock (system-wide monotonic on Linux, so
    samples from worker processes line up with the parent's).  With a
    ``tracer`` set, each probe is a ``bench.probe`` span, so its time is
    not charged to the layer it interrupted.
    """

    def __init__(self, interval=PROBE_INTERVAL_S):
        self.interval = interval
        self.samples = []
        self.tracer = None
        self._previous = None

    def _tick(self, signum, frame):
        if self.tracer is not None:
            with self.tracer.span("bench.probe"):
                self._measure()
        else:
            self._measure()

    def _measure(self):
        start = time.perf_counter()
        reference_work()
        self.samples.append((start, time.perf_counter() - start))

    def start(self):
        for _ in range(MIN_PROBES):
            self._measure()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def nominal_seconds(self, t0, t1, samples=None):
        """``(measured, nominal)`` seconds of the interval ``[t0, t1]``.

        ``measured`` excludes the probes run inside the interval;
        ``nominal`` rescales it by the mean host speed of those probes
        (or of the ``MIN_PROBES`` probes nearest the interval when it
        holds fewer).
        """
        samples = self.samples if samples is None else samples
        inside = [s for s in samples if t0 <= s[0] < t1]
        measured = (t1 - t0) - sum(d for _, d in inside)
        used = inside
        if len(used) < MIN_PROBES:
            middle = 0.5 * (t0 + t1)
            used = sorted(samples, key=lambda s: abs(s[0] - middle))[
                :MIN_PROBES]
        if not used:
            raise RuntimeError("no host-speed probes recorded")
        speed = statistics.fmean(PROBE_NOMINAL_S / d for _, d in used)
        return measured, measured * speed


class WorkerProbes:
    """Runs a :class:`HostProbe` in each process-pool worker.

    Wraps ``repro.runtime.executors._execute_chunk`` (the function the
    pool ships to its workers); the first call in a worker starts that
    worker's probe, and every call appends the new samples to
    ``<directory>/probe-<pid>.jsonl``.  Workers are forked, so they run
    the wrapper installed here.
    """

    def __init__(self, directory):
        self.directory = directory
        self._original = None

    def install(self):
        from repro.runtime import executors
        original = self._original = executors._execute_chunk
        directory = self.directory
        parent = os.getpid()
        state = {}

        def _execute_chunk(*args, **kwargs):
            if os.getpid() != parent and "probe" not in state:
                state["probe"] = HostProbe().start()
                state["written"] = 0
            try:
                return original(*args, **kwargs)
            finally:
                probe = state.get("probe")
                if probe is not None:
                    path = os.path.join(directory,
                                        "probe-{}.jsonl".format(os.getpid()))
                    new = probe.samples[state["written"]:]
                    state["written"] += len(new)
                    with open(path, "a") as handle:
                        for sample in new:
                            handle.write(json.dumps(sample) + "\n")

        # the pool pickles the function by module and name
        _execute_chunk.__module__ = original.__module__
        _execute_chunk.__qualname__ = original.__qualname__
        executors._execute_chunk = _execute_chunk
        return self

    def uninstall(self):
        if self._original is not None:
            from repro.runtime import executors
            executors._execute_chunk = self._original
            self._original = None

    def samples(self):
        out = []
        for name in sorted(os.listdir(self.directory)):
            if name.startswith("probe-") and name.endswith(".jsonl"):
                with open(os.path.join(self.directory, name)) as handle:
                    out.extend(tuple(json.loads(line)) for line in handle)
        return out
