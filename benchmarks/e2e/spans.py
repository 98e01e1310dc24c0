"""Span tracer for the end-to-end benchmark.

The tracer wraps public entry points of the simulator from the outside:
module-level functions (patched in every ``repro`` module that imported
the name) and class methods (patched on the class).  Nothing under
``src/`` knows it exists, and :meth:`Tracer.uninstall` restores every
original object.

Each call of a wrapped entry point is one span.  A span's self time is
its duration minus the time its child spans cover, so the self times of
all spans plus the self time of the root span add up to the root's
duration.  Hot spans (MOSFET evaluation, LU calls, Newton internals) are
only aggregated by name; coarse spans (campaign phases, runtime tasks,
transients, fault sites) are also kept as records ``(id, name, start,
end, parent, task)`` and written out as JSONL at the end of a run.
"""

import json
import sys
import time
from contextlib import contextmanager

import numpy as np

#: span name -> entry points (``module:attr`` or ``module:Class.attr``)
SPAN_TARGETS = {
    "spice.mosfet.eval": [
        "repro.spice.mosfet:evaluate_level1",
        "repro.spice.mosfet:evaluate_level1_fast"],
    "spice.mna.device_cache": [
        "repro.spice.mna:CompiledCircuit.refresh_device_cache",
        "repro.spice.batch:BatchCompiledCircuit.refresh_device_cache"],
    "spice.mna.residual": [
        "repro.spice.mna:CompiledCircuit.residual_from_cache"],
    "spice.mna.rhs": ["repro.spice.mna:CompiledCircuit.source_rhs"],
    "spice.mna.stamp": [
        "repro.spice.mna:CompiledCircuit.stamp_jacobian_from_cache",
        "repro.spice.mna:CompiledCircuit.stamp_mosfets",
        "repro.spice.mna:CompiledCircuit.companion_base"],
    "spice.batch.assembly": [
        "repro.spice.batch:BatchCompiledCircuit.stamp_jacobian_from_cache",
        "repro.spice.batch:BatchCompiledCircuit.stamp_mosfets",
        "repro.spice.batch:BatchCompiledCircuit.residual_from_cache",
        "repro.spice.batch:BatchCompiledCircuit.source_rhs",
        "repro.spice.batch:BatchCompiledCircuit.source_tables",
        "repro.spice.batch:BatchCompiledCircuit.companion_base"],
    "spice.lu.factor": ["repro.spice.mna:_getrf"],
    "spice.lu.solve": ["repro.spice.mna:_getrs"],
    "spice.newton": [
        "repro.spice.mna:newton_solve",
        "repro.spice.mna:gmin_continuation_solve",
        "repro.spice.batch:newton_solve_batch",
        "repro.spice.batch:gmin_ladder_batch"],
    "spice.transient": [
        "repro.spice.transient:run_transient",
        "repro.spice.transient:run_transient_batch"],
    "spice.transient.step_control": [
        "repro.spice.transient:_StepController.propose",
        "repro.spice.transient:_StepController.accept",
        "repro.spice.transient:_StepController.reject",
        "repro.spice.transient:_predict",
        "repro.spice.transient:_push_history"],
    "spice.dcop": [
        "repro.spice.dcop:solve_dc",
        "repro.spice.batch:solve_dc_batch"],
    "spice.compile": ["repro.spice.mna:CompiledCircuit.__init__"],
    "spice.batch.compile": [
        "repro.spice.batch:BatchCompiledCircuit.__init__"],
    "spice.waveform.measure": [
        "repro.spice.waveform:Waveform.widest_pulse",
        "repro.spice.waveform:Waveform.propagation_delay"],
    "cells.build": ["repro.cells.chain:build_path"],
    "faults.inject": [
        "repro.faults.injection:inject",
        "repro.faults.injection:set_fault_resistance"],
    "core.calibration": [
        "repro.core.calibration:calibrate_pulse_test",
        "repro.core.calibration:calibrate_delay_test",
        "repro.logic.fault_sim:DefectCalibration.from_electrical"],
    "core.sweep": [
        "repro.core.coverage:sweep_pulse_measurements",
        "repro.core.coverage:sweep_delay_measurements"],
    "core.adaptive": ["repro.core.adaptive_coverage:adaptive_sweep"],
    "runtime.run": [
        "repro.runtime.runner:Runtime.run",
        "repro.runtime.runner:Runtime.run_batched"],
    "runtime.executor": [
        "repro.runtime.executors:SerialExecutor.map_tasks",
        "repro.runtime.executors:ProcessPoolExecutor.map_tasks"],
    "runtime.task": ["repro.runtime.executors:_execute_one"],
    "runtime.cache.get": ["repro.runtime.cache:ResultCache.get"],
    "runtime.cache.put": ["repro.runtime.cache:ResultCache.put"],
    "runtime.hash": ["repro.runtime.hashing:stable_hash"],
    "runtime.checkpoint": [
        "repro.runtime.checkpoint:CampaignCheckpoint.load",
        "repro.runtime.checkpoint:CampaignCheckpoint.flush"],
    "logic.site": ["repro.logic.campaign:evaluate_fault_site"],
    "logic.paths": ["repro.logic.paths:paths_through"],
    "logic.atpg": ["repro.logic.atpg:sensitize_path"],
    "logic.pulse_model": [
        "repro.logic.pulse_model:path_model_from_netlist",
        "repro.logic.pulse_model:PathPulseModel.transfer"],
    "logic.rmin": ["repro.logic.fault_sim:minimum_detectable_resistance"],
}

#: spans kept as individual records (the rest are aggregated only:
#: they fire hundreds of thousands of times per campaign)
RECORDED = frozenset({
    "setup", "iteration", "core.calibration", "core.sweep",
    "core.adaptive", "runtime.run", "runtime.executor", "runtime.task",
    "spice.transient", "logic.site"})

#: the span that opens a new task id for the spans below it
TASK_SPAN = "runtime.task"


def _fixed_steps(args, kwargs):
    """Fixed-grid step count of a ``run_transient[_batch]`` call (0 for
    an adaptive run, whose accepted steps the solver counters carry)."""
    if kwargs.get("adaptive"):
        return 0
    from repro.spice.transient import _fixed_step_count
    tstop = args[1] if len(args) > 1 else kwargs["tstop"]
    dt = args[2] if len(args) > 2 else kwargs["dt"]
    return _fixed_step_count(tstop, dt)


def _batch_rows(args, kwargs):
    x0 = args[3] if len(args) > 3 else kwargs["x0"]
    return int(np.shape(x0)[0])


def _devices(args, kwargs):
    return int(np.size(args[0]))


def _one(args, kwargs):
    return 1


#: per-target counters: ``{target: [(counter name, fn(args, kwargs))]}``
COUNTERS = {
    "repro.spice.mosfet:evaluate_level1": [("devices_evaluated", _devices)],
    "repro.spice.mosfet:evaluate_level1_fast": [
        ("devices_evaluated", _devices)],
    "repro.spice.transient:run_transient": [
        ("transient_steps", _fixed_steps)],
    "repro.spice.transient:run_transient_batch": [
        ("transient_steps", _fixed_steps)],
    "repro.spice.batch:newton_solve_batch": [
        ("batch_rows", _batch_rows), ("batch_solves", _one)],
}

#: targets whose successful returns are counted (``name.ok``)
COUNT_OK = frozenset({"repro.runtime.cache:ResultCache.get"})


def _resolve(target):
    """``(owner, attribute, raw object)`` for a target string."""
    module_name, _, path = target.partition(":")
    __import__(module_name)
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
        owner, attr)
    return owner, attr, raw


class Tracer:
    """Collects spans from wrapped entry points.

    ``spans`` restricts installation to a subset of :data:`SPAN_TARGETS`
    (the benchmark's untraced phase installs only the executor probe).
    Totals are kept per span name: ``self_s`` (self time), ``incl_s``
    (duration of outermost calls only, so recursion is not counted
    twice), ``calls`` and ``counts`` (extra counters, see
    :data:`COUNTERS`).
    """

    def __init__(self, spans=None):
        self.span_names = (sorted(SPAN_TARGETS) if spans is None
                           else list(spans))
        self.self_s = {}
        self.incl_s = {}
        self.calls = {}
        self.counts = {}
        self.records = []
        self._stack = []
        self._depth = {}
        self._next_id = 0
        self._next_task = 0
        self._task = None
        self._patches = []
        self.t0 = time.perf_counter()

    # -- span bookkeeping ----------------------------------------------

    def _enter(self, name):
        depth = self._depth
        depth[name] = depth.get(name, 0) + 1
        span_id = None
        if name in RECORDED:
            span_id = self._next_id
            self._next_id += 1
        if name == TASK_SPAN:
            previous = self._task
            self._task = self._next_task
            self._next_task += 1
        else:
            previous = None
        frame = [time.perf_counter(), 0.0, span_id, name, previous]
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        start, children, span_id, name, previous = frame
        elapsed = end - start
        self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - children
        self.calls[name] = self.calls.get(name, 0) + 1
        depth = self._depth
        depth[name] -= 1
        if not depth[name]:
            self.incl_s[name] = self.incl_s.get(name, 0.0) + elapsed
        if stack:
            stack[-1][1] += elapsed
        if span_id is not None:
            parent = next((f[2] for f in reversed(stack)
                           if f[2] is not None), None)
            task = self._task
            self.records.append((span_id, name, start - self.t0,
                                 end - self.t0, parent, task))
        if name == TASK_SPAN:
            self._task = previous

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def _wrap(self, name, target, fn):
        enter, leave = self._enter, self._exit
        counts = self.counts
        counters = COUNTERS.get(target, ())
        ok_name = name + ".ok" if target in COUNT_OK else None

        def wrapper(*args, **kwargs):
            for key, measure in counters:
                counts[key] = counts.get(key, 0) + measure(args, kwargs)
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if ok_name is not None:
                counts[ok_name] = counts.get(ok_name, 0) + 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------

    def install(self):
        """Wrap every target of the selected spans."""
        for name in self.span_names:
            for target in SPAN_TARGETS[name]:
                self._install_one(name, target)
        return self

    def _install_one(self, name, target):
        owner, attr, raw = _resolve(target)
        if isinstance(owner, type):
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(name, target, raw.__func__))
            else:
                wrapped = self._wrap(name, target, raw)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return
        wrapped = self._wrap(name, target, raw)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    self._patches.append((module, key, raw))
                    setattr(module, key, wrapped)

    def uninstall(self):
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------

    def totals(self):
        """Copy of the aggregate counters (for before/after deltas)."""
        return {"self_s": dict(self.self_s), "incl_s": dict(self.incl_s),
                "calls": dict(self.calls), "counts": dict(self.counts)}

    def write_jsonl(self, path):
        """Write the recorded spans, one JSON object per line."""
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, task in self.records:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start_s": start,
                    "end_s": end, "parent": parent, "task": task}) + "\n")
        return path


def self_time_balance(self_s, root_names, wall_s):
    """Relative gap between ``wall_s`` and the sum of all self times.

    Every span's self time plus the root spans' self time (the time no
    wrapped layer claimed) must add up to the traced wall time; the
    benchmark requires the gap to stay within 3 %.
    """
    total = sum(self_s.values())
    unattributed = sum(self_s.get(name, 0.0) for name in root_names)
    return abs(total - wall_s) / wall_s, unattributed
