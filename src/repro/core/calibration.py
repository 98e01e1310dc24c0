"""Test-parameter calibration on the fault-free Monte Carlo population.

Section 4's conservative, yield-first procedure:

* pulse test — pick the nominal pair (ω_in*, ω_th*) such that no false
  positive is produced for 10 % worst-case sensing-sensitivity variation:
  every fault-free instance's ``w_out(ω_in*)`` must clear ``1.1 ω_th*``;
* DF test — pick T* such that no false positive occurs even when the
  applied period droops by 10 % (see :mod:`repro.dft.reduced_clock`).
"""

from ..cells import default_technology
from ..dft import FlipFlopTiming, calibrate_t_star
from ..montecarlo import NominalModel
from ..runtime import CacheMiss, Runtime, engine_cache_tag, stable_hash
from .coverage import _measure_kwargs
from .pulse import (assert_chunk_compatible, build_instance,
                    measure_output_pulse, measure_output_pulse_batch,
                    measure_path_delay, measure_path_delay_batch)
from .sensing import PulseDetector
from .transfer import (TransferCurve, characterize_transfer,
                       default_w_in_grid, recommended_w_in)


def _fault_free_pulse_task(payload):
    """Worker: one fault-free instance's w_out at the calibrated ω_in."""
    kwargs = _measure_kwargs(payload)
    path = build_instance(sample=payload["sample"], fault=payload["fault"],
                          tech=payload["tech"], **payload["path_kwargs"])
    w_out, _ = measure_output_pulse(path, payload["omega_in"],
                                    kind=payload["kind"], **kwargs)
    return float(w_out)


def _fault_free_delay_task(payload):
    """Worker: one fault-free instance's path delay."""
    kwargs = _measure_kwargs(payload)
    path = build_instance(sample=payload["sample"], fault=payload["fault"],
                          tech=payload["tech"], **payload["path_kwargs"])
    d, _ = measure_path_delay(path, direction=payload["direction"],
                              **kwargs)
    return float(d)


def _build_chunk_instances(payloads):
    return [build_instance(sample=p["sample"], fault=p["fault"],
                           tech=p["tech"], **p["path_kwargs"])
            for p in payloads]


#: payload fields every member of one fault-free lockstep chunk must
#: agree on (the chunk tasks read them from their first payload)
CALIBRATION_CHUNK_FIELDS = ("dt", "adaptive", "omega_in", "kind",
                            "direction", "fault")


def _fault_free_pulse_chunk_task(payloads):
    """Batched worker: a chunk of fault-free w_out measurements in
    lockstep."""
    assert_chunk_compatible(payloads, CALIBRATION_CHUNK_FIELDS,
                            task="fault-free pulse chunk")
    first = payloads[0]
    kwargs = _measure_kwargs(first)
    paths = _build_chunk_instances(payloads)
    wouts, _ = measure_output_pulse_batch(paths, first["omega_in"],
                                          kind=first["kind"], **kwargs)
    return [float(w) for w in wouts]


def _fault_free_delay_chunk_task(payloads):
    """Batched worker: a chunk of fault-free path delays in lockstep."""
    assert_chunk_compatible(payloads, CALIBRATION_CHUNK_FIELDS,
                            task="fault-free delay chunk")
    first = payloads[0]
    kwargs = _measure_kwargs(first)
    paths = _build_chunk_instances(payloads)
    delays, _ = measure_path_delay_batch(paths,
                                         direction=first["direction"],
                                         **kwargs)
    return [float(d) for d in delays]


def _nominal_transfer(builder, w_in_grid, kind, dt, fault, tech,
                      path_kwargs, runtime, adaptive=False):
    """Nominal transfer curve, memoised in the runtime's result cache
    (it is the fixed, sample-independent part of every calibration).

    ``adaptive`` is threaded through to :func:`characterize_transfer`
    and, via the standard :func:`~repro.runtime.engine_cache_tag`
    tokens, into the cache key, so an adaptive calibration picks ω_in*
    on the same time grid as the population it calibrates.
    """
    cache = None if runtime is None else runtime.cache
    key = None
    if cache is not None:
        resolved_tech = default_technology() if tech is None else tech
        tag = engine_cache_tag("scalar", adaptive)
        key = stable_hash("nominal-transfer", resolved_tech, fault,
                          [float(w) for w in w_in_grid], kind, dt,
                          path_kwargs, *tag)
        try:
            stored = cache.get(key)
        except CacheMiss:
            pass
        else:
            return TransferCurve(stored["w_in"], stored["w_out"],
                                 kind=kind)
    curve = characterize_transfer(builder, w_in_grid, kind=kind, dt=dt,
                                  adaptive=adaptive)
    if key is not None:
        cache.put(key, {"w_in": [float(w) for w in curve.w_in],
                        "w_out": [float(w) for w in curve.w_out]})
    return curve


def _measure_population(task, samples, payload_base, label, runtime,
                        report, key_parts, engine="scalar",
                        batch_task=None, batch_size=None, adaptive=False):
    """Run one per-sample measurement task over the population.

    ``engine="batched"`` dispatches ``batch_task`` over sample chunks
    through :meth:`Runtime.run_batched`; cache keys gain an engine tag
    so scalar- and batched-engine results never alias.
    """
    if engine not in ("scalar", "batched"):
        raise ValueError("unknown engine {!r}".format(engine))
    runtime = Runtime() if runtime is None else runtime
    payloads = [dict(payload_base, sample=sample, adaptive=adaptive)
                for sample in samples]
    keys = None
    if runtime.cache is not None:
        tag = engine_cache_tag(engine, adaptive)
        keys = [stable_hash(label, key_parts, sample, *tag)
                for sample in samples]
    if engine == "batched":
        run = runtime.run_batched(batch_task, payloads, keys=keys,
                                  batch_size=batch_size, label=label,
                                  report=report)
    else:
        run = runtime.run(task, payloads, keys=keys, label=label,
                          report=report)
    if run.errors:
        raise run.errors[min(run.errors)]
    return run.values


class PulseTestCalibration:
    """Result of pulse-test calibration for one path."""

    def __init__(self, omega_in, detector, nominal_curve,
                 fault_free_wouts, sensing_tolerance):
        self.omega_in = omega_in
        self.detector = detector
        self.nominal_curve = nominal_curve
        self.fault_free_wouts = list(fault_free_wouts)
        self.sensing_tolerance = sensing_tolerance

    @property
    def omega_th(self):
        return self.detector.omega_th

    def __repr__(self):
        return ("PulseTestCalibration(omega_in={:.0f}ps, "
                "omega_th={:.0f}ps)").format(self.omega_in * 1e12,
                                             self.omega_th * 1e12)


def calibrate_pulse_test(samples, fault=None, tech=None, kind="h",
                         w_in_grid=None, sensing_tolerance=0.1,
                         margin=0.03e-9, dt=None, omega_in=None,
                         runtime=None, report=None, engine="scalar",
                         batch_size=None, adaptive=False, **path_kwargs):
    """Select (ω_in*, ω_th*) for the path described by ``path_kwargs``.

    Steps (Sec. 5 rule + Sec. 4 yield constraint):

    1. characterise the *nominal* transfer curve and place ω_in* at the
       onset of the asymptotic region (unless ``omega_in`` is forced);
    2. measure ``w_out(ω_in*)`` over the fault-free population;
    3. set ω_th* so the weakest fault-free instance still clears a
       detector whose threshold runs ``sensing_tolerance`` high:
       ``ω_th* = min_s w_out_s / (1 + sensing_tolerance)``.
    """
    if w_in_grid is None:
        w_in_grid = default_w_in_grid(tech)

    def nominal_builder():
        return build_instance(sample=NominalModel(), fault=fault, tech=tech,
                              **path_kwargs)

    curve = _nominal_transfer(nominal_builder, w_in_grid, kind, dt,
                              fault, tech, path_kwargs, runtime,
                              adaptive=adaptive)
    if omega_in is None:
        omega_in = recommended_w_in(curve, margin=margin)

    resolved_tech = default_technology() if tech is None else tech
    wouts = _measure_population(
        _fault_free_pulse_task, samples,
        dict(fault=fault, tech=tech, dt=dt, omega_in=float(omega_in),
             kind=kind, path_kwargs=path_kwargs),
        "pulse-calibration", runtime, report,
        [resolved_tech, fault, float(omega_in), kind, dt, path_kwargs],
        engine=engine, batch_task=_fault_free_pulse_chunk_task,
        batch_size=batch_size, adaptive=adaptive)
    weakest = min(wouts)
    if weakest <= 0.0:
        raise ValueError(
            "a fault-free instance dampens the calibrated pulse; "
            "omega_in={:.0f}ps sits in the forbidden attenuation region"
            .format(omega_in * 1e12))
    detector = PulseDetector(weakest / (1.0 + sensing_tolerance))
    return PulseTestCalibration(omega_in, detector, curve, wouts,
                                sensing_tolerance)


def calibrate_delay_test(samples, fault=None, tech=None, direction="rise",
                         flipflop=None, skew_tolerance=0.1, dt=None,
                         runtime=None, report=None, engine="scalar",
                         batch_size=None, adaptive=False, **path_kwargs):
    """Calibrate the reduced-clock baseline on the same population.

    Returns ``(DelayFaultTest, fault_free_delays)``.
    """
    flipflop = FlipFlopTiming() if flipflop is None else flipflop

    resolved_tech = default_technology() if tech is None else tech
    delays = _measure_population(
        _fault_free_delay_task, samples,
        dict(fault=fault, tech=tech, dt=dt, direction=direction,
             path_kwargs=path_kwargs),
        "delay-calibration", runtime, report,
        [resolved_tech, fault, direction, dt, path_kwargs],
        engine=engine, batch_task=_fault_free_delay_chunk_task,
        batch_size=batch_size, adaptive=adaptive)
    test = calibrate_t_star(delays, samples, flipflop,
                            skew_tolerance=skew_tolerance)
    return test, delays
