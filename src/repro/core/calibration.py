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
from .pulse import run_measurement_groups
from .sensing import PulseDetector
from .transfer import (TransferCurve, default_w_in_grid, recommended_w_in,
                       transfer_rows)


#: default sensing-threshold fluctuation the pulse test stays
#: yield-safe under (Sec. 4: 10 %)
SENSING_TOLERANCE = 0.1

#: default clock-period droop the delay test stays yield-safe under
SKEW_TOLERANCE = 0.1


def nominal_transfer_curve(w_in_grid, kind="h", dt=None, fault=None,
                           tech=None, path_kwargs=None, runtime=None,
                           report=None, adaptive=False):
    """The nominal transfer curve: the transfer row of
    :class:`~repro.montecarlo.NominalModel`, run as a runtime task and
    cached (it is the fixed, sample-independent part of every
    calibration).

    ``adaptive`` picks the time grid (and, as part of the row's spec,
    enters its cache key), so an adaptive calibration picks ω_in* on
    the same time grid as the population it calibrates.
    """
    ((w_out,),) = run_measurement_groups(
        [nominal_transfer_row(w_in_grid, kind=kind, dt=dt, fault=fault,
                              tech=tech, path_kwargs=path_kwargs,
                              adaptive=adaptive)],
        runtime=runtime, report=report)
    return TransferCurve(w_in_grid, w_out, kind=kind)


def nominal_transfer_row(w_in_grid, kind="h", dt=None, fault=None,
                         tech=None, path_kwargs=None, adaptive=False):
    """The measurement group of :func:`nominal_transfer_curve`."""
    return transfer_rows([NominalModel()], w_in_grid, kind=kind, dt=dt,
                         fault=fault, tech=tech, path_kwargs=path_kwargs,
                         adaptive=adaptive, label="nominal-transfer")


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


def pulse_calibration_rows(samples, omega_in, fault=None, tech=None,
                           kind="h", dt=None, adaptive=False,
                           path_kwargs=None):
    """The measurement group of the fault-free population's
    ``w_out(ω_in*)``: ``(label, spec, items)`` for
    :func:`~repro.core.pulse.run_measurement_groups`."""
    return ("pulse-calibration",
            dict(measure="pulse", omega_in=float(omega_in), kind=kind,
                 dt=dt, adaptive=adaptive,
                 tech=default_technology() if tech is None else tech,
                 path_kwargs={} if path_kwargs is None else path_kwargs,
                 fault=fault),
            [{"sample": sample} for sample in samples])


def delay_calibration_rows(samples, fault=None, tech=None,
                           direction="rise", dt=None, adaptive=False,
                           path_kwargs=None):
    """The measurement group of the fault-free population's path
    delays (see :func:`pulse_calibration_rows`)."""
    return ("delay-calibration",
            dict(measure="delay", direction=direction, dt=dt,
                 adaptive=adaptive,
                 tech=default_technology() if tech is None else tech,
                 path_kwargs={} if path_kwargs is None else path_kwargs,
                 fault=fault),
            [{"sample": sample} for sample in samples])


def _pulse_test(omega_in, curve, wouts, sensing_tolerance):
    """Step 3 of :func:`calibrate_pulse_test`: ω_th* from the weakest
    fault-free ``w_out``."""
    weakest = min(wouts)
    if weakest <= 0.0:
        raise ValueError(
            "a fault-free instance dampens the calibrated pulse; "
            "omega_in={:.0f}ps sits in the forbidden attenuation region"
            .format(omega_in * 1e12))
    detector = PulseDetector(weakest / (1.0 + sensing_tolerance))
    return PulseTestCalibration(omega_in, detector, curve, wouts,
                                sensing_tolerance)


def calibrate_pulse_test(samples, fault=None, tech=None, kind="h",
                         w_in_grid=None,
                         sensing_tolerance=SENSING_TOLERANCE,
                         margin=0.03e-9, dt=None, omega_in=None,
                         runtime=None, report=None, adaptive=False,
                         **path_kwargs):
    """Select (ω_in*, ω_th*) for the path described by ``path_kwargs``.

    Steps (Sec. 5 rule + Sec. 4 yield constraint):

    1. characterise the *nominal* transfer curve and place ω_in* at the
       onset of the asymptotic region (unless ``omega_in`` is forced);
    2. measure ``w_out(ω_in*)`` over the fault-free population;
    3. set ω_th* so the weakest fault-free instance still clears a
       detector whose threshold runs ``sensing_tolerance`` high:
       ``ω_th* = min_s w_out_s / (1 + sensing_tolerance)``.
    """
    tech = default_technology() if tech is None else tech
    if w_in_grid is None:
        w_in_grid = default_w_in_grid(tech)
    curve = nominal_transfer_curve(
        w_in_grid, kind=kind, dt=dt, fault=fault, tech=tech,
        path_kwargs=path_kwargs, runtime=runtime, report=report,
        adaptive=adaptive)
    if omega_in is None:
        omega_in = recommended_w_in(curve, margin=margin)
    (wouts,) = run_measurement_groups(
        [pulse_calibration_rows(samples, omega_in, fault=fault, tech=tech,
                                kind=kind, dt=dt, adaptive=adaptive,
                                path_kwargs=path_kwargs)],
        runtime=runtime, report=report)
    return _pulse_test(omega_in, curve, wouts, sensing_tolerance)


def calibrate_delay_test(samples, fault=None, tech=None, direction="rise",
                         flipflop=None, skew_tolerance=SKEW_TOLERANCE,
                         dt=None,
                         runtime=None, report=None, adaptive=False,
                         **path_kwargs):
    """Calibrate the reduced-clock baseline on the same population.

    Returns ``(DelayFaultTest, fault_free_delays)``.
    """
    flipflop = FlipFlopTiming() if flipflop is None else flipflop
    (delays,) = run_measurement_groups(
        [delay_calibration_rows(samples, fault=fault, tech=tech,
                                direction=direction, dt=dt,
                                adaptive=adaptive, path_kwargs=path_kwargs)],
        runtime=runtime, report=report)
    test = calibrate_t_star(delays, samples, flipflop,
                            skew_tolerance=skew_tolerance)
    return test, delays


def calibrate_both_tests(samples, tech=None, dt=None, runtime=None,
                         report=None, adaptive=False):
    """Both tests calibrated at their defaults, as
    :func:`calibrate_pulse_test` and :func:`calibrate_delay_test` would
    each, in two runtime calls: the nominal transfer row with the
    delay-calibration rows, which wait for nothing, then the
    pulse-calibration rows at the ω_in* of the nominal curve.  Returns
    ``(PulseTestCalibration, DelayFaultTest)``."""
    tech = default_technology() if tech is None else tech
    w_in_grid = default_w_in_grid(tech)
    settings = dict(tech=tech, dt=dt, adaptive=adaptive)
    (w_out,), delays = run_measurement_groups(
        [nominal_transfer_row(w_in_grid, **settings),
         delay_calibration_rows(samples, **settings)],
        runtime=runtime, report=report)
    curve = TransferCurve(w_in_grid, w_out)
    omega_in = recommended_w_in(curve)
    (wouts,) = run_measurement_groups(
        [pulse_calibration_rows(samples, omega_in, **settings)],
        runtime=runtime, report=report)
    return (_pulse_test(omega_in, curve, wouts, SENSING_TOLERANCE),
            calibrate_t_star(delays, samples, FlipFlopTiming(),
                             skew_tolerance=SKEW_TOLERANCE))
