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
from .pulse import run_measurements
from .sensing import PulseDetector
from .transfer import (TransferCurve, default_w_in_grid,
                       measure_transfer_rows, recommended_w_in)


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
    (w_out,) = measure_transfer_rows(
        [NominalModel()], w_in_grid, kind=kind, dt=dt, fault=fault,
        tech=tech, path_kwargs=path_kwargs, runtime=runtime, report=report,
        adaptive=adaptive, label="nominal-transfer")
    return TransferCurve(w_in_grid, w_out, kind=kind)


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

    wouts = run_measurements(
        dict(measure="pulse", omega_in=float(omega_in), kind=kind, dt=dt,
             adaptive=adaptive, tech=tech, path_kwargs=path_kwargs,
             fault=fault),
        [{"sample": sample} for sample in samples], runtime=runtime,
        report=report, label="pulse-calibration")
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
                         runtime=None, report=None, adaptive=False,
                         **path_kwargs):
    """Calibrate the reduced-clock baseline on the same population.

    Returns ``(DelayFaultTest, fault_free_delays)``.
    """
    flipflop = FlipFlopTiming() if flipflop is None else flipflop
    tech = default_technology() if tech is None else tech
    delays = run_measurements(
        dict(measure="delay", direction=direction, dt=dt,
             adaptive=adaptive, tech=tech, path_kwargs=path_kwargs,
             fault=fault),
        [{"sample": sample} for sample in samples], runtime=runtime,
        report=report, label="delay-calibration")
    test = calibrate_t_star(delays, samples, flipflop,
                            skew_tolerance=skew_tolerance)
    return test, delays
