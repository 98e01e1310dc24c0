"""A compact SPICE-class electrical simulator.

This subpackage is the electrical substrate for the reproduction of
Favalli & Metra, *Pulse propagation for the detection of small delay
defects* (DATE 2007): modified nodal analysis with level-1 MOSFETs, DC
operating point and fixed-step transient analysis, plus the waveform
measurements (pulse width at 0.5*VDD, propagation delay, slew) the paper's
metrics are built from.
"""

from .analysis import (BACKWARD_EULER, DEFAULT_LTE_TOL, TRAPEZOIDAL,
                       BatchTransient, operating_point, run_transient,
                       run_transient_batch)
from .batch import BatchCompiledCircuit
from .dcsweep import SweepResult, dc_sweep
from .elements import (Capacitor, CurrentSource, Resistor, VoltageSource)
from .errors import (AnalysisError, ConvergenceError, MeasurementError,
                     NetlistError, SpiceError)
from .mosfet import Mosfet, MosfetParams, NMOS, PMOS
from .netlist import Circuit, GROUND_NAMES, is_ground
from .sources import Dc, Pulse, Pwl, Stimulus, make_stimulus
from .waveform import Waveform

__all__ = [
    "Circuit", "GROUND_NAMES", "is_ground",
    "Resistor", "Capacitor", "VoltageSource", "CurrentSource",
    "Mosfet", "MosfetParams", "NMOS", "PMOS",
    "Dc", "Pulse", "Pwl", "Stimulus", "make_stimulus",
    "operating_point", "run_transient", "run_transient_batch",
    "BatchTransient", "BatchCompiledCircuit",
    "BACKWARD_EULER", "TRAPEZOIDAL", "DEFAULT_LTE_TOL",
    "dc_sweep", "SweepResult",
    "Waveform",
    "SpiceError", "NetlistError", "ConvergenceError", "AnalysisError",
    "MeasurementError",
]
