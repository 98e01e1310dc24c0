"""Reproduction of Favalli & Metra, DATE 2007.

*Pulse propagation for the detection of small delay defects.*

Package map
-----------
``repro.spice``
    Transistor-level electrical simulator (MNA, level-1 MOSFETs, transient).
``repro.cells``
    CMOS standard cells at transistor level, technology and path builders.
``repro.faults``
    Resistive-open and bridging fault models and electrical injectors.
``repro.montecarlo``
    Parameter-fluctuation sampling and coverage statistics.
``repro.dft``
    Reduced-clock delay-fault testing baseline (C_del).
``repro.core``
    The paper's contribution: pulse injection/sensing, (w_in, w_th)
    calibration, pulse transfer characterisation and C_pulse experiments.
``repro.logic``
    Gate-level substrate: netlists, ISCAS-85 parsing, timing simulation,
    logic-level pulse propagation, path enumeration and ATPG.
``repro.runtime``
    Campaign execution: process-pool dispatch, result cache,
    checkpoint/resume, solver telemetry and task traces.
"""

__version__ = "1.0.0"

from . import cells  # noqa: F401
from . import core  # noqa: F401
from . import dft  # noqa: F401
from . import faults  # noqa: F401
from . import logic  # noqa: F401
from . import montecarlo  # noqa: F401
from . import reporting  # noqa: F401
from . import spice  # noqa: F401
from . import testckt  # noqa: F401

__all__ = ["spice", "cells", "faults", "montecarlo", "dft", "core",
           "logic", "reporting", "testckt", "__version__"]
