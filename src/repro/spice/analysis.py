"""Top-level analysis entry points re-exported by :mod:`repro.spice`."""

from .dcop import operating_point
from .transient import (BACKWARD_EULER, DEFAULT_LTE_TOL, TRAPEZOIDAL,
                        run_transient, run_transient_batch)

__all__ = ["operating_point", "run_transient", "run_transient_batch",
           "BACKWARD_EULER", "TRAPEZOIDAL", "DEFAULT_LTE_TOL"]
