"""Monte Carlo parameter-fluctuation sampling and coverage statistics."""

from .sampling import (GLOBAL_FIELDS, NominalModel, VariationModel,
                       sample_population)
from .statistics import (coverage_fraction, samples_for_halfwidth,
                         summarize, wilson_excludes, wilson_halfwidth,
                         wilson_interval)

__all__ = [
    "VariationModel", "NominalModel", "sample_population", "GLOBAL_FIELDS",
    "coverage_fraction", "summarize", "wilson_interval",
    "wilson_halfwidth", "wilson_excludes", "samples_for_halfwidth",
]
