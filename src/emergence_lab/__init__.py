"""Symbolic-dynamics lab.

Shift spaces of finite type, empirical measures under exact truncated
Wasserstein-1 transport, Caratheodory dimension structures with block-
restricted outer measures, pointwise-emergence estimation, and scheduled
construction of orbits whose empirical measures sweep a simplex of Markov
measures.
"""

__version__ = "0.1.0"

from .errors import EmergenceLabError
from .sofic import (PointPrefix, ShiftSpace, count_admissible,
                    topological_entropy)
from .measures import (FinSuppMeasure, MarkovMeasure, truncation_proxy,
                       w1_bounds, wasserstein1)
from .carath import (CStructure, bowen_dimension, outer_measure_M,
                     outer_measure_N, outer_measures, pressure_exact,
                     pressure_partition)
from .emergence import build_cloud, emergence_report
from .constructor import (MeasureFamily, SimplexNet, block_schedule,
                          build_orbit, log_lambda_measure, typical_word,
                          verify_saturation)

__all__ = [
    "EmergenceLabError", "PointPrefix", "ShiftSpace", "count_admissible",
    "topological_entropy",
    "FinSuppMeasure", "MarkovMeasure", "truncation_proxy", "w1_bounds",
    "wasserstein1",
    "CStructure", "bowen_dimension", "outer_measure_M", "outer_measure_N",
    "outer_measures", "pressure_exact", "pressure_partition",
    "build_cloud", "emergence_report",
    "MeasureFamily", "SimplexNet", "block_schedule", "build_orbit",
    "log_lambda_measure", "typical_word", "verify_saturation",
]
