"""approxsub: maximization of approximately submodular set functions.

A function F is eps-approximately submodular when some monotone submodular f
keeps (1-eps) f(S) <= F(S) <= (1+eps) f(S) on every set.  This package bundles
the solvers that still carry guarantees in that regime, generators for the
adversarial instances that show where guarantees break, noise models that
produce approximate submodularity, and checkers that verify every desk-scale
claim exactly.
"""

from .adversarial import (
    HardPair,
    HardPairParams,
    build_coverage_pair,
    build_greedy_trap,
    build_monotone_pair,
    build_sandwich,
    draw_hidden_set,
    gap_bound,
    power_law_params,
)
from .functions import (
    AdditiveFunction,
    BudgetAdditiveFunction,
    CoverageFunction,
    curvature,
    instance_from_dict,
    instance_to_dict,
    marginal,
)
from .matroids import PartitionMatroid
from .noise import ConsistentNoiseOracle
from .sets import Subset, ValueOracle
from .solvers import (
    brute_force,
    curvature_bound,
    curvature_topk,
    greedy_bound,
    greedy_cardinality,
    greedy_matroid,
    matroid_bound,
)
from .verify import (
    check_concentration,
    check_monotone,
    check_sandwich,
    check_submodular,
)

__version__ = "0.1.0"
