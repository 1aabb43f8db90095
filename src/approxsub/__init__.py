"""approxsub: maximization of approximately submodular set functions.

A function F is eps-approximately submodular when some monotone submodular f
keeps (1-eps) f(S) <= F(S) <= (1+eps) f(S) on every set.  This package bundles
the solvers that still carry guarantees in that regime, generators for the
adversarial instances that show where guarantees break, noise models that
produce approximate submodularity, and checkers that verify every desk-scale
claim exactly.
"""

from .adversarial import (
    GreedyTrapInstance,
    HardPair,
    HardPairParams,
    HiddenSet,
    SandwichFunction,
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
    ConcaveCardinalityFunction,
    CoverageFunction,
    FunctionInstance,
    SumFunction,
    curvature,
    instance_from_dict,
    instance_to_dict,
    marginal,
)
from .matroids import Matroid, PartitionMatroid, UniformMatroid
from .noise import (
    ConsistentNoiseOracle,
    InconsistentNoiseOracle,
    SamplingEstimator,
    required_samples,
)
from .sets import Subset, ValueOracle
from .solvers import (
    SolveResult,
    brute_force,
    curvature_bound,
    curvature_topk,
    greedy_bound,
    greedy_cardinality,
    greedy_matroid,
    matroid_bound,
)
from .verify import (
    CheckReport,
    ConcentrationReport,
    check_concentration,
    check_monotone,
    check_sandwich,
    check_submodular,
)

__version__ = "0.1.0"
