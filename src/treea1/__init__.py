"""Exact A1 constants, maximal operators and rearrangement bounds on homogeneous trees.

The package computes, in exact rational arithmetic, the tree maximal operator
and A1 constant of step weights on trees of homogeneity k, their stopping-time
decomposition, and the decreasing rearrangement on (0, 1]; it verifies that
the rearrangement's prefix-average ratio never exceeds k*c - k + 1 and that
this bound is attained by an explicit extremal family.
"""

__version__ = "0.1.0"

from .errors import ParameterError, ViolationError
from .rationals import MAX_DECIMAL_EXPONENT, as_fraction, decimal_string
from .tree import MAX_LEAVES, ROOT, NodeId, TreeShape, leaves_under, make_shape, node_measure
from .weights import (
    ExtremalParams,
    StepWeight,
    extremal_exact,
    extremal_family,
    family_constant_formula,
    make_step_weight,
    random_weight,
    refine,
    scale,
    weight_from_text,
    weight_hash,
    weight_to_text,
)
from .maximal import (
    StoppingFamily,
    WeightAnalysis,
    a1_constant,
    analyze,
    maximal_function,
    stopping_family,
    superlevel_set,
)
from .rearrangement import (
    Piece,
    RearrangedProfile,
    kadic_constant,
    prefix_average,
    rearrange,
    sup_ratio,
)
from .oracles import average, maximal_function_bruteforce, rearrange_oracle
from .verify import (
    ALL_CHECKS,
    MAX_WEIGHTS,
    CampaignSummary,
    GrowthCheck,
    LevelAudit,
    SuperlevelAudit,
    SweepRow,
    VerificationReport,
    WeightRow,
    audit_grid,
    audit_superlevel,
    average_thresholds,
    check_decomposition,
    check_growth_bound,
    check_oracle_equality,
    check_rearrangement_bound,
    check_stopping_consistency,
    check_weak_type,
    default_family_delta,
    fuzz_campaign,
    sharpness_sweep,
)
from .search import MAX_MOVES, SearchConfig, SearchResult, hill_climb, objective_exact

__all__ = [name for name in dir() if not name.startswith("_")]
