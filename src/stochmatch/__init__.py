"""Online stochastic min-cost matching under known i.i.d. arrivals.

The matcher re-solves an exact fractional assignment before every
arrival and samples the server from the arrival's column, which keeps
the surviving free set uniformly random.  Everything here is built for
checking that story end to end: exact rational solvers, tree closed
forms, offline optima, the distribution-reduction wrapper, a random
dominating-tree embedding, a hierarchical tree matcher, and seeded
experiment plumbing.
"""

from .ballsbins import (
    estimate_Nk,
    estimate_Nk_multi,
    monotone_indicator_comparison,
    poisson_loads,
    poisson_sample,
    sample_loads,
)
from .bmatching import (
    DemandProfile,
    FractionalMatching,
    canonical_plan,
    scaling_identity_check,
    solve_max_weight,
    solve_min_cost,
)
from .fairbias import (
    MatchingResult,
    MaxWeightProvider,
    PlanProvider,
    run_episode,
)
from .harness import (
    Scenario,
    TrialRecord,
    gen_nonmetric_instance,
    parse_scenario,
    ratio_of_means,
    run_trials,
)
from .metrics import (
    MetricInstance,
    WeightedTree,
    dump_metric,
    frt_embed,
    line_metric,
    load_metric,
    matrix_metric,
    matrix_unchecked,
    random_metric,
    random_recursive_tree,
    star_tree,
    tree_from_host_edges,
    tree_metric,
    uniform_metric,
)
from .offline import opt_general, opt_max_weight, opt_tree
from .splitmatch import (
    HierarchicalDecomposition,
    hmatch,
    run_episode_hier,
    split_decomposition,
    ternarize,
)
from .transship import (
    CouplingPlan,
    RequestDistribution,
    geometric_distribution,
    load_distribution,
    relocate,
    run_wrapped,
    solve_transshipment,
    uniform_distribution,
)
from .verify import (
    verify_cost_decomposition,
    verify_match_to_self,
    verify_replacement,
    verify_scaling,
    verify_structure_lemma,
)

__all__ = [
    "CouplingPlan",
    "DemandProfile",
    "FractionalMatching",
    "HierarchicalDecomposition",
    "MatchingResult",
    "MaxWeightProvider",
    "MetricInstance",
    "PlanProvider",
    "RequestDistribution",
    "Scenario",
    "TrialRecord",
    "WeightedTree",
    "canonical_plan",
    "dump_metric",
    "estimate_Nk",
    "estimate_Nk_multi",
    "frt_embed",
    "gen_nonmetric_instance",
    "geometric_distribution",
    "hmatch",
    "line_metric",
    "load_distribution",
    "load_metric",
    "matrix_metric",
    "matrix_unchecked",
    "monotone_indicator_comparison",
    "opt_general",
    "opt_max_weight",
    "opt_tree",
    "parse_scenario",
    "poisson_loads",
    "poisson_sample",
    "random_metric",
    "random_recursive_tree",
    "ratio_of_means",
    "relocate",
    "run_episode",
    "run_episode_hier",
    "run_trials",
    "run_wrapped",
    "sample_loads",
    "scaling_identity_check",
    "solve_max_weight",
    "solve_min_cost",
    "solve_transshipment",
    "split_decomposition",
    "star_tree",
    "ternarize",
    "tree_from_host_edges",
    "tree_metric",
    "uniform_distribution",
    "uniform_metric",
    "verify_cost_decomposition",
    "verify_match_to_self",
    "verify_replacement",
    "verify_scaling",
    "verify_structure_lemma",
]
