"""Online classification of strategic agents with linear classifiers.

Agents pay a norm cost to move their features and game a published
linear classifier; learners here keep provable mistake and manipulation
guarantees anyway.  See the README for the model and the guarantees.
"""

from .bounds import (
    Benchmark,
    DatasetConstants,
    HypothesisViolation,
    dataset_constants,
    kappa_l2_upper,
    perceptron_mistake_bound,
    smm_manipulation_bounds,
    smm_mistake_bound,
)
from .data import Dataset, SynthConfig, generate_synthetic, load_csv, save_csv, trim_margin
from .harness import (
    ConfigError,
    RunConfig,
    RunMetrics,
    certify,
    parse_config,
    read_config,
    read_metrics,
    reproduce_example,
    run_online,
    sweep,
    write_metrics,
)
from .learners import (
    ConeKind,
    GradSmmLearner,
    PerceptronLearner,
    SmmLearner,
    project_cone,
)
from .maxmargin import (
    MarginSolution,
    NearestPoints,
    PointSetPair,
    SolverError,
    incremental_check,
    margin_h,
    nearest_points_convex_hulls,
    solve_max_margin,
)
from .norms import (
    EPS_GEOM,
    L1,
    L2,
    LINF,
    CostModel,
    NormKind,
    dual_norm_eval,
    l2_envelope_constant,
    manipulation_direction,
    norm_eval,
    parse_norm,
)
from .response import (
    Classifier,
    Interaction,
    interact,
    proxy_from_response,
)

__all__ = [
    "Benchmark",
    "Classifier",
    "ConeKind",
    "ConfigError",
    "CostModel",
    "Dataset",
    "DatasetConstants",
    "EPS_GEOM",
    "GradSmmLearner",
    "HypothesisViolation",
    "Interaction",
    "L1",
    "L2",
    "LINF",
    "MarginSolution",
    "NearestPoints",
    "NormKind",
    "PerceptronLearner",
    "PointSetPair",
    "RunConfig",
    "RunMetrics",
    "SmmLearner",
    "SolverError",
    "SynthConfig",
    "certify",
    "dataset_constants",
    "dual_norm_eval",
    "generate_synthetic",
    "incremental_check",
    "interact",
    "kappa_l2_upper",
    "l2_envelope_constant",
    "load_csv",
    "manipulation_direction",
    "margin_h",
    "nearest_points_convex_hulls",
    "norm_eval",
    "parse_config",
    "parse_norm",
    "perceptron_mistake_bound",
    "project_cone",
    "proxy_from_response",
    "read_config",
    "read_metrics",
    "reproduce_example",
    "run_online",
    "save_csv",
    "smm_manipulation_bounds",
    "smm_mistake_bound",
    "solve_max_margin",
    "sweep",
    "trim_margin",
    "write_metrics",
]

__version__ = "0.1.0"
