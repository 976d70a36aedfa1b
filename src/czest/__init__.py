"""Set-membership state estimation for multi-agent systems.

Extended constrained zonotope geometry, centralized and distributed
set-membership filters, and a reproducible simulation harness.
"""

from .czono import (
    Box,
    ConstrainedZonotope,
    EmptySetError,
    cartesian_product,
    contains,
    diameter_inf,
    from_box,
    intersect,
    intersect_under_map,
    interval_hull,
    is_empty,
    linear_map,
    minkowski_sum,
    project,
    whole_space,
)
from .filters import (
    CentralizedFilter,
    DistributedFilter,
    EmptyPosteriorError,
    OitFilter,
    WindowTooShortError,
)
from .simharness import (
    ScenarioConfig,
    TrialLog,
    builtin_scenario,
    run_monte_carlo,
    run_trial,
    write_metrics_csv,
)
from .sysmodel import (
    AgentModel,
    MeasurementBatch,
    MultiAgentSystem,
    NotObservableError,
    SchemaError,
    Topology,
    observability_index,
    system_from_dict,
)

__version__ = "0.1.0"

__all__ = [
    "Box",
    "ConstrainedZonotope",
    "EmptySetError",
    "cartesian_product",
    "contains",
    "diameter_inf",
    "from_box",
    "intersect",
    "intersect_under_map",
    "interval_hull",
    "is_empty",
    "linear_map",
    "minkowski_sum",
    "project",
    "whole_space",
    "CentralizedFilter",
    "DistributedFilter",
    "EmptyPosteriorError",
    "OitFilter",
    "WindowTooShortError",
    "ScenarioConfig",
    "TrialLog",
    "builtin_scenario",
    "run_monte_carlo",
    "run_trial",
    "write_metrics_csv",
    "AgentModel",
    "MeasurementBatch",
    "MultiAgentSystem",
    "NotObservableError",
    "SchemaError",
    "Topology",
    "observability_index",
    "system_from_dict",
    "__version__",
]
