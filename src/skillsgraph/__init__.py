"""Weighted skills dependency graphs and the analyses that run on them.

Core pieces: graph construction and centrality (graph), budgeted allocation
(allocate), constrained path search (paths), outcome-driven weight updates
(feedback), skill-state Markov chains (markov), tabular preparation and a
from-scratch decision tree with grid search (prepare, tree, search), synthetic
cohorts (cohort), and a scenario runner plus CLI (scenario, cli).
"""

__version__ = "0.2.0"

from .allocate import (
    AllocationPlan,
    NodeSelection,
    allocate_fractional,
    select_knapsack,
)
from .cohort import (
    CohortProfile,
    CohortTable,
    default_profile,
    generate_cohort,
    load_cohort_csv,
    planted_profile,
    summarize,
    write_cohort_csv,
)
from .errors import DomainError, InputError, ToolError
from .feedback import (
    CycleHistory,
    ExecutionReport,
    FeedbackConfig,
    MetricsReport,
    execute_plan,
    run_feedback_cycle,
    update_weights,
)
from .graph import (
    UNBOUNDED,
    DependencyEdge,
    SkillNode,
    SkillsGraph,
    build_graph,
    load_graph,
    save_graph,
    validate_dag,
    weighted_centrality,
)
from .markov import (
    TransitionMatrix,
    build_transition_matrix,
    stationary_distribution,
    step_distribution,
)
from .paths import Path, enumerate_paths, find_optimal_path
from .prepare import (
    PreparedDataset,
    RawColumn,
    apply_stats,
    preprocess,
    stratified_folds,
    stratified_split,
)
from .scenario import run_scenario
from .search import GridSearchResult, GridSpec, grid_search_cv
from .tree import (
    DecisionTree,
    TreeParams,
    accuracy,
    entropy,
    feature_importance,
    fit_tree,
    gini,
    information_gain,
    predict_many,
)

__all__ = [name for name in dir() if not name.startswith("_")]
