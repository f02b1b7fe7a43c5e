"""Decision trees that mix attribute tests with hypothesis queries.

Trees over decision tables are grown greedily under one of five uncertainty
measures, choosing at each step among attribute queries, hypothesis queries
(answered by "holds" or a counterexample), or the better of both, depending
on the tree type.  The package also evaluates the trees (depth, realizable
nodes), extracts decision rules from their paths, and runs reproducible
experiment grids over CSV datasets, built-in generated tables and random
Boolean functions.
"""

from __future__ import annotations

from .table import (
    ConstraintError,
    DecisionTable,
    EquationSystem,
    SubtableRef,
)
from .uncertainty import MEASURES, UncertaintyMeasure, get_measure
from .queries import (
    Answer,
    AttributeQuery,
    Hypothesis,
    HypothesisQuery,
    TREE_TYPES,
    answers,
    impurity,
    is_admissible_attribute,
    is_admissible_hypothesis,
    is_proper,
    render_hypothesis,
    select_query,
)
from .builder import (
    DEFAULT_NODE_BUDGET,
    DecisionTree,
    NodeBudgetExceeded,
    build_tree,
)
from .metrics import (
    ComputationState,
    StrategyError,
    ValidationReport,
    depth,
    first_counterexample,
    realizable_count,
    simulate,
    validate,
)
from .rules import (
    DecisionRule,
    RuleSet,
    RuleStats,
    derive_rules,
    render_rule,
    rule_stats,
    rules_to_csv,
)
from .boolgen import (
    BooleanFunction,
    BoolSuiteSpec,
    function_suite,
    parse_suite_spec,
    random_function,
    table_of,
)
from .datasets import GENERATED_TABLES, balance_scale, generated_table, tic_tac_toe
from .harness import (
    BoolAggregate,
    DataError,
    ExperimentSpec,
    ReportCell,
    aggregate_bool,
    expand_sources,
    load_source,
    load_table,
    render_bool_report,
    render_report,
    run_matrix,
    table_from_records,
)

__version__ = "0.1.0"

__all__ = [
    "Answer",
    "AttributeQuery",
    "BoolAggregate",
    "BoolSuiteSpec",
    "BooleanFunction",
    "ComputationState",
    "ConstraintError",
    "DEFAULT_NODE_BUDGET",
    "DataError",
    "DecisionRule",
    "DecisionTable",
    "DecisionTree",
    "EquationSystem",
    "ExperimentSpec",
    "GENERATED_TABLES",
    "Hypothesis",
    "HypothesisQuery",
    "MEASURES",
    "NodeBudgetExceeded",
    "ReportCell",
    "RuleSet",
    "RuleStats",
    "StrategyError",
    "SubtableRef",
    "TREE_TYPES",
    "UncertaintyMeasure",
    "ValidationReport",
    "aggregate_bool",
    "answers",
    "balance_scale",
    "build_tree",
    "depth",
    "derive_rules",
    "expand_sources",
    "first_counterexample",
    "function_suite",
    "generated_table",
    "get_measure",
    "impurity",
    "is_admissible_attribute",
    "is_admissible_hypothesis",
    "is_proper",
    "load_source",
    "load_table",
    "parse_suite_spec",
    "random_function",
    "realizable_count",
    "render_bool_report",
    "render_hypothesis",
    "render_report",
    "render_rule",
    "rule_stats",
    "rules_to_csv",
    "run_matrix",
    "select_query",
    "simulate",
    "table_from_records",
    "table_of",
    "tic_tac_toe",
    "validate",
]
