"""Core contribution: pattern count-based labels (PCBL).

This package implements Sections II and III of the paper:

* :mod:`~repro.core.pattern` — patterns (Definition 2.1) and satisfaction;
* :mod:`~repro.core.counts` — the counting kernel computing ``c_D(p)`` and
  joint count tables;
* :mod:`~repro.core.label` — labels ``L_S(D)`` with their ``PC`` and ``VC``
  components (Definition 2.9);
* :mod:`~repro.core.estimator` — the estimation function ``Est(p, l)``
  (Definition 2.11) plus vectorized whole-dataset estimation;
* :mod:`~repro.core.errors` — absolute and q-error metrics (Definition
  2.13, Section II-B) and error summaries;
* :mod:`~repro.core.patternsets` — pattern-set constructions (``P_A``,
  sensitive-attribute subsets, ...);
* :mod:`~repro.core.lattice` — the label lattice and the duplicate-free
  ``gen`` child generator (Definitions 3.4 and 3.5);
* :mod:`~repro.core.search` — the naive level-wise algorithm and the
  top-down heuristic (Algorithm 1);
* :mod:`~repro.core.problem` — optimal-label and decision problem objects
  (Definitions 2.15 and 2.16).
"""

from repro.core.pattern import Pattern
from repro.core.counts import PatternCounter
from repro.core.sharding import (
    ShardedPatternCounter,
    make_counter,
    merge_count_tables,
)
from repro.core.label import Label, build_label, label_size
from repro.core.estimator import LabelEstimator, MultiLabelEstimator
from repro.core.errors import (
    ErrorSummary,
    Objective,
    absolute_error,
    q_error,
    evaluate_label,
)
from repro.core.patternsets import (
    PatternSet,
    full_pattern_set,
    patterns_over,
    sensitive_pattern_set,
)
from repro.core.lattice import LabelLattice, gen_children
from repro.core.search import (
    NoFeasibleLabelError,
    SearchDriver,
    SearchResult,
    SearchStats,
    SearchTimeout,
    anytime_search,
    beam_search,
    naive_search,
    top_down_search,
    find_optimal_label,
)
from repro.core.problem import OptimalLabelProblem, DecisionProblem
from repro.core.flexlabel import (
    FlexibleLabel,
    FlexibleEstimator,
    greedy_flexible_label,
)
from repro.core.workload import (
    random_pattern_workload,
    arity_pattern_set,
    marginals_pattern_set,
)
from repro.core.maintenance import (
    apply_batch,
    apply_inserts,
    apply_deletes,
)
from repro.core.sizing import (
    pc_bytes,
    label_bytes,
    find_optimal_label_bytes,
)
from repro.core.classify import (
    EstimateKind,
    classify_estimate,
    classification_profile,
    check_proposition_3_2,
)

__all__ = [
    "Pattern",
    "PatternCounter",
    "ShardedPatternCounter",
    "make_counter",
    "merge_count_tables",
    "Label",
    "build_label",
    "label_size",
    "LabelEstimator",
    "MultiLabelEstimator",
    "ErrorSummary",
    "Objective",
    "absolute_error",
    "q_error",
    "evaluate_label",
    "PatternSet",
    "full_pattern_set",
    "patterns_over",
    "sensitive_pattern_set",
    "LabelLattice",
    "gen_children",
    "SearchDriver",
    "SearchResult",
    "SearchStats",
    "SearchTimeout",
    "NoFeasibleLabelError",
    "naive_search",
    "top_down_search",
    "beam_search",
    "anytime_search",
    "find_optimal_label",
    "OptimalLabelProblem",
    "DecisionProblem",
    "FlexibleLabel",
    "FlexibleEstimator",
    "greedy_flexible_label",
    "random_pattern_workload",
    "arity_pattern_set",
    "marginals_pattern_set",
    "apply_batch",
    "apply_inserts",
    "apply_deletes",
    "pc_bytes",
    "label_bytes",
    "find_optimal_label_bytes",
    "EstimateKind",
    "classify_estimate",
    "classification_profile",
    "check_proposition_3_2",
]
