"""Partial injective transformations on a finite set: normal forms,
commutation, extremal commutative subsemigroups, and commuting graphs."""

import numpy as _np

if int(_np.__version__.split(".")[0]) < 2:
    raise ImportError(f"invsemi needs numpy>=2.0, found {_np.__version__}")

from .pinj import (
    UNDEF,
    PInj,
    ParseError,
    classify,
    compose,
    decompose,
    element_from_id,
    element_id,
    format_element,
    join,
    monoid_order,
    parse,
    power,
)
from .commute import (
    CommuteChecker,
    centralizer,
    commutes_naive,
    commutes_structural,
    iter_permutation_centralizer,
    iter_permutation_centralizer_chunks,
    overlap_classes,
    permutation_centralizer_order,
    permutation_joint_centralizer,
)
from .construct import (
    ExtremalReport,
    SemigroupSet,
    balanced_null_order,
    balanced_null_semigroups,
    classify_semigroup,
    closure,
    count_elements,
    enumerate_elements,
    idempotent_semilattice,
    max_commutative_nilpotent,
    null_semigroup,
)
from .graph import (
    INFINITY,
    BudgetExceeded,
    CommutingGraph,
    build_graph,
    clique_number,
    components,
    diameter,
    distance,
    eccentricities,
    induced_subgraph,
    maximum_cliques,
)
from .witnesses import (
    Distance5Report,
    align_middle,
    build_path,
    commuting_idempotent,
    dolzan_distance_check,
    extremal_nilpotent_pair,
    ideal_witness_pair,
    prime_power_pair,
    search_open,
    sym_counterexample,
    verify_distance5,
)
from .cli import SuiteReport, main, run_suite

__version__ = "0.1.0"

__all__ = [
    "UNDEF", "PInj", "ParseError", "classify", "compose", "decompose",
    "element_from_id", "element_id", "format_element", "join",
    "monoid_order", "parse", "power",
    "CommuteChecker", "centralizer", "commutes_naive",
    "commutes_structural", "iter_permutation_centralizer",
    "iter_permutation_centralizer_chunks", "overlap_classes",
    "permutation_centralizer_order",
    "permutation_joint_centralizer",
    "ExtremalReport", "SemigroupSet", "balanced_null_order",
    "balanced_null_semigroups", "classify_semigroup", "closure",
    "count_elements", "enumerate_elements", "idempotent_semilattice",
    "max_commutative_nilpotent", "null_semigroup",
    "INFINITY", "BudgetExceeded", "CommutingGraph", "build_graph",
    "clique_number", "components", "diameter", "distance",
    "eccentricities", "induced_subgraph", "maximum_cliques",
    "Distance5Report", "align_middle", "build_path",
    "commuting_idempotent", "dolzan_distance_check",
    "extremal_nilpotent_pair", "ideal_witness_pair", "prime_power_pair",
    "search_open", "sym_counterexample", "verify_distance5",
    "SuiteReport", "main", "run_suite",
]
