"""Exact-arithmetic toolkit for binary expansions in non-integer bases.

The package computes with values in Q(q) for an algebraic base q in (1, 2),
evaluates eventually periodic binary words, follows the forced expansion
dynamics, classifies how many expansions a point has, and ships a
verification suite of reference computations.
"""

from .numberfield import (
    AlgebraicReal,
    AmbiguousInterval,
    BaseField,
    MixedFields,
    NoRootInInterval,
    NotMonic,
    ReduciblePolynomial,
    compare,
    define_field,
    golden_field,
    q2_field,
    qf_field,
    sign,
    to_decimal,
)
from .words import (
    EmptyWordError,
    PeriodicWord,
    Region,
    WordSyntaxError,
    apply_digits,
    domain_bounds,
    eval_word,
    parse_word,
    reflect_point,
    reflect_word,
    region,
    t0,
    t1,
)
from .branching import (
    BranchGraph,
    Cardinality,
    Edge,
    OutsideDomain,
    RunOutcome,
    StepLimit,
    SwitchHit,
    UniqueTail,
    bfs_expansions,
    build_branch_graph,
    classify,
    count_expansions,
    deterministic_run,
    enumerate_expansions,
    viable_prefix_counts,
)

__version__ = "0.1.0"
