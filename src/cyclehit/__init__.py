"""cyclehit: t-factors of regular multigraphs meeting prescribed cycle sets.

Constructive pipelines (vertex expansion by gadget trees, even-indegree
orientations, vertex splitting), explicit counterexample family generators,
and an independent exact brute-force oracle.
"""

from .cycles import (
    CycleSet,
    cycle_vertices,
    parse_cycles,
    serialize_cycles,
)
from .expansion import (
    ExpansionMap,
    cubic_expansion,
    split_factor,
)
from .factors import (
    MODES,
    Factor,
    parse_factor,
    serialize_factor,
    two_factorization,
    verify_factor,
    verify_intersections,
)
from .families import (
    FamilyInstance,
    gen_doubled,
    gen_sec6_2k,
    gen_thm4,
    gen_thm5,
    petersen,
    petersen_cycles,
)
from .gadgets import (
    GadgetTree,
    build_even_leaf_tree,
    build_gadget_tree,
    lonely_pendant_edges,
    matched_leaf_count,
    serialize_gadget_tree,
)
from .instances import pack_cycles, random_regular_multigraph
from .multigraph import (
    FormatError,
    GraphError,
    Multigraph,
    is_k_connected,
    parse_multigraph,
    serialize_multigraph,
    vertex_connectivity,
)
from .orientation import (
    Orientation,
    balanced_orientation,
    parse_orientation,
    serialize_orientation,
    verify_orientation,
)
from .pipelines import (
    PipelineReport,
    extend_factor,
    half_pipeline,
    orient_even_indegree,
    third_pipeline,
)
from .solver import (
    BUDGET_EXCEEDED,
    SAT,
    UNSAT,
    BudgetExceededError,
    OracleVerdict,
    SearchBudget,
    t_factor_oracle,
)

__version__ = "1.0.0"
