"""Exact-arithmetic toolkit for polyhedral DC optimization.

Minimize g - h over a polyhedral set C, where g and h are max-affine
functions with rational data.  Everything is decided by exact rational
linear programs: point classification (critical / stationary / local /
global), decomposition of the local and global solution sets into
(semi-closed) polyhedral pieces, DCA runs with cycle detection, and
Toland-Singer duality checks.

The public names are exactly the ones imported below.
"""

import types

from .exactlp import (
    ExtendedRational,
    LinearProgram,
    LpOutcome,
    LpStatus,
    MINUS_INF,
    PLUS_INF,
    Vector,
    integer_row,
    lp_feasible,
    lp_solve,
    max_slack,
    optimality_certificate,
    row_space_basis,
)
from .model import (
    ConvexBody,
    DcProblem,
    DimensionMismatch,
    EmptyIntersection,
    ImproperFunction,
    InternalCheckFailed,
    MaxAffine,
    OutsideDomain,
    PolydcError,
    PolyhedralSet,
    contains_set,
    restrict_sum,
)
from .optimality import (
    Classification,
    GlobalStatus,
    HypothesisFlags,
    LocalStatus,
    classify,
    is_critical,
    is_local_solution,
    is_stationary,
)
from .structure import (
    Component,
    EnumerationCapExceeded,
    HypothesisNotMet,
    LinearizationResult,
    SemiClosedPiece,
    SolutionStructure,
    components,
    global_solutions,
    local_pieces,
    segment_path,
    solution_structure,
    solve_linearization,
)
from .dca import (
    ByActiveSetTable,
    DcaNode,
    DcaTrace,
    EmptyTrace,
    Iterate,
    MaxIndexActive,
    MinIndexActive,
    Scripted,
    SelectionRule,
    Termination,
    TerminationKind,
    TraceValidation,
    TransitionGraph,
    run,
    select_subgradient,
    solve_subproblem,
    transition_graph,
    validate_trace,
)
from .duality import DualReport, dual_objective, toland_singer_check
from .gridcheck import GridReport, grid_cross_check
from .cli import parse_problem, serialize_problem

__version__ = "0.1.0"

__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
]
