"""Exact mixed Hodge numbers and point counts of acyclic cluster varieties."""

from .exchange import (
    Character,
    CharacterGroup,
    ExtendedExchangeMatrix,
    FiniteAbelianGroup,
    Quiver,
    RankClass,
    RationalExchangeMatrix,
    is_acyclic,
    mutate,
    principal_from_graph,
    principal_matrix,
    quiver,
    rank_class,
    reduce_character,
    underlying_graph,
    validate,
    validate_rational,
)
from .exterior import ExteriorForm
from .graphs import (
    Graph,
    anticliques,
    closed_form_cycle,
    closed_form_path,
    forest_homotopy,
    mv_delta,
    reduced_cohomology,
)
from .gysin import (
    GysinBuilder,
    HodgeTable,
    alpha,
    build_gysin_complex,
    edge_class_cochain,
    gsv_form,
    hodge_table,
    standard_poincare,
)
from .filtration import (
    FilteredComplexQ,
    SparseMatrix,
    build_filtered,
    e1_page,
    graded_pieces,
    spectral_sequence,
)
from .counts import (
    GraphStats,
    brute_force_count,
    closed_form_s_le_3,
    consistency_suite,
    graph_stats,
    point_count_poly,
)
from .poly import IntPolynomial

__all__ = [name for name in dir() if not name.startswith("_")]
