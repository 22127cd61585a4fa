"""Exact mixed Hodge numbers and point counts of acyclic cluster varieties.

The reference formulas live in ``clusterhodge.reference``: ``__getattr__``
imports it the first time a name of ``_REFERENCE`` is read from the
package, so ``import clusterhodge`` does not compile it.
"""

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
from .graphs import Graph, anticliques, mv_delta, reduced_cohomology
from .gysin import GysinBuilder, HodgeTable, build_gysin_complex, hodge_table
from .filtration import (
    FilteredComplexQ,
    SparseMatrix,
    build_filtered,
    e1_page,
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

_REFERENCE = (
    "ExteriorForm",
    "alpha",
    "closed_form_cycle",
    "closed_form_path",
    "edge_class_cochain",
    "forest_homotopy",
    "graded_pieces",
    "gsv_form",
    "standard_poincare",
)


def __getattr__(name: str):
    if name in _REFERENCE:
        from . import reference

        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Character",
    "CharacterGroup",
    "ExtendedExchangeMatrix",
    "ExteriorForm",
    "FilteredComplexQ",
    "FiniteAbelianGroup",
    "Graph",
    "GraphStats",
    "GysinBuilder",
    "HodgeTable",
    "IntPolynomial",
    "Quiver",
    "RankClass",
    "RationalExchangeMatrix",
    "SparseMatrix",
    "alpha",
    "anticliques",
    "brute_force_count",
    "build_filtered",
    "build_gysin_complex",
    "closed_form_cycle",
    "closed_form_path",
    "closed_form_s_le_3",
    "consistency_suite",
    "e1_page",
    "edge_class_cochain",
    "forest_homotopy",
    "graded_pieces",
    "graph_stats",
    "gsv_form",
    "hodge_table",
    "is_acyclic",
    "mutate",
    "mv_delta",
    "point_count_poly",
    "principal_from_graph",
    "principal_matrix",
    "quiver",
    "rank_class",
    "reduce_character",
    "reduced_cohomology",
    "spectral_sequence",
    "standard_poincare",
    "underlying_graph",
    "validate",
    "validate_rational",
]
