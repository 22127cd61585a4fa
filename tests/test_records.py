"""The package's record classes: constructors, fields, equality, import cost
and what the import loads."""

import copy
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import clusterhodge
from clusterhodge.counts import CheckResult, GraphStats, PointCountResult, SuiteReport
from clusterhodge.exchange import (
    Character,
    CharacterSubgroup,
    ExtendedExchangeMatrix,
    FiniteAbelianGroup,
    Quiver,
    RationalExchangeMatrix,
    ReducedCharacter,
    ZeroComplex,
)
from clusterhodge.filtration import FilteredComplexQ, SpectralSequencePage
from clusterhodge.graphs import AnticliqueFamily, Graph, ReducedCohomology
from clusterhodge.gysin import GModuleBasis, HodgeTable
from clusterhodge.linalg import CochainComplexQ, SmithNormalForm, SparseMatrix
from clusterhodge.poly import IntPolynomial
from clusterhodge.reference import GradedPiece, HomotopyType


def _complex():
    return CochainComplexQ([["x"], ["y"]], [[{0: 1}]], [{0: 0}])


P2 = ExtendedExchangeMatrix(2, 2, ((0, 1), (-1, 0), (1, 0), (0, 1)))

# every record with a value for each field, in constructor order
RECORDS = [
    (PointCountResult, {"polynomial": IntPolynomial((1, -2, 1)), "modulus": 2}),
    (
        GraphStats,
        {
            "components": 1,
            "isolated": 0,
            "degrees": (1, 1),
            "e_increments": (0, 0),
            "triangles": 0,
            "h1": 0,
        },
    ),
    (CheckResult, {"name": "point count", "status": "PASS", "detail": "q in [3]"}),
    (SuiteReport, {"checks": [CheckResult("vanishing bounds", "PASS")]}),
    (ExtendedExchangeMatrix, {"n": 2, "m": 2, "rows": P2.rows}),
    (
        RationalExchangeMatrix,
        {"n": 1, "m": 1, "rows": ((Fraction(0),), (Fraction(1, 2),))},
    ),
    (Quiver, {"vertex_count": 2, "arcs": frozenset({(0, 1)})}),
    (FiniteAbelianGroup, {"invariant_factors": (2, 4)}),
    (Character, {"coords": (1,), "lift": (0, 1, 2)}),
    (
        CharacterSubgroup,
        {"invariant_factors": (2,), "anticlique": (0,), "generators": ((1,),), "moduli": (2,)},
    ),
    (ZeroComplex, {}),
    (ReducedCharacter, {"kappa": 1, "matrix": P2}),
    (FilteredComplexQ, {"complex": _complex(), "levels": [[0], [1]]}),
    (GradedPiece, {"d_set": (0,), "e_set": (1,), "complex": _complex()}),
    (
        SpectralSequencePage,
        {
            "r": 1,
            "entries": {(0, 0): 1, (1, -1): 2},
            "differentials": {(0, 0): SparseMatrix((1, 1), {0: {0: Fraction(1)}})},
        },
    ),
    (Graph, {"n_vertices": 3, "edges": frozenset({(0, 1), (1, 2)})}),
    (AnticliqueFamily, {"by_cardinality": ((0,), (1, 2, 4), (5,))}),
    (ReducedCohomology, {"dims": {0: 1}}),
    (HomotopyType, {"contractible": False, "sphere_dim": 1}),
    (
        GModuleBasis,
        {
            "anticlique": (0,),
            "row_selection": (1,),
            "row_mask": 2,
            "allowed": 4,
            "top_down": (4,),
            "substitution": {1: {4: Fraction(1, 2)}},
        },
    ),
    (HodgeTable, {"n": 1, "m": 1, "dims": {(0, 0): 1, (1, 1): 1}}),
    (
        CochainComplexQ,
        {"labels": [["x"], ["y"]], "columns": [[{0: 1}]], "matching": [{0: 0}]},
    ),
    (
        SmithNormalForm,
        {
            "diag": (1, 2),
            "p": [[1, 0], [0, 1]],
            "pinv": [[1, 0], [0, 1]],
            "q": [[0, 1], [1, 0]],
            "nrows": 2,
            "ncols": 2,
        },
    ),
    (IntPolynomial, {"coefficients": (1, 0, 2)}),
]

# the records compared by value, and those of them that are hashed
COMPARED = {
    CheckResult,
    ExtendedExchangeMatrix,
    GModuleBasis,
    Graph,
    HodgeTable,
    HomotopyType,
    IntPolynomial,
    PointCountResult,
    SpectralSequencePage,
    SuiteReport,
}
HASHED = {ExtendedExchangeMatrix, Graph, HomotopyType, IntPolynomial, PointCountResult}

IDS = [cls.__name__ for cls, _ in RECORDS]


def test_every_record_is_listed():
    assert len(RECORDS) == len(set(IDS)) == 24
    assert COMPARED | HASHED <= {cls for cls, _ in RECORDS}


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_a_record_builds_by_position_and_by_keyword(cls, fields):
    for record in (cls(*fields.values()), cls(**fields)):
        assert {name: getattr(record, name) for name in fields} == fields


@pytest.mark.parametrize(
    "cls, fields",
    [(cls, fields) for cls, fields in RECORDS if cls in COMPARED],
    ids=[name for (cls, _), name in zip(RECORDS, IDS) if cls in COMPARED],
)
def test_a_compared_record_equals_a_copy_of_its_values(cls, fields):
    record, twin = cls(**fields), cls(**copy.deepcopy(fields))
    assert record == twin and not record != twin
    if cls in HASHED:
        assert hash(record) == hash(twin)


@pytest.mark.parametrize(
    "record, name, default",
    [
        (CheckResult("curious Lefschetz symmetry", "PASS"), "detail", ""),
        (HomotopyType(True), "sphere_dim", None),
        (CochainComplexQ([["x"]], []), "matching", []),
    ],
    ids=["CheckResult.detail", "HomotopyType.sphere_dim", "CochainComplexQ.matching"],
)
def test_a_record_takes_its_default(record, name, default):
    assert getattr(record, name) == default


def test_a_cochain_complex_gets_a_fresh_matching_list():
    one, two = CochainComplexQ([["x"]], []), CochainComplexQ([["x"]], [])
    one.matching.append({})
    assert two.matching == []


def test_a_record_computes_what_its_fields_imply():
    assert Graph(3, frozenset({(0, 1), (1, 2)})).adjacency == (2, 5, 2)
    assert IntPolynomial((1, 2, 0, 0)).coefficients == (1, 2)
    with pytest.raises(ValueError, match="divide the next"):
        FiniteAbelianGroup((4, 2))
    with pytest.raises(ValueError, match="divide the next"):
        CharacterSubgroup((4, 2), (0,), ((1,), (1,)), (4, 2))
    sub = CharacterSubgroup((2,), (0,), ((1,),), (2,))
    assert sub.elements == frozenset({(0,), (1,)})


def test_the_import_generates_no_code():
    # a fresh interpreter without site-packages, the package from its source
    src = str(Path(clusterhodge.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys, clusterhodge, clusterhodge.cli; "
        "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    )
    ran = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert (ran.returncode, ran.stdout, ran.stderr) == (0, "[]\n", "")


# read from the package, each loads clusterhodge.reference on first use
LAZY = (
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


def test_the_import_leaves_the_reference_code_out():
    # a fresh interpreter without site-packages imports the package and the
    # six modules the benchmark imports, then reads the lazy names
    src = str(Path(clusterhodge.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = f"""
import importlib, json, sys
import clusterhodge
for name in ("exchange", "linalg", "graphs", "gysin", "filtration", "counts"):
    importlib.import_module("clusterhodge." + name)
loaded = sorted({{"clusterhodge.reference", "clusterhodge.cli", "clusterhodge.io"}} & sys.modules.keys())
import clusterhodge.reference as reference
same = [name for name in {LAZY!r} if getattr(clusterhodge, name) is getattr(reference, name)]
star = {{}}
exec("from clusterhodge import *", star)
del star["__builtins__"]
print(json.dumps([loaded, same, sorted(star), sorted(clusterhodge.__all__)]))
"""
    ran = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert (ran.returncode, ran.stderr) == (0, "")
    loaded, same, star, exported = json.loads(ran.stdout)
    assert loaded == []
    assert same == list(LAZY)
    assert star == exported and len(exported) == 46 and set(LAZY) <= set(exported)
