import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterhodge.errors import (
    ConsistencyError,
    IndexOutOfRange,
    NotAnticlique,
    NotFullRank,
    NotSkewSymmetric,
    ShapeMismatch,
)
from clusterhodge.exchange import (
    Character,
    CharacterGroup,
    RankClass,
    ZeroComplex,
    _reduce_support,
    is_acyclic,
    mutate,
    quiver,
    rank_class,
    reduce_character,
    underlying_graph,
    validate,
)

from conftest import full_rank_corpus, random_acyclic_matrix


def test_validate_examples():
    assert validate([[0]], 1, 0).rows == ((0,),)
    assert validate([[0, 1], [-1, 0], [1, 0]], 2, 1).n == 2
    with pytest.raises(NotSkewSymmetric) as err:
        validate([[1], [0]], 1, 1)
    assert err.value.position == (0, 0)
    with pytest.raises(ShapeMismatch):
        validate([[0, 1]], 1, 0)


def test_mutate_examples():
    b = validate([[0, 1], [-1, 0]], 2, 0)
    assert mutate(b, 0).rows == ((0, -1), (1, 0))
    b2 = validate([[0, 1], [-1, 0], [1, 0]], 2, 1)
    # hand application of the rule, cross-checked by involutivity
    assert mutate(b2, 0).rows == ((0, -1), (1, 0), (-1, 1))
    assert mutate(mutate(b2, 0), 0).rows == b2.rows
    with pytest.raises(IndexOutOfRange):
        mutate(b, 2)


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_mutation_involution_random(seed):
    rng = random.Random(seed)
    m = random_acyclic_matrix(rng)
    for k in range(m.n):
        assert mutate(mutate(m, k), k).rows == m.rows


def test_quiver_and_graph():
    b = validate([[0, 1], [-1, 0]], 2, 0)
    assert quiver(b).arcs == frozenset({(0, 1)})
    assert underlying_graph(b).edges == frozenset({(0, 1)})
    z = validate([[0, 0, 0], [0, 0, 0], [0, 0, 0]], 3, 0)
    assert quiver(z).arcs == frozenset()
    tri = validate([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]], 3, 0)
    assert quiver(tri).arcs == frozenset({(0, 1), (0, 2), (1, 2)})
    assert is_acyclic(tri)


def test_is_acyclic():
    cyc = validate([[0, 1, -1], [-1, 0, 1], [1, -1, 0]], 3, 0)
    assert not is_acyclic(cyc)
    assert is_acyclic(validate([[0, 0], [0, 0]], 2, 0))


def test_rank_class_examples():
    assert rank_class(validate([[0], [1]], 1, 1)) is RankClass.REALLY_FULL_RANK
    assert rank_class(validate([[0, 2], [-2, 0]], 2, 0)) is RankClass.FULL_RANK
    assert rank_class(validate([[0]], 1, 0)) is RankClass.NOT_FULL_RANK
    assert rank_class(validate([], 0, 0)) is RankClass.REALLY_FULL_RANK


def test_cokernel_examples():
    # X* is also the torsion of Z^{n+m} / B~ Z^n
    assert CharacterGroup(validate([[0], [1]], 1, 1)).group.invariant_factors == ()
    group = CharacterGroup(validate([[0, 2], [-2, 0]], 2, 0)).group
    assert group.invariant_factors == (2, 2)
    assert group.order == 4
    with pytest.raises(NotFullRank):
        CharacterGroup(validate([[0]], 1, 0))


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_cokernel_and_rank_class_mutation_invariant(seed):
    rng = random.Random(seed)
    m = random_acyclic_matrix(rng, n_max=4, m_max=3)
    rc = rank_class(m)
    factors = (
        CharacterGroup(m).group.invariant_factors
        if rc is not RankClass.NOT_FULL_RANK
        else None
    )
    for k in range(m.n):
        m2 = mutate(m, k)
        assert rank_class(m2) is rc
        if factors is not None:
            assert CharacterGroup(m2).group.invariant_factors == factors


def test_character_group_order_and_membership():
    m = validate([[0, 2], [-2, 0]], 2, 0)
    group = CharacterGroup(m)
    assert group.order == 4
    assert group.group.invariant_factors == (2, 2)
    subs = {(): group.subgroup([]), (0,): group.subgroup([0]), (1,): group.subgroup([1])}
    assert subs[()].order == 1
    assert subs[(0,)].order == 2 and subs[(1,)].order == 2
    # the (1,1) class avoids every anticlique subgroup
    chi11 = [c for c in group.elements() if c.coords == (1, 1)][0]
    assert not any(s.contains(chi11) for s in subs.values())
    with pytest.raises(NotAnticlique):
        group.subgroup([0, 1])


def test_character_subgroup_monotone_on_corpus():
    for m in full_rank_corpus():
        group = CharacterGroup(m)
        graph = underlying_graph(m)
        masks = [
            mask
            for mask in range(1 << m.n)
            if graph.is_independent(mask)
        ]
        subs = {mask: group.subgroup([i for i in range(m.n) if mask >> i & 1])
                for mask in masks}
        for small in masks:
            for big in masks:
                if small & big == small:
                    assert subs[small].is_subgroup_of(subs[big])


def test_really_full_rank_subgroups_trivial():
    m = validate([[0, 1], [-1, 0], [1, 0], [0, 1]], 2, 2)
    group = CharacterGroup(m)
    assert group.order == 1
    assert group.subgroup([0]).order == 1


def test_support_examples():
    m = validate([[0, 2], [-2, 0]], 2, 0)
    group = CharacterGroup(m)
    identity = group.character_from_coords((0, 0))
    assert group.support(identity) == frozenset()
    chi = group.character_from_lift((0, 1))
    # solving (0,1) = B~ u gives u = (-1/2, 0)
    assert group.support(chi) == frozenset({0})
    chi11 = group.character_from_lift((1, 1))
    assert group.support(chi11) == frozenset({0, 1})


def test_support_refuses_a_lift_outside_the_column_span():
    # B~ = (0, 1)^T spans the second coordinate only
    group = CharacterGroup(validate([[0], [1]], 1, 1))
    assert group.support(Character((), (0, 3))) == frozenset()
    with pytest.raises(ValueError, match="rational column span"):
        group.support(Character((), (1, 0)))


def test_support_is_representative_independent():
    m = validate([[0, 2], [-2, 0]], 2, 0)
    group = CharacterGroup(m)
    chi = group.character_from_lift((0, 1))
    for u0 in range(-2, 3):
        for u1 in range(-2, 3):
            shifted = (0 + 2 * u1, 1 - 2 * u0)
            other = group.character_from_lift(shifted)
            assert other.coords == chi.coords
            assert group.support(other) == group.support(chi)


def test_reduce_character_cases():
    m = validate([[0, 2], [-2, 0]], 2, 0)
    group = CharacterGroup(m)
    assert isinstance(
        reduce_character(m, group.character_from_lift((1, 1))), ZeroComplex
    )
    red = reduce_character(m, group.character_from_lift((0, 1)))
    assert red.kappa == 1
    assert red.matrix.n == 0 and red.matrix.m == 0
    ident = reduce_character(m, group.character_from_coords((0, 0)))
    assert ident.kappa == 0
    assert ident.matrix.top_block() == m.top_block()


def test_reduce_support_raises_when_k_exceeds_the_reduced_rows():
    # [0 0; 0 0] is not of full rank: J = {0} leaves K = {1} and no rows for
    # it, a broken precondition that must raise even under python -O
    m = validate([[0, 0], [0, 0]], 2, 0)
    with pytest.raises(ConsistencyError, match="K = \\[1\\] exceeds the 0 reduced rows"):
        _reduce_support(m, frozenset({0}))
