from hypothesis import given, settings
from hypothesis import strategies as st

from clusterhodge.exterior import (
    ExteriorForm,
    bits,
    mask_of,
    wedge_sign,
)

from conftest import submasks, wedge_all

forms = st.dictionaries(
    st.integers(0, 63), st.integers(-4, 4), max_size=4
).map(ExteriorForm)


def test_wedge_sign_basics():
    assert wedge_sign(0b001, 0b010) == 1  # e0 ^ e1
    assert wedge_sign(0b010, 0b001) == -1  # e1 ^ e0
    assert wedge_sign(0b101, 0b010) == -1  # (e0^e2) ^ e1


def test_generator_squares_to_zero():
    e = ExteriorForm.generator(3)
    assert not e.wedge(e)


@given(forms, forms)
@settings(max_examples=80, deadline=None)
def test_wedge_bilinear_anticommutative_on_odd(a, b):
    a1, b1 = a.degree_part(1), b.degree_part(1)
    assert a1.wedge(b1) == b1.wedge(a1).scale(-1)


@given(forms, forms, forms)
@settings(max_examples=60, deadline=None)
def test_wedge_associative(a, b, c):
    assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


@given(forms, forms, forms)
@settings(max_examples=60, deadline=None)
def test_wedge_distributes(a, b, c):
    assert (a + b).wedge(c) == a.wedge(c) + b.wedge(c)


def test_wedge_all_orders_monomials():
    gens = [ExteriorForm.generator(i) for i in (2, 0, 1)]
    # e2 ^ e0 ^ e1 = +e0^e1^e2 (two transpositions)
    assert wedge_all(gens) == ExteriorForm.monomial(0b111, 1)


def test_bits_ascending():
    assert bits(0b101001) == [0, 3, 5]


@given(st.integers(0, 1023))
def test_mask_of_and_submasks(mask):
    assert mask_of(bits(mask)) == mask
    subs = list(submasks(mask))
    assert subs[0] == mask and subs[-1] == 0
    assert sorted(subs) == [m for m in range(mask + 1) if m & ~mask == 0]
