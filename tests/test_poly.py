from fractions import Fraction

import pytest

from clusterhodge.poly import IntPolynomial


def test_negative_power_is_refused():
    x = IntPolynomial.x()
    assert x**0 == IntPolynomial.one()
    assert (x + IntPolynomial.one()) ** 2 == IntPolynomial.from_coeffs([1, 2, 1])
    for k in (-1, -2):
        with pytest.raises(ValueError, match=f"no power {k}"):
            x**k


def test_non_integral_coefficients_are_refused():
    for coeffs, named in (([Fraction(1, 2)], "1/2"), ([1.5, 2], "1.5"), ([1, 2, 0.25], "0.25")):
        with pytest.raises(ValueError, match=f"integers, got {named}"):
            IntPolynomial.from_coeffs(coeffs)
    with pytest.raises(ValueError, match="got 7/3"):
        IntPolynomial((1, Fraction(7, 3)))
    for value in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match=f"got {value}"):
            IntPolynomial.from_coeffs([value])


def test_integral_values_are_accepted():
    poly = IntPolynomial.from_coeffs([Fraction(4, 2), 2.0, 0])
    assert poly.coefficients == (2, 2)
    assert all(type(c) is int for c in poly.coefficients)
    assert poly == IntPolynomial.from_coeffs([2, 2])
    assert poly.render() == "2*q + 2"
