"""Sparse exterior algebra on dlog generators, indexed by bitmasks.

A wedge monomial is a subset of generator indices stored as an int bitmask;
the monomial means the wedge of its generators in increasing index order.
Coefficients are ints or Fractions.  All products carry the Koszul sign
counted by inversions, and repeated generators annihilate.

The same masks encode every vertex and row subset of the package:
``bits`` lists a mask's members in increasing order and ``mask_of`` builds
the mask of an iterable of indices.
"""

from __future__ import annotations

from fractions import Fraction

Coeff = Fraction | int


def wedge_sign(left: int, right: int) -> int:
    """Sign of e_left ^ e_right relative to e_{left|right}; masks disjoint."""
    sign = 1
    t = right
    while t:
        low = t & -t
        bit = low.bit_length() - 1
        if (left >> (bit + 1)).bit_count() & 1:
            sign = -sign
        t ^= low
    return sign


def bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(indices) -> int:
    """The bitmask with exactly the given indices set."""
    mask = 0
    for i in indices:
        mask |= 1 << int(i)
    return mask


class ExteriorForm:
    """A Q-linear combination of wedge monomials; immutable by convention."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, Coeff] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @classmethod
    def one(cls) -> "ExteriorForm":
        return cls({0: 1})

    @classmethod
    def generator(cls, i: int) -> "ExteriorForm":
        return cls({1 << i: 1})

    @classmethod
    def monomial(cls, mask: int, coeff: Coeff = 1) -> "ExteriorForm":
        return cls({mask: coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, ExteriorForm) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "ExteriorForm") -> "ExteriorForm":
        out = dict(self.terms)
        for m, c in other.terms.items():
            w = out.get(m, 0) + c
            if w:
                out[m] = w
            else:
                out.pop(m, None)
        return ExteriorForm(out)

    def __sub__(self, other: "ExteriorForm") -> "ExteriorForm":
        return self + other.scale(-1)

    def scale(self, c: Coeff) -> "ExteriorForm":
        if not c:
            return ExteriorForm()
        return ExteriorForm({m: v * c for m, v in self.terms.items()})

    def wedge(self, other: "ExteriorForm") -> "ExteriorForm":
        out: dict[int, Coeff] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                if m1 & m2:
                    continue
                m = m1 | m2
                w = out.get(m, 0) + c1 * c2 * wedge_sign(m1, m2)
                if w:
                    out[m] = w
                else:
                    out.pop(m, None)
        return ExteriorForm(out)

    def degree_part(self, d: int) -> "ExteriorForm":
        return ExteriorForm({m: c for m, c in self.terms.items() if m.bit_count() == d})

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms):
            mono = "^".join(f"e{i}" for i in bits(m)) or "1"
            parts.append(f"{self.terms[m]}*{mono}")
        return " + ".join(parts)
