"""Dense integer polynomials in one variable, low-degree-first coefficients."""

from __future__ import annotations


def _integer(c) -> int:
    if c % 1:  # also true of inf and nan
        raise ValueError(f"polynomial coefficients must be integers, got {c}")
    return int(c)


class IntPolynomial:
    """A polynomial in one variable with integer coefficients, constant first;
    immutable by convention."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple[int, ...]):
        """Raises ValueError on a coefficient that is not an integer."""
        cs = tuple(map(_integer, coefficients))
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        self.coefficients = cs  # no trailing zeros

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self):
        return hash((self.coefficients,))

    @classmethod
    def from_coeffs(cls, coeffs) -> "IntPolynomial":
        return cls(tuple(coeffs))

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def x(cls) -> "IntPolynomial":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def coeff(self, k: int) -> int:
        return self.coefficients[k] if 0 <= k < len(self.coefficients) else 0

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        size = max(len(self.coefficients), len(other.coefficients))
        return IntPolynomial(
            tuple(self.coeff(i) + other.coeff(i) for i in range(size))
        )

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        size = max(len(self.coefficients), len(other.coefficients))
        return IntPolynomial(
            tuple(self.coeff(i) - other.coeff(i) for i in range(size))
        )

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not self.coefficients or not other.coefficients:
            return IntPolynomial(())
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return IntPolynomial(tuple(out))

    def __pow__(self, k: int) -> "IntPolynomial":
        if k < 0:
            raise ValueError(f"a polynomial has no power {k} < 0")
        out = IntPolynomial.one()
        for _ in range(k):
            out = out * self
        return out

    def __call__(self, q: int) -> int:
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * q + c
        return acc

    def render(self, var: str = "q") -> str:
        if not self.coefficients:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k)
            if c == 0:
                continue
            if k == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}{var}" + (f"^{k}" if k > 1 else "")
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append(("- " if c < 0 else "+ ") + term)
        return " ".join(parts)

    def __repr__(self):
        return f"IntPolynomial({self.render()})"
