"""Dense integer polynomials in one variable, low-degree-first coefficients."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class IntPolynomial:
    """A polynomial in one variable with integer coefficients, constant first."""

    coefficients: tuple[int, ...]  # no trailing zeros

    def __post_init__(self):
        cs = tuple(int(c) for c in self.coefficients)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coefficients", cs)

    @classmethod
    def from_coeffs(cls, coeffs) -> "IntPolynomial":
        return cls(tuple(int(c) for c in coeffs))

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
