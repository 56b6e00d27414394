"""Sparse Laurent polynomials with integer coefficients.

Two variable tags are used: ``"A"`` (Kauffman bracket variable) and
``"t_half"``, whose exponents count half-powers of t, so the monomial with
exponent h stands for t**(h/2).
"""

from __future__ import annotations

from .frozen import Frozen

__all__ = ["LaurentPoly"]

_set = object.__setattr__


class LaurentPoly(Frozen):
    """``coeffs`` maps each exponent to its coefficient; zero coefficients
    are dropped.  Polynomials compare by value and are not hashable."""

    __slots__ = ("variable", "coeffs")

    def __init__(self, variable: str, coeffs: dict[int, int] = {}):  # the default is only read
        _set(self, "variable", variable)
        _set(self, "coeffs", {e: c for e, c in coeffs.items() if c != 0})

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.variable == other.variable and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"LaurentPoly(variable={self.variable!r}, coeffs={self.coeffs!r})"

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self, ascending: bool = True) -> list[tuple[int, int]]:
        return sorted(self.coeffs.items(), reverse=not ascending)

    def min_exponent(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no extreme exponents")
        return min(self.coeffs)

    def max_exponent(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no extreme exponents")
        return max(self.coeffs)

    def coefficient(self, exponent: int) -> int:
        return self.coeffs.get(exponent, 0)

    def mirror(self) -> "LaurentPoly":
        """Negate every exponent (the effect of mirroring the diagram)."""
        return LaurentPoly(self.variable, {-e: c for e, c in self.coeffs.items()})

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if other.variable != self.variable:
            raise ValueError("variable mismatch")
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(self.variable, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.variable, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if other.variable != self.variable:
            raise ValueError("variable mismatch")
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(self.variable, out)

    def _monomial_text(self, exponent: int, coeff: int) -> str:
        if self.variable == "t_half":
            var = "t"
            if exponent % 2 == 0:
                exp_txt = str(exponent // 2)
            else:
                exp_txt = f"{exponent}/2"
        else:
            var = self.variable
            exp_txt = str(exponent)
        if exp_txt == "0":
            return str(coeff)
        return f"{coeff}*{var}^{exp_txt}"

    def to_text(self) -> str:
        """Render as signed monomials sorted by descending exponent."""
        if self.is_zero:
            return "0"
        return " + ".join(self._monomial_text(e, c) for e, c in self.terms(ascending=False))

    def to_json(self) -> dict:
        return {"variable": self.variable, "terms": [[e, c] for e, c in self.terms()]}

    @classmethod
    def from_json(cls, obj: dict) -> "LaurentPoly":
        return cls(obj["variable"], {int(e): int(c) for e, c in obj["terms"]})

    @classmethod
    def monomial(cls, variable: str, exponent: int, coeff: int = 1) -> "LaurentPoly":
        return cls(variable, {exponent: coeff})

    def __str__(self) -> str:
        return self.to_text()
