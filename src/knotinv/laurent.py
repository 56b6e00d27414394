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
    """``coeffs`` maps each exponent to its nonzero coefficient, lowest
    exponent first whatever order the terms were given in, so equal
    polynomials have one repr and one pickle.  Polynomials compare by value
    and are not hashable; they are built, compared and printed, and the
    package does no arithmetic on them."""

    __slots__ = ("variable", "coeffs")

    def __init__(self, variable: str, coeffs: dict[int, int]):
        _set(self, "variable", variable)
        _set(self, "coeffs", {e: c for e, c in sorted(coeffs.items()) if c})

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.variable == other.variable and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"LaurentPoly(variable={self.variable!r}, coeffs={self.coeffs!r})"

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self) -> list[tuple[int, int]]:
        """The (exponent, coefficient) pairs, lowest exponent first."""
        return list(self.coeffs.items())

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
        return " + ".join(self._monomial_text(e, c) for e, c in reversed(self.coeffs.items()))

    def to_json(self) -> dict:
        return {"variable": self.variable, "terms": [[e, c] for e, c in self.terms()]}
