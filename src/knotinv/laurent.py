"""Sparse Laurent polynomials with integer coefficients.

Two variable tags are used: ``"A"`` (Kauffman bracket variable) and
``"t_half"``, whose exponents count half-powers of t, so the monomial with
exponent h stands for t**(h/2).
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["LaurentPoly"]

_tuple_new = tuple.__new__


class _PolyFields(NamedTuple):
    variable: str
    coeffs: dict[int, int]


class LaurentPoly(_PolyFields):
    """``coeffs`` maps each exponent to its nonzero coefficient, lowest
    exponent first whatever order the terms were given in, so equal
    polynomials have one repr and one pickle.  A NamedTuple that unpacks
    as, and equals, ``(variable, coeffs)``; ``_replace`` and ``_make`` build
    through the constructor, so they normalise too.  Not hashable, since
    ``coeffs`` is a dict; polynomials are built, compared and printed, and
    the package does no arithmetic on them."""

    __slots__ = ()

    def __new__(cls, variable: str, coeffs: dict[int, int]):
        return _tuple_new(cls, (variable, {e: c for e, c in sorted(coeffs.items()) if c}))

    @classmethod
    def _make(cls, fields) -> LaurentPoly:
        return cls(*fields)

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
