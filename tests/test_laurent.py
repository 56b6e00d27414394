import pickle
import random

import pytest
from hypothesis import given, strategies as st

from knotinv import LaurentPoly, jones, kauffman_bracket, mirror, orient, parse_poly
from knotinv.sampling import random_alternating_diagram, random_diagram

from conftest import bracket_state_sum


def test_zero_stripping():
    p = LaurentPoly("A", {3: 0, 1: 2})
    assert p.coeffs == {1: 2}
    assert LaurentPoly("A", {0: 0}).is_zero


def test_arithmetic():
    p = LaurentPoly("A", {2: 1, 0: -1})
    q = LaurentPoly("A", {2: -1, -2: 3})
    assert (p + q).coeffs == {0: -1, -2: 3}
    assert (p - p).is_zero
    assert (p * q).coeffs == {4: -1, 2: 1, 0: 3, -2: -3}


def test_variable_mismatch():
    with pytest.raises(ValueError):
        LaurentPoly("A", {0: 1}) + LaurentPoly("t_half", {0: 1})


def test_extremes_and_mirror():
    p = LaurentPoly("A", {5: 2, -3: 7})
    assert p.max_exponent() == 5 and p.min_exponent() == -3
    assert p.coefficient(5) == 2 and p.coefficient(0) == 0
    assert p.mirror().coeffs == {-5: 2, 3: 7}
    with pytest.raises(ValueError):
        LaurentPoly("A", {}).min_exponent()


def _assert_canonical(p, q):
    """Equal polynomials print and pickle alike, and their extreme
    exponents are those of their terms."""
    assert p == q
    assert repr(p) == repr(q) and pickle.dumps(p) == pickle.dumps(q)
    assert list(p.coeffs) == sorted(p.coeffs)
    assert p.min_exponent() == q.min_exponent() == min(q.coeffs)
    assert p.max_exponent() == q.max_exponent() == max(q.coeffs)


def test_equal_polynomials_have_one_repr():
    """The terms are kept by ascending exponent whatever order they were
    built in: from text, from the bracket and the Jones polynomial (built
    descending by the writhe change) against their JSON round trips and
    the state-sum oracle, and from sums and products taken both ways."""
    for text in ("t^2 - t + 1", "1 - t + t^2", "-t + 1 + t^2", "t^2 + 1 - t"):
        _assert_canonical(parse_poly(text), parse_poly("1 - t + t^2"))
    text = "LaurentPoly(variable='t_half', coeffs={0: 1, 2: -1, 4: 1})"
    assert repr(parse_poly("t^2 - t + 1")) == text
    rng = random.Random(25)
    for i in range(20):
        d = (random_diagram, random_alternating_diagram)[i % 2](rng.randint(2, 8), rng)
        bracket, v = kauffman_bracket(d), jones(orient(d))
        _assert_canonical(bracket, bracket_state_sum(d))
        _assert_canonical(kauffman_bracket(mirror(d)), bracket.mirror())
        for p in (bracket, v, bracket.mirror()):
            _assert_canonical(p, LaurentPoly.from_json(p.to_json()))
    p = LaurentPoly("A", {4: 1, -2: 3, 0: -1})
    q = LaurentPoly("A", {-6: 2, 6: -1, 1: 5})
    _assert_canonical(p + q, q + p)
    _assert_canonical(p * q, q * p)
    _assert_canonical(p - q, -(q - p))


def test_text_rendering():
    assert LaurentPoly("A", {5: -1, -3: -1, -7: 1}).to_text() == "-1*A^5 + -1*A^-3 + 1*A^-7"
    assert LaurentPoly("t_half", {-2: 1, 0: 1}).to_text() == "1 + 1*t^-1"
    assert LaurentPoly("t_half", {-5: -1}).to_text() == "-1*t^-5/2"
    assert LaurentPoly("A", {}).to_text() == "0"


def test_json_round_trip():
    p = LaurentPoly("t_half", {4: -2, -6: 1, 0: 3})
    obj = p.to_json()
    assert obj["variable"] == "t_half"
    assert obj["terms"] == [[-6, 1], [0, 3], [4, -2]]  # ascending
    assert LaurentPoly.from_json(obj) == p


coeff_dicts = st.dictionaries(st.integers(-30, 30), st.integers(-50, 50), max_size=8)


@given(coeff_dicts)
def test_json_round_trip_random(coeffs):
    p = LaurentPoly("A", coeffs)
    assert LaurentPoly.from_json(p.to_json()) == p


@given(coeff_dicts, coeff_dicts)
def test_ring_laws(c1, c2):
    p, q = LaurentPoly("A", c1), LaurentPoly("A", c2)
    assert p + q == q + p
    assert p * q == q * p
    assert (p - q) + q == p
