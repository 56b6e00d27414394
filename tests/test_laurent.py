import pickle
import random

from hypothesis import given, strategies as st

from knotinv import LaurentPoly, jones, kauffman_bracket, orient, parse_poly
from knotinv.sampling import random_alternating_diagram, random_diagram

from conftest import bracket_state_sum, mirror, poly_mirror


def test_zero_stripping():
    p = LaurentPoly("A", {3: 0, 1: 2})
    assert p.coeffs == {1: 2}
    assert LaurentPoly("A", {0: 0}).is_zero


def _assert_canonical(p, q):
    """Equal polynomials print and pickle alike, and keep their terms by
    ascending exponent."""
    assert p == q
    assert repr(p) == repr(q) and pickle.dumps(p) == pickle.dumps(q)
    assert list(p.coeffs) == sorted(p.coeffs)


def test_equal_polynomials_have_one_repr():
    """The terms are kept by ascending exponent whatever order they were
    built in: from text, and from the bracket and the Jones polynomial
    (built descending by the writhe change) against the state-sum oracle
    and against themselves rebuilt from their terms in descending order."""
    for text in ("t^2 - t + 1", "1 - t + t^2", "-t + 1 + t^2", "t^2 + 1 - t"):
        _assert_canonical(parse_poly(text), parse_poly("1 - t + t^2"))
    text = "LaurentPoly(variable='t_half', coeffs={0: 1, 2: -1, 4: 1})"
    assert repr(parse_poly("t^2 - t + 1")) == text
    rng = random.Random(25)
    for i in range(20):
        d = (random_diagram, random_alternating_diagram)[i % 2](rng.randint(2, 8), rng)
        bracket, v = kauffman_bracket(d), jones(orient(d))
        _assert_canonical(bracket, bracket_state_sum(d))
        _assert_canonical(kauffman_bracket(mirror(d)), poly_mirror(bracket))
        for p in (bracket, v, poly_mirror(bracket)):
            _assert_canonical(p, LaurentPoly(p.variable, dict(reversed(p.terms()))))


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
    assert LaurentPoly(obj["variable"], dict(obj["terms"])) == p


coeff_dicts = st.dictionaries(st.integers(-30, 30), st.integers(-50, 50), max_size=8)


@given(coeff_dicts)
def test_json_round_trip_random(coeffs):
    p = LaurentPoly("A", coeffs)
    obj = p.to_json()
    assert obj["terms"] == sorted(obj["terms"])
    assert LaurentPoly(obj["variable"], dict(obj["terms"])) == p

