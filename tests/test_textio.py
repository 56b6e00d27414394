import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import knotinv
from knotinv import KnotRecord, LaurentPoly, parse_poly, read_csv, read_pd_file, textio
from knotinv.textio import PolyParseError

from conftest import parse_poly_reference


def test_parse_table_row():
    p = parse_poly("-2t^{-8}+ 4t^{-7}-7t^{-6}+ 9t^{-5}-9t^{-4}+ 10t^{-3}-7t^{-2}+ 5t^{-1}-2")
    assert len(p.coeffs) == 9
    assert p.terms()[0] == (-16, -2) and p.terms()[-1] == (0, -2)


def test_parse_simple():
    assert parse_poly("1") == LaurentPoly("t_half", {0: 1})
    assert parse_poly("t + t^3 - t^4") == LaurentPoly("t_half", {2: 1, 6: 1, 8: -1})
    assert parse_poly("-t") == LaurentPoly("t_half", {2: -1})
    assert parse_poly("3t^{1/2}") == LaurentPoly("t_half", {1: 3})
    assert parse_poly("t^{-5/2} + 2") == LaurentPoly("t_half", {-5: 1, 0: 2})


def test_parse_sums_duplicates():
    assert parse_poly("t + t") == LaurentPoly("t_half", {2: 2})
    assert parse_poly("t - t") == LaurentPoly("t_half", {})


def test_parse_serializer_output():
    assert parse_poly("1*t^-1 + 1*t^-3 + -1*t^-4") == LaurentPoly(
        "t_half", {-2: 1, -6: 1, -8: -1}
    )
    assert parse_poly("-1*t^-1/2 + -1*t^-5/2") == LaurentPoly("t_half", {-1: -1, -5: -1})


def test_parse_errors():
    for bad in ("", "  ", "t^", "^3", "t^{1/3}", "t ~ 3", "+", "2t 3"):
        with pytest.raises(PolyParseError):
            parse_poly(bad)


coeffs = st.dictionaries(st.integers(-20, 20), st.integers(-99, 99).filter(bool), max_size=8)


@given(coeffs)
def test_round_trip(c):
    p = LaurentPoly("t_half", c)
    if p.is_zero:
        return
    assert parse_poly(p.to_text()) == p
    # idempotent on normalized text
    assert parse_poly(parse_poly(p.to_text()).to_text()) == p


def _parse_outcome(parse, text):
    """What ``parse`` makes of ``text``: the polynomial, or the error message."""
    try:
        return parse(text)
    except PolyParseError as exc:
        return ("PolyParseError", str(exc))


def _assert_same_as_reference(text):
    assert _parse_outcome(parse_poly, text) == _parse_outcome(parse_poly_reference, text), text


@settings(max_examples=2000, derandomize=True, deadline=None, database=None)
@given(st.text(alphabet="t^{}/-+*0123456789 x_", max_size=24))
def test_parse_poly_matches_reference_on_fuzz(text):
    _assert_same_as_reference(text)


_SIGNS = {1: ("+", "--", "-+-"), -1: ("-", "+-", "-+", "---")}
_SPACES = ("", " ", "  ", "\t", "\n", "\u00a0", "\u2003")


def _render(coeffs, rng):
    """The polynomial ``coeffs`` (half-exponent -> coefficient) as text in
    syntaxes picked by ``rng``: braced and bare exponents, half-integers as
    ``h/2`` or a reducible fraction, bare ``t``, ``t^0``, implicit and
    starred coefficients, sign runs, split terms and stray whitespace."""
    terms = []
    for h, c in coeffs.items():
        parts = [c] if abs(c) < 2 or rng.random() < 0.7 else [c - c // 2, c // 2]
        terms += [(h, part) for part in parts]
    rng.shuffle(terms)
    out = []
    for h, c in terms:
        sign = rng.choice(_SIGNS[1 if c > 0 else -1])
        if h % 2:
            exp = rng.choice(("{%d/2}" % h, "%d/2" % h, "{%d/6}" % (3 * h)))
        else:
            exp = rng.choice(("{%d}" % (h // 2), "%d" % (h // 2), "{%d/2}" % h, "%d/2" % h))
        var = rng.choice(("t", "t^" + exp)) if h == 2 else "t^" + exp
        if h == 0 and rng.random() < 0.7:
            var = ""
        mag = str(abs(c)) + (rng.choice(("", "*")) if var else "")
        if abs(c) == 1 and var and rng.random() < 0.6:
            mag = ""
        out.append(sign + rng.choice(_SPACES) + mag + var)
    text = rng.choice(_SPACES).join(out)
    if text.startswith("+") and rng.random() < 0.5:
        text = text[1:]
    for _ in range(rng.randrange(3)):
        i = rng.randrange(len(text) + 1)
        text = text[:i] + rng.choice(_SPACES) + text[i:]
    return text


def test_parse_poly_matches_reference_on_rendered_polynomials():
    rng = random.Random(7)
    for _ in range(2000):
        coeffs = {
            rng.randint(-30, 30): rng.choice((-1, 1)) * rng.randint(1, 120)
            for _ in range(rng.randint(1, 10))
        }
        text = _render(coeffs, rng)
        assert parse_poly(text) == parse_poly_reference(text) == LaurentPoly("t_half", coeffs), text


MALFORMED = [
    ("2t^2 3t^3", "missing sign between terms"),
    ("t^{1/3} + 1", "exponent '1/3' is not a half-integer"),
    ("2x^2 + 1", "malformed polynomial"),
    ("^3 - t", "malformed polynomial"),
    # the mark that parse_poly writes for an exponent's minus, and other
    # characters no term holds, are refused wherever they stand
    ("t^_5", "malformed polynomial near '^_5'"),
    ("1 + t^{_2}", "malformed polynomial near '^{_2}'"),
    ("_1 - t", "malformed polynomial near '_1-t'"),
    ("2t_ - t", "malformed polynomial near '_-t'"),
    ("t^~5", "malformed polynomial near '^~5'"),
    ("t^\u22125 + 1", "malformed polynomial near '^\u22125+1'"),
    ("3t^{-1}; 2", "malformed polynomial near ';2'"),
    ("t^-2 - t^{-1/2)", "malformed polynomial near '^{-1/2)'"),
    ("t +", "malformed polynomial near '+'"),
    ("- t^{-2", "malformed polynomial near '^{-2'"),
]


@pytest.mark.parametrize("text, prefix", MALFORMED)
def test_parse_poly_matches_reference_on_malformed(text, prefix):
    _assert_same_as_reference(text)
    with pytest.raises(PolyParseError, match="^" + re.escape(prefix)):
        parse_poly(text)


BUNDLED_CSVS = [
    Path(knotinv.__file__).resolve().parent / "data" / "obstruction_examples.csv",
    Path(__file__).resolve().parent / "data" / "obstruct_with_pd.csv",
]


def test_term_memo_cold_and_warm_agree(int_digit_limit):
    """Each distinct term is read once and kept: a second pass, every term
    then in the memo, gives the same polynomials and the same error
    messages as a first pass over an empty memo, and both equal the
    reference parser on the bundled CSVs, on rendered polynomials and on
    texts with repeated exponents, which the term walk sums.  A sum past
    the digit limit, which the reference does not check, is the same error
    on both passes."""
    rng = random.Random(11)
    rendered = [_render({rng.randint(-30, 30): rng.choice((-1, 1)) * rng.randint(1, 120)
                         for _ in range(rng.randint(1, 10))}, rng) for _ in range(500)]
    bad = [text for text, _ in MALFORMED]
    texts = [rec.jones_text for path in BUNDLED_CSVS for rec in read_csv(str(path))]
    texts += rendered + bad + [text + " + t" for text in bad] + ["t - " + text for text in bad]
    # repeated exponents, summed, cancelled, or beside a bad term
    nines = "9" * int_digit_limit
    texts += [text + " - " + text for text in rendered] + [text + " + " + text for text in bad]
    texts += ["t + t", "t - t", "3 - 2 + t^{1/2} - t^2/4", "2t^3 + t^{3} - x", "t + t - t^{1/3}",
              f"{nines}t^2 - 1t^2 + t^2"]
    overlong = f"{nines}t^2 + 1 + {nines}t^2"
    textio._TERMS.clear()
    cold = [_parse_outcome(parse_poly, text) for text in texts + [overlong]]
    assert textio._TERMS
    warm = [_parse_outcome(parse_poly, text) for text in texts + [overlong]]
    assert cold == warm
    assert cold[:-1] == [_parse_outcome(parse_poly_reference, text) for text in texts]
    assert cold[-1] == ("PolyParseError", f"number too long to convert near {'+' + nines[:11]!r}")


def test_term_memo_stays_bounded():
    """More distinct terms than the memo's cap leave it at or under the cap,
    a term text longer than its limit is read but not kept, and every
    parse still equals the reference parser."""
    textio._TERMS.clear()
    long_term = "1" * textio._MEMO_TEXT + "t^3"
    assert parse_poly(f"2 - {long_term}") == parse_poly_reference(f"2 - {long_term}")
    assert list(textio._TERMS) == ["2"]
    sizes = []
    for i in range(textio._MEMO_CAP):
        text = f"{i}t^{{{i % 7 - 3}}} - {i}*t^-{i % 5}/2"
        assert parse_poly(text) == parse_poly_reference(text), text
        sizes.append(len(textio._TERMS))
    assert max(sizes) <= textio._MEMO_CAP and sizes[-1] < max(sizes)


def test_read_pd_file(tmp_path):
    f = tmp_path / "knots.pd"
    f.write_text(
        "# comment\n"
        "\n"
        "trefoil: X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]\n"
        "X[1,3,2,4] X[3,1,4,2]\n"
        "k1:  \n"
    )
    recs = read_pd_file(str(f))
    assert [r.name for r in recs] == ["trefoil", "line4", "k1"]
    assert recs[0].pd_text.startswith("X[1,4")
    # a name with no code is a record with no PD code, not the unknot
    assert recs[2] == KnotRecord("k1", None, None)


def test_read_csv(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text('name,jones,pd\nk1,"t + t^3 - t^4",\nk2,"1","X[1,3,2,4] X[3,1,4,2]"\n')
    recs = read_csv(str(f))
    assert recs[0] == KnotRecord(name="k1", jones_text="t + t^3 - t^4")
    assert recs[1].pd_text.startswith("X[")


def test_read_csv_rows(tmp_path):
    # blank rows are skipped, a repeated header name means its last column,
    # a missing optional pd field reads as no PD, extra fields are ignored
    f = tmp_path / "t.csv"
    f.write_text('pd,jones,name,jones\n\nX,"1",k1,"t",extra\n\n,"2",k2,"-t^2"\n,,k3,"3"\n')
    assert read_csv(str(f)) == [
        KnotRecord("k1", "X", "t"),
        KnotRecord("k2", None, "-t^2"),
        KnotRecord("k3", None, "3"),
    ]
    f.write_text('name,jones,pd\nk1,"t"\n')
    assert read_csv(str(f)) == [KnotRecord(name="k1", jones_text="t")]


def test_read_csv_short_row(tmp_path):
    f = tmp_path / "short.csv"
    f.write_text('name,jones,pd\nk1,"t",\n\nk2\n')
    with pytest.raises(ValueError, match=r"short\.csv, line 4: row has 1 field"):
        read_csv(str(f))


def test_read_csv_bom(tmp_path):
    f = tmp_path / "bom.csv"
    f.write_bytes('\ufeffname,jones\nk1,"t + t^3 - t^4"\n'.encode("utf-8"))
    assert read_csv(str(f)) == [KnotRecord(name="k1", jones_text="t + t^3 - t^4")]


def test_read_pd_file_bom(tmp_path):
    f = tmp_path / "bom.pd"
    f.write_bytes("\ufefftrefoil: X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]\n".encode("utf-8"))
    assert read_pd_file(str(f)) == [
        KnotRecord(name="trefoil", pd_text="X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
    ]


def test_read_csv_schema_error(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        read_csv(str(f))


def test_record_needs_content():
    """A record with neither text builds: the record functions are what
    need content, and they answer it with an error record."""
    assert KnotRecord(name="empty") == ("empty", None, None) == KnotRecord("empty", None, None)


@pytest.mark.parametrize(
    "template, near",
    [
        ("3t^2 - {}t^3", "-{}"),
        ("1 + t^{}", "+t^{}"),
        ("1 + t^{{{}}}", "+t^{{{}"),
        ("t^{{{}/2}} - t", "t^{{{}"),
        ("t^{{1/{}}}", "t^{{1/{}"),
    ],
    ids=["coefficient", "exponent", "braced-exponent", "numerator", "denominator"],
)
def test_parse_overlong_number(template, near, int_digit_limit):
    """A number with more digits than ``int`` converts is a PolyParseError
    naming its term, not a bare ValueError."""
    digits = "7" * (int_digit_limit + 1)
    with pytest.raises(PolyParseError) as exc:
        parse_poly(template.format(digits))
    assert str(exc.value) == f"number too long to convert near {near.format(digits)[:12]!r}"
    # one digit fewer converts (the denominator is then not a half-integer's)
    try:
        parse_poly(template.format(digits[1:]))
    except PolyParseError as short:
        assert str(short).startswith("exponent '1/77")


def test_parse_overlong_sum(int_digit_limit):
    """Two coefficients that convert but whose sum at one exponent has more
    digits than ``int`` converts back to text are a PolyParseError naming
    the second term: the sum could not be written out."""
    nines = "9" * int_digit_limit
    with pytest.raises(PolyParseError) as exc:
        parse_poly(f"{nines}t^2 + 1 + {nines}t^2")
    assert str(exc.value) == f"number too long to convert near {'+' + nines[:11]!r}"
    # a sum that still converts, and one that cancels, are kept
    assert parse_poly(f"{nines}t^2 - 1t^2 + t^2") == LaurentPoly("t_half", {4: int(nines)})
    assert parse_poly(f"{nines}t^2 - {nines}t^2 + 1") == LaurentPoly("t_half", {0: 1})


@pytest.mark.parametrize(
    "text", ["\u0663t^2 + t", "3t^\u0662 + t", "t^{\u0661/2}", "1 + t^\u0663"],
    ids=["coefficient", "exponent", "numerator", "second-term"],
)
def test_parse_rejects_non_ascii_digits(text):
    """Arabic-Indic digits are not numbers, as in ``parse_pd``; the verbatim
    oracle ``parse_poly_reference`` reads them with ``\\d`` and is not
    asked."""
    with pytest.raises(PolyParseError, match="^malformed polynomial near"):
        parse_poly(text)


def test_readers_build_knot_records(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text('name,jones,pd\nk1," t ",\nk2,"1","X[1,3,2,4] X[3,1,4,2]"\n')
    g = tmp_path / "k.pd"
    g.write_text("hopf: X[1,3,2,4] X[3,1,4,2]\nX[1,3,2,4] X[3,1,4,2]\n")
    csv_recs, pd_recs = read_csv(str(f)), read_pd_file(str(g))
    assert all(type(r) is KnotRecord for r in csv_recs + pd_recs)
    assert csv_recs == [
        KnotRecord("k1", None, "t"),
        KnotRecord(name="k2", pd_text="X[1,3,2,4] X[3,1,4,2]", jones_text="1"),
    ]
    assert pd_recs == [
        KnotRecord(name="hopf", pd_text="X[1,3,2,4] X[3,1,4,2]"),
        KnotRecord(name="line2", pd_text="X[1,3,2,4] X[3,1,4,2]"),
    ]


def test_knot_record_is_an_immutable_tuple():
    rec = KnotRecord(name="k1", jones_text="t")
    with pytest.raises(AttributeError):
        rec.name = "k2"
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert hash(rec) == hash(KnotRecord("k1", None, "t"))
    assert len({rec, KnotRecord("k1", None, "t"), KnotRecord("k1", "X[1,3,2,4] X[3,1,4,2]")}) == 2
    assert rec == ("k1", None, "t")
    name, pd_text, jones_text = rec
    assert (name, pd_text, jones_text) == ("k1", None, "t")
    assert repr(rec) == "KnotRecord(name='k1', pd_text=None, jones_text='t')"
    assert KnotRecord._make(("k1", None, "t")) == rec
