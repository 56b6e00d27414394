"""Polynomial text parsing and knot-table ingestion."""

from __future__ import annotations

import csv
import re
from typing import NamedTuple

from .laurent import LaurentPoly

__all__ = ["PolyParseError", "KnotRecord", "parse_poly", "read_pd_file", "read_csv"]


class PolyParseError(ValueError):
    """Malformed polynomial text."""


class KnotRecord(NamedTuple):
    """One table row: a name, and PD text or Jones polynomial text, both or
    neither.

    An immutable tuple: it unpacks and compares like ``(name, pd_text,
    jones_text)``.  The record functions of :mod:`knotinv.cli` answer a
    record that lacks the text they need with an error record.
    """

    name: str
    pd_text: str | None = None
    jones_text: str | None = None


_TERM_RE = re.compile(
    r"""(?P<sign>[+-]?)
        (?:(?P<coef>[0-9]+)\*?)?
        (?P<var>t)?
        (?:\^(?:\{(?P<bexp>-?[0-9]+(?:/[0-9]+)?)\}|(?P<exp>-?[0-9]+(?:/[0-9]+)?)))?
    """,
    re.VERBOSE,
)


def _half_exponent(frac: str) -> int:
    """Twice the exponent written ``p/q``, which must be a half-integer."""
    num, den = frac.split("/")
    num, den = int(num), int(den)
    if den == 0 or (2 * num) % den:
        raise PolyParseError(f"exponent {frac!r} is not a half-integer")
    return 2 * num // den


def _term_value(sign: str, coef: str | None, var: str | None, exp: str | None) -> tuple[int, int]:
    """The half-exponent and signed coefficient of one matched term.  An
    exponent that is not a half-integer raises ``PolyParseError``, a number
    past the interpreter's int-string digit limit a bare ``ValueError``."""
    c = int(coef) if coef else 1
    if var is None:
        h = 0
    elif exp is None:
        h = 2
    elif "/" in exp:
        h = _half_exponent(exp)
    else:
        h = 2 * int(exp)
    return h, -c if sign == "-" else c


# The memo of term texts: a table's polynomials draw their terms from a small
# vocabulary (about 4,600 distinct texts among 640k terms in 100k rows), so
# each distinct term is read once.  It maps a term text, its exponent minus
# written as _MARK, to (half-exponent, signed coefficient).  It keeps texts
# of at most _MEMO_TEXT characters and is emptied when it holds _MEMO_CAP,
# so it never holds more than about 2 MB.  Each key has one value, so threads
# that share it can at worst read a term twice or overrun the cap by a few.
_TERMS: dict[str, tuple[int, int]] = {}
_MEMO_CAP = 8192
_MEMO_TEXT = 32
_MARK = "_"


def _read_term(key: str) -> tuple[int, int] | None:
    """The value of the memo key ``key``, read and kept, or None if it is
    not a whole term (the walk of ``_read`` then says why)."""
    m = _TERM_RE.fullmatch(key.replace(_MARK, "-"))
    if m is None:
        return None
    sign, coef, var, bexp, exp = m.groups()
    exp = bexp or exp
    if (coef is None and var is None) or (exp is not None and var is None):
        return None
    try:
        value = _term_value(sign, coef, var, exp)
    except ValueError:  # PolyParseError included
        return None
    if len(key) <= _MEMO_TEXT:
        if len(_TERMS) >= _MEMO_CAP:
            _TERMS.clear()
        _TERMS[key] = value
    return value


def parse_poly(text: str) -> LaurentPoly:
    """Parse signed-monomial polynomial text into a t_half LaurentPoly.

    Accepts ``t^{k}``, ``t^k``, half-integer exponents like ``t^{1/2}`` or
    ``t^-5/2``, bare ``t`` (exponent 1), bare integers (exponent 0), an
    optional ``*`` between coefficient and ``t``, and whitespace anywhere.
    Runs of signs collapse (``+ -1*t^2`` reads as ``-t^2``), and
    coefficients at repeated exponents are summed.  Every term after the
    first needs a sign.  Digits are ASCII.  Malformed text, or a number
    (a sum at a repeated exponent included) with more digits than ``int``
    converts (``sys.get_int_max_str_digits()``), raises ``PolyParseError``
    naming the first bad term.

    Each distinct term text is parsed once and kept in a memo of at most
    8,192 texts of up to 32 characters each (at most about 2 MB), emptied
    when full.  Only a table whose terms repeat gains: one whose terms are
    all distinct pays for the split, the lookups and the stores, about 40%
    more per polynomial than reading each term with the regex alone.  A
    text with a repeated exponent, or a term the memo cannot read, is read
    again by the one term walk, which sums the repeats and names the first
    bad term.
    """
    s = "".join(text.split())
    # collapse sign pairs so serializer output like "+ -1*t^2" reads back
    while True:
        t = s.replace("+-", "-").replace("-+", "-").replace("--", "+").replace("++", "+")
        if t == s:
            break
        s = t
    if not s:
        raise PolyParseError("empty polynomial text")
    if _MARK in s:  # no term holds the mark, so the walk refuses the text
        return LaurentPoly("t_half", _read(s))
    # no two signs are adjacent now, so every sign but an exponent's starts
    # a term: mark the exponent minus and split on the others
    keys = s.replace("^-", "^" + _MARK).replace("{-", "{" + _MARK).replace("-", "+-").split("+")
    if not keys[0]:  # the text's leading sign
        del keys[0]
    pairs = list(map(_TERMS.get, keys))
    if None in pairs:
        for i, key in enumerate(keys):
            if pairs[i] is None:
                pairs[i] = _read_term(key)
                if pairs[i] is None:  # not a whole term: the walk names it
                    return LaurentPoly("t_half", _read(s))
    coeffs = dict(pairs)
    if len(coeffs) < len(pairs):  # repeated exponents: the walk sums them
        coeffs = _read(s)
    return LaurentPoly("t_half", coeffs)


def _read(s: str) -> dict[int, int]:
    """The coefficients of the normalised text ``s``, read term by term as
    the regex reads it from each position, with the coefficients at a
    repeated exponent summed in order; or the ``PolyParseError`` naming its
    first bad term, a sum past the digit limit included."""
    coeffs: dict[int, int] = {}
    match = _TERM_RE.match
    pos, n = 0, len(s)
    while pos < n:
        m = match(s, pos)  # every part is optional, so this always matches
        end = m.end()
        sign, coef, var, bexp, exp = m.groups()
        if end == pos or (coef is None and var is None):
            raise PolyParseError(f"malformed polynomial near {s[pos:pos+12]!r}")
        exp = bexp or exp
        if exp is not None and var is None:
            raise PolyParseError(f"exponent without variable near {s[pos:pos+12]!r}")
        if pos and not sign:
            raise PolyParseError(f"missing sign between terms near {s[pos:pos+12]!r}")
        try:
            h, c = _term_value(sign, coef, var, exp)
            if h in coeffs:
                c += coeffs[h]
                str(c)  # a sum, too, must convert back to text
        except PolyParseError:
            raise
        except ValueError:  # past the interpreter's int-string digit limit
            raise PolyParseError(f"number too long to convert near {s[pos:pos+12]!r}") from None
        coeffs[h] = c
        pos = end
    return coeffs


def read_pd_file(path: str) -> list[KnotRecord]:
    """One PD per line, optionally prefixed ``name: pd``; blank lines and
    ``#`` comments are skipped.  A UTF-8 byte-order mark is ignored.  A
    name with no code after it (``k1:``) reads as a record with no PD code,
    not as the unknot."""
    records = []
    make = KnotRecord._make
    with open(path, encoding="utf-8-sig") as fh:
        for i, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if ":" in line:
                name, pd_text = line.split(":", 1)
                name = name.strip()
                pd_text = pd_text.strip() or None
            else:
                name, pd_text = f"line{i}", line
            records.append(make((name, pd_text, None)))
    return records


def read_csv(path: str) -> list[KnotRecord]:
    """CSV with header columns ``name``, ``jones`` and optionally ``pd``.

    Blank rows are skipped and a UTF-8 byte-order mark is ignored.  A header
    name given twice means its last column.  A row that ends before its
    ``name`` or ``jones`` field raises ``ValueError`` naming the line.

    Each row costs one ``len``, up to three ``strip`` calls and one
    ``KnotRecord._make``.
    """
    records = []
    append, make = records.append, KnotRecord._make
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        col = {field: i for i, field in enumerate(next(reader, ()))}
        if "name" not in col or "jones" not in col:
            raise ValueError(f"{path}: CSV needs 'name' and 'jones' columns, got {sorted(col)}")
        i_name, i_jones, i_pd = col["name"], col["jones"], col.get("pd")
        need = max(i_name, i_jones) + 1
        for row in reader:
            n = len(row)
            if n < need:
                if not n:
                    continue
                raise ValueError(
                    f"{path}, line {reader.line_num}: row has {n} field(s),"
                    f" but its 'name' and 'jones' columns need {need}"
                )
            pd_text = row[i_pd].strip() if i_pd is not None and i_pd < n else ""
            append(make((row[i_name].strip(), pd_text or None, row[i_jones].strip())))
    return records
