"""Polynomial text parsing and knot-table ingestion."""

from __future__ import annotations

import csv
import re
from typing import NamedTuple

from .laurent import LaurentPoly

__all__ = ["PolyParseError", "KnotRecord", "parse_poly", "read_pd_file", "read_csv"]


class PolyParseError(ValueError):
    """Malformed polynomial text."""


class _RecordFields(NamedTuple):
    name: str
    pd_text: str | None = None
    jones_text: str | None = None


class KnotRecord(_RecordFields):
    """One table row: a name, and PD text or Jones polynomial text or both.

    An immutable tuple: it unpacks and compares like ``(name, pd_text,
    jones_text)``.  The constructor refuses a record with neither text.
    ``KnotRecord._make(fields)`` builds a record with one ``tuple.__new__``
    and skips that check, so it is only for callers that know one field
    holds text, as the file readers do.
    """

    __slots__ = ()

    def __new__(cls, name: str, pd_text: str | None = None, jones_text: str | None = None):
        if pd_text is None and jones_text is None:
            raise ValueError(f"record {name!r} has neither a PD code nor a polynomial")
        return tuple.__new__(cls, (name, pd_text, jones_text))


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
            c = int(coef) if coef else 1
            if var is None:
                h = 0
            elif exp is None:
                h = 2
            elif "/" in exp:
                h = _half_exponent(exp)
            else:
                h = 2 * int(exp)
            if sign == "-":
                c = -c
            if h in coeffs:
                c += coeffs[h]
                str(c)  # a sum, too, must convert back to text
        except PolyParseError:
            raise
        except ValueError:  # past the interpreter's int-string digit limit
            raise PolyParseError(f"number too long to convert near {s[pos:pos+12]!r}") from None
        coeffs[h] = c
        pos = end
    return LaurentPoly("t_half", coeffs)


def read_pd_file(path: str) -> list[KnotRecord]:
    """One PD per line, optionally prefixed ``name: pd``; blank lines and
    ``#`` comments are skipped.  A UTF-8 byte-order mark is ignored.

    Each record is built with ``KnotRecord._make``, since its PD field is
    always a string."""
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
                pd_text = pd_text.strip()
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
    ``KnotRecord._make``: a bare ``tuple.__new__`` that skips the
    constructor's check, which is safe because the ``jones`` field is
    always a string.
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
