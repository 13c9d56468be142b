"""JSON wire formats: scalars, matrices, groups, presentations.

Scalars serialize as strings so rationals round-trip exactly:
"num/den" (or just "num") for rationals, "a+b*sqrt(r)" with rational
a, b for quadratic-field elements, and IEEE-754 decimal text (repr) for
floating values.  Matrix files carry a field descriptor, a group
descriptor, and a list of matrices; presentation files add named
generators, structure, optional relators, and an optional bending block.

Loading a group element takes an integer fast path when every entry is
rational text or a JSON int: an int, or ASCII ``[+-]?[0-9]+(/[0-9]+)?``
text with a nonzero denominator.  Those entries go straight to the
canonical ``(N, d)`` of ``exact.ratio_form`` (the matrix is N / d), with
no ``Fraction`` built.  A matrix with any other entry (decimal, complex,
``a+b*sqrt(r)``, whitespace, ``_``, a non-ASCII digit, ``x/0``) goes
through ``scalar_from_str`` entry by entry, as before.  Either way the
element is then checked by the same ``GroupElement`` validation.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import numpy as np

from .cartan import GroupDesc, GroupElement
from .errors import PreconditionError, UnsupportedFieldError
from .exact import ratio_normal
from .fields import COMPLEX, REAL, FieldDesc, QuadElement, padic, quadratic
from .wordgroups import (
    AmalgamStructure,
    FreeStructure,
    HnnStructure,
    Presentation,
    parse_word,
)

_QUAD_RE = re.compile(
    r"^\s*(?P<a>[+-]?\d+(?:/\d+)?)\s*(?P<sign>[+-])\s*"
    r"(?P<b>\d+(?:/\d+)?)\s*\*\s*sqrt\((?P<r>\d+)\)\s*$"
)
_QUAD_PURE_RE = re.compile(
    r"^\s*(?P<b>[+-]?\d+(?:/\d+)?)\s*\*\s*sqrt\((?P<r>\d+)\)\s*$"
)
# rational text of the integer fast path: ASCII digits, denominator != 0
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/0*[1-9][0-9]*)?")


def scalar_to_str(x) -> str:
    if isinstance(x, QuadElement):
        b = x.b
        sign = "+" if b >= 0 else "-"
        return f"{x.a}{sign}{abs(b)}*sqrt({x.r})"
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, int):
        return str(x)
    if isinstance(x, complex):  # numpy 2 reprs np.complex128 as np.complex128(...)
        return repr(complex(x))
    return repr(float(x))


def _fraction(text: str) -> Fraction:
    """Fraction(text); a zero denominator is bad input, not a crash."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise PreconditionError(f"scalar {text!r} has a zero denominator") from None


def scalar_from_str(text: str, field: FieldDesc):
    text = text.strip()
    if field.kind == "quadratic":
        m = _QUAD_RE.match(text)
        if m:
            a = _fraction(m.group("a"))
            b = _fraction(m.group("b"))
            if m.group("sign") == "-":
                b = -b
        else:
            m = _QUAD_PURE_RE.match(text)
            if m:
                a, b = Fraction(0), _fraction(m.group("b"))
            else:
                return _fraction(text)
        r = int(m.group("r"))
        if r != field.r:
            raise PreconditionError(
                f"scalar lives in sqrt({r}) but the field is sqrt({field.r})"
            )
        return QuadElement(a, b, field.r)
    if field.kind == "padic":
        return _fraction(text)
    floating = any(ch in text for ch in ".eEjJ") or text in ("inf", "-inf", "nan")
    if field.kind == "complex":
        if floating:
            return complex(text.replace(" ", ""))
        return _fraction(text)
    # real: integer/rational text stays exact, decimal text becomes float
    if floating:
        return float(text)
    return _fraction(text)


def _expect(value, kind, what):
    """The value itself if it has the JSON shape ``kind`` (dict or list)."""
    if not isinstance(value, kind):
        shape = "an object" if kind is dict else "an array"
        raise PreconditionError(f"{what} must be {shape}, got {value!r}")
    return value


def field_from_json(obj) -> FieldDesc:
    kind = _expect(obj, dict, "field").get("kind")
    if kind == "real":
        return REAL
    if kind == "complex":
        return COMPLEX
    if kind == "padic":
        return padic(int(obj["p"]))
    if kind == "quadratic":
        return quadratic(int(obj["r"]))
    if kind == "laurent":
        return FieldDesc("laurent")  # raises with the scoping message
    raise UnsupportedFieldError(f"unknown field kind {kind!r}")


def field_to_json(field: FieldDesc) -> dict:
    out = {"kind": field.kind}
    if field.p is not None:
        out["p"] = field.p
    if field.r is not None:
        out["r"] = field.r
    return out


def group_from_json(obj, field: FieldDesc) -> GroupDesc:
    family = _expect(obj, dict, "group").get("family")
    if family == "SL":
        return GroupDesc("SL", field, n=int(obj["n"]))
    if family in ("SO", "U"):
        form = obj.get("form")
        form_scalars = (
            tuple(scalar_from_str(s, field) for s in form) if form else ()
        )
        return GroupDesc(
            family, field, p=int(obj["p"]), q=int(obj["q"]), form=form_scalars
        )
    raise PreconditionError(f"unknown group family {family!r}")


def _expect_rows(rows):
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise PreconditionError("a matrix must be a list of rows of scalars")
    return rows


def matrix_from_json(rows, field: FieldDesc):
    return [[scalar_from_str(str(x), field) for x in row]
            for row in _expect_rows(rows)]


def _ratio_from_json(rows):
    """The canonical (N, d) of a matrix of JSON rows whose entries are all
    ints or rational text (see the module docstring), else None."""
    pairs = []
    for row in _expect_rows(rows):
        out = []
        for x in row:
            if type(x) is int:
                out.append((x, 1))
            elif type(x) is str and _RATIONAL_RE.fullmatch(x):
                num, _, den = x.partition("/")
                out.append((int(num), int(den) if den else 1))
            else:
                return None
        pairs.append(out)
    d = math.lcm(*(den for out in pairs for _, den in out))
    return ratio_normal(
        tuple(tuple(num * (d // den) for num, den in out) for out in pairs), d)


def _parse_matrix(rows, field: FieldDesc):
    """(N, d) of a rational matrix, else its rows of ``scalar_from_str``
    scalars (a list); ``_element`` makes either a group element."""
    return _ratio_from_json(rows) or matrix_from_json(rows, field)


def _element(parsed, group: GroupDesc) -> GroupElement:
    if isinstance(parsed, tuple):
        return GroupElement._ratio(*parsed, group, check=True)
    return GroupElement(parsed, group)


def element_from_json(rows, field: FieldDesc, group: GroupDesc) -> GroupElement:
    """The validated group element of one JSON matrix."""
    return _element(_parse_matrix(rows, field), group)


def matrix_to_json(matrix):
    if isinstance(matrix, np.ndarray):
        return [[scalar_to_str(x) for x in row] for row in matrix.tolist()]
    return [[scalar_to_str(x) for x in row] for row in matrix]


def load_matrix_document(obj, field=None, group=None):
    """(field, group, [(id, GroupElement)]) from a parsed matrix file;
    a given field or group overrides the file's."""
    if field is None:
        field = field_from_json(obj["field"])
    if group is None:
        group = group_from_json(obj["group"], field)
    matrices = _expect(obj.get("matrices", []), list, "matrices")
    ids = _expect(obj.get("ids") or [f"m{i}" for i in range(len(matrices))],
                  list, "ids")
    if len(ids) != len(matrices):
        raise PreconditionError("ids and matrices must have equal length")
    out = []
    for name, rows in zip(ids, matrices):
        out.append((name, element_from_json(rows, field, group)))
    return field, group, out


def load_presentation_document(obj):
    """(field, group, Presentation, bending-block-or-None)."""
    field = field_from_json(obj["field"])
    group = group_from_json(obj["group"], field)
    gens = obj.get("generators")
    if not gens or not isinstance(gens, dict):
        raise PreconditionError("presentation file needs a generators object")
    symbols = list(gens.keys())
    parsed = [_parse_matrix(gens[s], field) for s in symbols]
    sobj = _expect(obj.get("structure", {"type": "free"}), dict, "structure")
    stype = sobj.get("type", "free")
    index = {s: i for i, s in enumerate(symbols)}

    def words(pairs):
        return tuple(
            (parse_word(w1, symbols), parse_word(w2, symbols)) for w1, w2 in pairs
        )

    if stype == "free":
        structure = FreeStructure()
    elif stype == "amalgam":
        structure = AmalgamStructure(
            side1=tuple(index[s] for s in sobj["side1"]),
            side2=tuple(index[s] for s in sobj["side2"]),
            gamma0_pairs=words(sobj.get("gamma0", [])),
        )
    elif stype == "hnn":
        structure = HnnStructure(
            base=tuple(index[s] for s in sobj["base"]),
            stable=index[sobj["stable"]],
            pairings=words(sobj.get("pairings", [])),
        )
    else:
        raise PreconditionError(f"unknown structure type {stype!r}")
    relators = tuple(parse_word(w, symbols) for w in
                     _expect(obj.get("relators", []), list, "relators"))
    pres = Presentation(symbols, [_element(m, group) for m in parsed], group,
                        structure=structure, relators=relators)
    bending = obj.get("bending")
    if bending is not None and "Y" in _expect(bending, dict, "bending"):
        bending = dict(bending)
        bending["Y"] = matrix_from_json(bending["Y"], field)
    return field, group, pres, bending


def read_json(path):
    """A parsed matrix or presentation file; both are JSON objects."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise PreconditionError(f"{path}: the top level must be a JSON object")
    return obj
