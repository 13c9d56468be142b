"""JSON wire formats: scalars, matrices, groups, presentations.

Scalars serialize as strings so rationals round-trip exactly:
"num/den" (or just "num") for rationals, "a+b*sqrt(r)" with rational
a, b != 0 for quadratic-field elements (one with b = 0 is written as the
rational a), and IEEE-754 decimal text (repr) for floating values.
Matrix files carry a field descriptor, a group descriptor, and a list of
matrices; presentation files add named generators, structure, optional
relators, and an optional bending block.

A document's matrices load as one exact stack, ``_BLOCK`` entries (at
least one matrix) at a time so that memory stays bounded.  A matrix is
stacked when it is an n x n list of rows whose entries are all JSON ints
(exactly ``int``, not ``true``) or ASCII ``[+-]?[0-9]+(/[0-9]+)?`` text
with a nonzero denominator.  Each distinct entry text of a block is
checked and split once.  The canonical ``(N, d)`` of ``exact.ratio_form``
(the matrix is N / d) of every stacked matrix comes from one lcm and one
gcd per matrix and scalings taken entry by entry over the whole stack,
all on Python ints with no ``Fraction`` built, and
``cartan._ratio_faults`` validates the whole stack in one exact kernel.
Any other matrix (decimal, complex, ``a+b*sqrt(r)``, whitespace, ``_``,
a non-ASCII digit, ``x/0``, ragged) goes through ``scalar_from_str``
entry by entry and the ``GroupElement`` constructor, in its place: the
first failing matrix in document order raises, stacked or not.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from operator import floordiv, mul

import numpy as np

from .cartan import GroupDesc, GroupElement, _ratio_faults
from .errors import PreconditionError, UnsupportedFieldError
from .exact import field_form, ratio_normal_stack
from .fields import (COMPLEX, REAL, FieldDesc, QuadElement, is_exact_scalar, padic,
                     quadratic)
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
# rational text of the stacked route: ASCII digits, denominator != 0
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/0*[1-9][0-9]*)?")
# the entry types of a stacked matrix: exactly int (not bool) and str
_JSON_RATIONAL_TYPES = frozenset((int, str))
_BLOCK = 4096  # entries per stack, so that a large document's stack stays small


def scalar_to_str(x) -> str:
    if isinstance(x, (QuadElement, Fraction, int)):
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
        return QuadElement._of(a, b, r)  # FieldDesc checked r
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


_SHAPES = {dict: "an object", list: "an array", bool: "a boolean"}


def _expect(value, kind, what):
    """The value itself if it has the JSON shape ``kind`` (dict, list or
    bool)."""
    if not isinstance(value, kind):
        raise PreconditionError(f"{what} must be {_SHAPES[kind]}, got {value!r}")
    return value


def _integer(obj, key):
    """obj[key] as ``int`` reads it (3, 3.0, "3"), refusing a bool or a
    float that is not integral rather than truncating it."""
    x = obj[key]
    if not (isinstance(x, bool) or isinstance(x, float) and not x.is_integer()):
        try:
            return int(x)
        except (TypeError, ValueError):
            pass
    raise PreconditionError(f"{key} = {x!r} is not an integer")


def parameters(items, what) -> list:
    """The floats of a list of deformation parameters: JSON numbers or
    flag text.  A bool or a non-number is refused, and so is a value
    equal to an earlier one (0.1 and 0.10, 0 and -0); what names the
    source in the message."""
    ts = []
    for item in items:
        try:
            if isinstance(item, bool):
                raise TypeError
            t = float(item)
        except (TypeError, ValueError, OverflowError):
            raise PreconditionError(f"{what} item {item!r} is not a number") from None
        if t in ts:
            raise PreconditionError(f"{what} item {item!r} repeats {ts[ts.index(t)]}")
        ts.append(t)
    return ts


def field_from_json(obj) -> FieldDesc:
    kind = _expect(obj, dict, "field").get("kind")
    if kind == "real":
        return REAL
    if kind == "complex":
        return COMPLEX
    if kind == "padic":
        return padic(_integer(obj, "p"))
    if kind == "quadratic":
        return quadratic(_integer(obj, "r"))
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
        return GroupDesc("SL", field, n=_integer(obj, "n"))
    if family in ("SO", "U"):
        form = _expect(obj.get("form", []), list, "form")
        form_scalars = tuple(scalar_from_str(str(s), field) for s in form)
        return GroupDesc(
            family, field, p=_integer(obj, "p"), q=_integer(obj, "q"),
            form=form_scalars
        )
    raise PreconditionError(f"unknown group family {family!r}")


def _expect_rows(rows):
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise PreconditionError("a matrix must be a list of rows of scalars")
    return rows


def matrix_from_json(rows, field: FieldDesc):
    return [[scalar_from_str(str(x), field) for x in row]
            for row in _expect_rows(rows)]


def _bending_Y(rows, field: FieldDesc, n: int):
    """The bending direction Y of a bending block: exact n x n rows."""
    if (isinstance(rows, list) and len(rows) == n
            and all(isinstance(row, list) and len(row) == n for row in rows)):
        Y = matrix_from_json(rows, field)
        if all(is_exact_scalar(x) for row in Y for x in row):
            return Y
    raise PreconditionError(f"bending.Y must be exact n×n (n = {n})")


def _word(text, symbols, key):
    """The parsed word of a JSON item listed under key: a word string."""
    if not isinstance(text, str):
        raise PreconditionError(f"{key} must list word strings, got {text!r}")
    return parse_word(text, symbols)


def _rational_pair(x):
    """(num, den) of a JSON int or of rational text, None for other text;
    an int too long to convert is left to ``scalar_from_str``."""
    if type(x) is int:
        return x, 1
    if not _RATIONAL_RE.fullmatch(x):
        return None
    num, _, den = x.partition("/")
    try:
        return int(num), int(den) if den else 1
    except ValueError:
        return None


def _keep(where, flat, size, test):
    """The positions in where, and their runs of size items in flat, whose
    run passes test."""
    runs = [flat[k * size:(k + 1) * size] for k in range(len(where))]
    kept = [(i, run) for i, run in zip(where, runs) if test(run)]
    return [i for i, _ in kept], [x for _, run in kept for x in run]


def _stack_block(block, group: GroupDesc) -> list:
    """For each JSON matrix of block, (N, d, fault) if it is an n x n list
    of rows of JSON ints and rational text, else None.

    (N, d) is its canonical integer form and fault None, or the message
    its validation fails with.  All of them are built as one stack: each
    distinct entry of the block is checked and split once
    (``_rational_pair``; only int and str entries reach it, so ``true``
    and ``1.0`` never meet ``1``), ``_canonical_stack`` puts every matrix
    in canonical form, and ``cartan._ratio_faults`` decides the stack.
    """
    n = group.size
    size = n * n
    where, flat = [], []
    for i, rows in enumerate(block):
        if (type(rows) is list and len(rows) == n
                and all(type(row) is list and len(row) == n for row in rows)):
            where.append(i)
            flat += [x for row in rows for x in row]
    if not set(map(type, flat)) <= _JSON_RATIONAL_TYPES:
        where, flat = _keep(where, flat, size,
                            lambda run: set(map(type, run)) <= _JSON_RATIONAL_TYPES)
    parsed = {x: _rational_pair(x) for x in set(flat)}
    pairs = list(map(parsed.__getitem__, flat))
    if None in pairs:
        where, pairs = _keep(where, pairs, size, lambda run: None not in run)
    out = [None] * len(block)
    if where:
        N, d = _canonical_stack(pairs, n)
        mats = zip(*(zip(*row) for row in N))  # each matrix as a tuple of rows
        for i, M, dk, fault in zip(where, mats, d, _ratio_faults(N, d, group)):
            out[i] = M, dk, fault
    return out


def _canonical_stack(pairs, n: int):
    """(N, d) of a stack of n x n rational matrices given as their
    entries' (num, den), matrix after matrix: N[r][c] lists entry (r, c)
    of each canonical N / d, and d lists the d.  One lcm and one gcd per
    matrix, and each scaling and division over the whole stack at once,
    all on Python ints."""
    size = n * n
    nums, dens = zip(*pairs)
    dens = [dens[c::size] for c in range(size)]
    d = list(map(math.lcm, *dens))
    N = [list(map(mul, nums[c::size], map(floordiv, d, dens[c])))
         for c in range(size)]
    N, d = ratio_normal_stack(N, d)
    return [N[r * n:(r + 1) * n] for r in range(n)], d


def _stacked(matrices, group: GroupDesc):
    """``_stack_block`` of every JSON matrix in order, _BLOCK entries at a time."""
    block = max(1, _BLOCK // group.size ** 2)
    for start in range(0, len(matrices), block):
        yield from _stack_block(matrices[start:start + block], group)


def _element(parsed, group: GroupDesc) -> GroupElement:
    """The validated element of a ``_stack_block`` item (a tuple), stored
    over Q(sqrt r) as its block form, or of rows of ``scalar_from_str``
    scalars (a list)."""
    if isinstance(parsed, tuple):
        N, d, fault = parsed
        if fault:
            raise PreconditionError(fault)
        r = group.field.r
        return GroupElement._ratio(field_form(N, r)[0] if r else N, d, group)
    return GroupElement(parsed, group)


def element_from_json(rows, field: FieldDesc, group: GroupDesc) -> GroupElement:
    """The validated group element of one JSON matrix."""
    return _element(_stack_block([rows], group)[0]
                    or matrix_from_json(rows, field), group)


def matrix_to_json(matrix):
    if isinstance(matrix, np.ndarray):
        return [[scalar_to_str(x) for x in row] for row in matrix.tolist()]
    return [[scalar_to_str(x) for x in row] for row in matrix]


def load_matrix_document(obj):
    """(field, group, [(id, GroupElement)]) from a parsed matrix file."""
    field = field_from_json(obj["field"])
    group = group_from_json(obj["group"], field)
    matrices = _expect(obj.get("matrices", []), list, "matrices")
    ids = (_expect(obj["ids"], list, "ids") if "ids" in obj
           else [f"m{i}" for i in range(len(matrices))])
    if len(ids) != len(matrices):
        raise PreconditionError("ids and matrices must have equal length")
    out = []
    for name, rows, item in zip(ids, matrices, _stacked(matrices, group)):
        out.append((name, _element(item or matrix_from_json(rows, field), group)))
    return field, group, out


def load_presentation_document(obj):
    """(field, group, Presentation, bending-block-or-None)."""
    field = field_from_json(obj["field"])
    group = group_from_json(obj["group"], field)
    gens = obj.get("generators")
    if not gens or not isinstance(gens, dict):
        raise PreconditionError("presentation file needs a generators object")
    symbols = list(gens.keys())
    matrices = [gens[s] for s in symbols]
    parsed = [item or matrix_from_json(rows, field)
              for rows, item in zip(matrices, _stacked(matrices, group))]
    sobj = _expect(obj.get("structure", {"type": "free"}), dict, "structure")
    stype = sobj.get("type", "free")
    index = {s: i for i, s in enumerate(symbols)}

    def generator(s, key):
        if not isinstance(s, str) or s not in index:
            raise PreconditionError(f"{key} names {s!r}, which is not a generator")
        return index[s]

    def generators(key):
        return tuple(generator(s, key) for s in _expect(sobj[key], list, key))

    def words(key):
        pairs = _expect(sobj.get(key, []), list, key)
        if not all(isinstance(pair, list) and len(pair) == 2 for pair in pairs):
            raise PreconditionError(f"{key} must list pairs of words, got {pairs!r}")
        return tuple((_word(w1, symbols, key), _word(w2, symbols, key))
                     for w1, w2 in pairs)

    if stype == "free":
        structure = FreeStructure()
    elif stype == "amalgam":
        structure = AmalgamStructure(side1=generators("side1"),
                                     side2=generators("side2"),
                                     gamma0_pairs=words("gamma0"))
    elif stype == "hnn":
        structure = HnnStructure(base=generators("base"),
                                 stable=generator(sobj["stable"], "stable"),
                                 pairings=words("pairings"))
    else:
        raise PreconditionError(f"unknown structure type {stype!r}")
    relators = tuple(_word(w, symbols, "relators") for w in
                     _expect(obj.get("relators", []), list, "relators"))
    pres = Presentation(symbols, [_element(m, group) for m in parsed], group,
                        structure=structure, relators=relators)
    bending = obj.get("bending")
    if bending is not None and "Y" in _expect(bending, dict, "bending"):
        bending = dict(bending)
        bending["Y"] = _bending_Y(bending["Y"], field, group.size)
    return field, group, pres, bending


def read_json(path):
    """A parsed matrix or presentation file; both are JSON objects."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise PreconditionError(f"{path}: the top level must be a JSON object")
    return obj
