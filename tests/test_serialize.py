import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanlab import (
    COMPLEX,
    GroupDesc,
    GroupElement,
    PreconditionError,
    QuadElement,
    REAL,
    UnsupportedFieldError,
    cli,
    fields,
    padic,
    quadratic,
    serialize,
)
from cartanlab.exact import ratio_form
from cartanlab.serialize import (
    _stack_block,
    element_from_json,
    field_from_json,
    field_to_json,
    group_from_json,
    load_matrix_document,
    load_presentation_document,
    matrix_from_json,
    matrix_to_json,
    scalar_from_str,
    scalar_to_str,
)


def test_scalar_round_trips():
    q2 = quadratic(2)
    cases = [
        (F(1, 2), padic(3)),
        (F(-7), padic(5)),
        (QuadElement(F(3, 2), F(-1, 4), 2), q2),
        (QuadElement(0, 1, 2), q2),
        (0.5, REAL),
        (1.0 / 3.0, REAL),
    ]
    for value, field in cases:
        text = scalar_to_str(value)
        back = scalar_from_str(text, field)
        assert back == value


def test_scalar_strings():
    assert scalar_to_str(F(1, 2)) == "1/2"
    assert scalar_to_str(QuadElement(1, -2, 2)) == "1-2*sqrt(2)"
    assert scalar_to_str(QuadElement(F(-3, 2), 0, 2)) == "-3/2"
    assert scalar_to_str(QuadElement(0, 0, 2)) == "0"
    assert scalar_from_str("3+1/2*sqrt(2)", quadratic(2)) == QuadElement(
        3, F(1, 2), 2
    )
    assert scalar_from_str("0.25", REAL) == 0.25
    assert isinstance(scalar_from_str("1/4", REAL), F)


_FRACTIONS = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


@settings(max_examples=200, deadline=None)
@given(a=_FRACTIONS, b=_FRACTIONS, r=st.sampled_from([2, 3, 5, 6, 7, 10]))
def test_quad_element_text_round_trips(a, b, r):
    # str() used to write a+-b*sqrt(r) for b < 0, which the reader refused
    q = QuadElement(a, b, r)
    assert str(q) == scalar_to_str(q)
    assert scalar_from_str(str(q), quadratic(r)) == q


def test_wrong_radicand_rejected():
    with pytest.raises(PreconditionError):
        scalar_from_str("1+1*sqrt(3)", quadratic(2))


_SL2 = {"family": "SL", "n": 2}
_BIG_R = 10**17 + 3  # square-free; one is_squarefree(_BIG_R) takes tens of ms


@pytest.mark.parametrize("kind", ["matrices", "presentation"])
def test_a_quadratic_document_checks_r_once(monkeypatch, kind):
    # each sqrt entry used to be built by QuadElement(a, b, r), which
    # re-ran is_squarefree(r) after FieldDesc had checked it: at r = _BIG_R
    # a 2 x 2 document with one sqrt entry took 0.26 s to load
    calls, check = [], fields.is_squarefree
    monkeypatch.setattr(fields, "is_squarefree",
                        lambda n, key="n": calls.append(n) or check(n, key))
    field = {"kind": "quadratic", "r": _BIG_R}
    s = f"1*sqrt({_BIG_R})"
    mats = [[["1", s], ["0", "1"]], [["1", "0"], ["-" + s, "1"]],
            [["1", "2/3"], ["0", "1"]]]
    if kind == "matrices":
        doc = {"field": field, "group": _SL2, "matrices": mats}
        elements = [g for _, g in load_matrix_document(doc)[2]]
    else:
        doc = {"field": field, "group": _SL2,
               "generators": {f"g{i}": m for i, m in enumerate(mats)}}
        elements = load_presentation_document(doc)[2].generators
    got = [g.matrix for g in elements]
    assert calls == [_BIG_R]
    assert got == [tuple(map(tuple, matrix_from_json(m, quadratic(_BIG_R))))
                   for m in mats]


@pytest.mark.parametrize("read, error, message", [
    (lambda: scalar_from_str("1+1*sqrt(3)", quadratic(2)), PreconditionError,
     "scalar lives in sqrt(3) but the field is sqrt(2)"),
    (lambda: scalar_from_str("1*sqrt(8)", quadratic(2)), PreconditionError,
     "scalar lives in sqrt(8) but the field is sqrt(2)"),
    (lambda: load_matrix_document(
        {"field": {"kind": "quadratic", "r": 2}, "group": _SL2,
         "matrices": [[["1", "1*sqrt(3)"], ["0", "1"]]]}), PreconditionError,
     "scalar lives in sqrt(3) but the field is sqrt(2)"),
    (lambda: field_from_json({"kind": "quadratic", "r": 4}), UnsupportedFieldError,
     "r = 4 must be a square-free integer >= 2"),
    (lambda: field_from_json({"kind": "quadratic", "r": 1}), UnsupportedFieldError,
     "r = 1 must be a square-free integer >= 2"),
    (lambda: field_from_json({"kind": "quadratic", "r": -3}), UnsupportedFieldError,
     "r = -3 must be a square-free integer >= 2"),
    (lambda: field_from_json({"kind": "quadratic", "r": 10**18}), PreconditionError,
     "r = 1000000000000000000 is out of range: r must be below 10**18"),
])
def test_quadratic_refusals_keep_their_messages(read, error, message):
    with pytest.raises(error) as info:
        read()
    assert str(info.value) == message


def test_field_json_round_trip():
    for obj in ({"kind": "real"}, {"kind": "padic", "p": 7},
                {"kind": "quadratic", "r": 5}, {"kind": "complex"}):
        f = field_from_json(obj)
        assert field_to_json(f) == obj
    with pytest.raises(UnsupportedFieldError):
        field_from_json({"kind": "laurent"})


def test_matrix_document():
    doc = {
        "field": {"kind": "padic", "p": 3},
        "group": {"family": "SL", "n": 2},
        "matrices": [[["3", "0"], ["0", "1/3"]]],
        "ids": ["g"],
    }
    field, group, items = load_matrix_document(doc)
    assert items[0][0] == "g"
    assert items[0][1].matrix[0][0] == F(3)
    round_tripped = matrix_to_json(items[0][1].matrix)
    assert round_tripped == [["3", "0"], ["0", "1/3"]]


def test_presentation_document_structures():
    doc = {
        "field": {"kind": "real"},
        "group": {"family": "SL", "n": 2},
        "generators": {
            "a": [["4", "0"], ["0", "1/4"]],
            "b": [["31/4", "-15/4"], ["15/2", "-7/2"]],
        },
        "structure": {"type": "amalgam", "side1": ["a"], "side2": ["b"],
                      "gamma0": []},
        "relators": [],
    }
    field, group, pres, bending = load_presentation_document(doc)
    assert pres.symbols == ("a", "b")
    assert bending is None
    doc["structure"] = {"type": "hnn", "base": ["a"], "stable": "b",
                        "pairings": []}
    _, _, pres2, _ = load_presentation_document(doc)
    assert pres2.structure.stable == 1
    doc["structure"] = {"type": "orbifold"}
    with pytest.raises(PreconditionError):
        load_presentation_document(doc)


def test_presentation_requires_generators():
    with pytest.raises(PreconditionError):
        load_presentation_document({
            "field": {"kind": "real"},
            "group": {"family": "SL", "n": 2},
        })


def test_group_with_quadratic_form():
    q2 = quadratic(2)
    g = group_from_json(
        {"family": "SO", "p": 2, "q": 1, "form": ["1", "1", "-1*sqrt(2)"]},
        q2,
    )
    assert g.form[2] == QuadElement(0, -1, 2)


# ---------------------------------------------------------------------------
# the stacked route of the loader against the scalar_from_str route

_LOADER_FIELDS = [REAL, COMPLEX, padic(2), padic(3), quadratic(2)]
# entries that are not rational text, or are rational text spelled oddly
_ODD_ENTRIES = [" 3", "1_000", "٣", "1/0", "1.5", "2/4 ", "1e3", "",
                True, None, 3.0, "-0", "0/7", "007/003", "2/4", 1.0, False]


@st.composite
def _spelling(draw, value):
    """One JSON spelling of a rational value: an int, or "a" or "a/b"
    text, unreduced, signed or with leading zeros."""
    k = draw(st.integers(1, 3))
    num, den = value.numerator * k, value.denominator * k
    forms = [f"{num}/{den}", f"{num:+d}/{den}", f"{'-' if num < 0 else ''}00"
             f"{abs(num)}/0{den}"]
    if value.denominator == 1:
        forms += [value.numerator, str(value.numerator)]
    return draw(st.sampled_from(forms))


_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def _loader_matrix(draw, group):
    """(JSON rows, whether they are 2 x 2 and all rational): an element of
    group (SL_2 or SO(1,1)), maybe spoiled."""
    if group.family == "SL":
        a = draw(_rationals.filter(bool))
        b, c = draw(_rationals), draw(_rationals)
        values = [[a, b], [c, (1 + b * c) / a]]
    else:
        k = F(draw(st.integers(1, 5)), draw(st.integers(1, 5)))
        ch, sh = (k * k + 1) / (2 * k), (k * k - 1) / (2 * k)
        values = [[ch, sh], [sh, ch]]
    rows = [[draw(_spelling(x)) for x in row] for row in values]
    spoil = draw(st.integers(0, 4))
    if spoil == 1:  # an odd entry
        rows[draw(st.integers(0, 1))][draw(st.integers(0, 1))] = draw(
            st.sampled_from(_ODD_ENTRIES))
    elif spoil == 2:  # another rational entry: det != 1 or the form broken
        rows[0][1] = draw(_spelling(draw(_rationals)))
    elif spoil == 3:  # a ragged or non-square matrix
        rows = draw(st.sampled_from([rows[:1], [rows[0], rows[1][:1]],
                                     [row + ["0"] for row in rows]]))
    elif spoil == 4:  # not a list of rows
        rows = draw(st.sampled_from(["1", [1, 0], {"a": 1}, [[0, 1], 1]]))
    return rows, spoil in (0, 2)


@st.composite
def _loader_case(draw):
    """(JSON matrices, which are 2 x 2 and all rational, group): a
    document of 1 to 4 SL_2 or SO(1,1) matrices, each maybe spoiled."""
    field = draw(st.sampled_from(_LOADER_FIELDS))
    group = draw(st.sampled_from([GroupDesc("SL", field, n=2),
                                  GroupDesc("SO", field, p=1, q=1)]))
    drawn = draw(st.lists(_loader_matrix(group), min_size=1, max_size=4))
    return [rows for rows, _ in drawn], [flag for _, flag in drawn], group


def _outcome(make):
    try:
        return make()
    except Exception as e:  # the two routes must fail alike
        return type(e), str(e)


def _scalar_route(matrices, group):
    """Every matrix through scalar_from_str, one element at a time."""
    return [GroupElement(matrix_from_json(rows, group.field), group)
            for rows in matrices]


def _assert_same_elements(fast, slow):
    if isinstance(slow, tuple):  # an exception's type and message
        assert fast == slow
        return
    assert [type(g) for g in fast] == [GroupElement] * len(slow)
    for f, s in zip(fast, slow):
        assert f == s and hash(f) == hash(s)
        assert f._den == s._den and f.is_exact == s.is_exact
        if s._den:
            assert f._m == s._m


@given(case=_loader_case())
@settings(max_examples=300, deadline=None)
def test_fast_loader_matches_the_scalar_route(case):
    """The stacked route gives each matrix of a document the scalar
    route's (N, d) before any validation, and the document the same
    elements, or the same first failure in document order."""
    matrices, rational, group = case
    for rows, flag, item in zip(matrices, rational, _stack_block(matrices, group)):
        assert item is not None or not flag
        if item is not None:
            assert item[:2] == ratio_form(matrix_from_json(rows, group.field))
    doc = {"field": field_to_json(group.field), "matrices": matrices,
           "group": {"family": "SL", "n": 2} if group.family == "SL"
           else {"family": "SO", "p": 1, "q": 1}}
    fast = _outcome(lambda: [g for _, g in load_matrix_document(doc)[2]])
    _assert_same_elements(fast, _outcome(lambda: _scalar_route(matrices, group)))
    one = [_outcome(lambda: element_from_json(rows, group.field, group))
           for rows in matrices]
    assert one == [_outcome(lambda: GroupElement(matrix_from_json(
        rows, group.field), group)) for rows in matrices]


def _so22(*blocks):
    """Rows of the 4 x 4 block-diagonal matrix of 2 x 2 blocks (x1, x3)
    and (x2, x4), the two SO(1,1) planes of SO(2,2)."""
    (a, b, c, d), (e, f, g, h) = blocks
    return [[a, "0", b, "0"], ["0", e, "0", f], [c, "0", d, "0"],
            ["0", g, "0", h]]


_BOOST = ("5/4", "3/4", "3/4", "5/4")
_ONE = (1, "0", "0", "1")
_DOC_MATRICES = [
    _so22(_BOOST, _ONE),
    _so22(("2/4", "-0", 0, "4/2"), _ONE),  # det 1, form broken
    _so22(_BOOST, ("007/003", "0", "0", "003/007")),  # form broken
    _so22(_BOOST, ("5/4", "-3/4", "-3/4", "5/4")),
    "not a matrix",
    _so22(("2", "0", "0", "1"), _ONE),  # det 2
    _so22(_BOOST, (True, "0", "0", 1)),
    _so22(_BOOST, (1.0, "0", "0", 1)),
    _so22(("1/0", "0", "0", "1"), _ONE),
    [["1", "0"], ["0", "1"]],
    _so22(("3/4", "5/4", "5/4", "3/4"), _ONE),  # det -1
    _so22(_BOOST, ("0", "1", "1", "0")),  # det -1: O(1,1), not SO
    _so22(("0", "1", "1", "0"), ("0", "1", "1", "0")),  # in O(2,2) with det 1
    _so22(_BOOST, _BOOST),
]


@pytest.mark.parametrize("block", [16, 32, 48, 4096])
def test_stacked_loader_fails_first_where_the_scalar_route_does(
        monkeypatch, block):
    """Every tail of a document mixing good matrices, determinant and
    form failures, malformed matrices, ``true`` and ``1.0`` next to ``1``
    and unreduced text loads to the same elements, or fails with the same
    first failure, as the scalar route, whatever the stack's block size
    in entries (1, 2, 3 and 256 SO(2,2) matrices).  A Q_2 SL_2 document
    of block // 4 matrices per stack loads past its first stack as the
    scalar route does, and fails first at a det 2 matrix in its second
    stack on both routes, before a det -1 matrix in its third."""
    monkeypatch.setattr(serialize, "_BLOCK", block)
    group = GroupDesc("SO", REAL, p=2, q=2)
    doc = {"field": {"kind": "real"}, "group": {"family": "SO", "p": 2, "q": 2}}
    failures = set()
    for start in range(len(_DOC_MATRICES)):
        matrices = _DOC_MATRICES[start:]
        fast = _outcome(lambda: [g for _, g in load_matrix_document(
            dict(doc, matrices=matrices))[2]])
        _assert_same_elements(fast, _outcome(lambda: _scalar_route(matrices, group)))
        if isinstance(fast, tuple):
            failures.add(fast[1])
    assert failures == {
        "matrix does not preserve the form", "determinant is 2, not 1",
        "determinant is -1, not 1", "a matrix must be a list of rows of scalars",
        "could not convert string to float: 'True'", "matrix is not 4x4",
        "scalar '1/0' has a zero denominator"}
    sl2 = GroupDesc("SL", padic(2), n=2)
    k = block // 4 + 1
    good = [[["1", "1/2"], [0, 1]]] * k + [[["1/4", 0], ["3", 4]]] * k
    doc = {"field": {"kind": "padic", "p": 2}, "group": {"family": "SL", "n": 2}}
    _assert_same_elements([g for _, g in load_matrix_document(
        dict(doc, matrices=good))[2]], _scalar_route(good, sl2))
    bad = good[:k] + [[[2, 0], [0, 1]]] + good[k:] + [[[0, 1], [1, 0]]]
    assert _outcome(lambda: load_matrix_document(dict(doc, matrices=bad))) == (
        _outcome(lambda: _scalar_route(bad, sl2))) == (
        PreconditionError, "determinant is 2, not 1")


def test_stacked_loader_keeps_true_and_floats_apart_from_ints():
    """``true``, ``1.0`` and ``1`` hash alike; the parse of a stack is
    keyed by type, so ``true`` stays malformed and ``1.0`` a float."""
    sl2 = {"family": "SL", "n": 2}
    ints = [[1, 0], [0, 1]]
    doc = {"field": {"kind": "real"}, "group": sl2,
           "matrices": [ints, [[1.0, 0], [0, 1]], ints]}
    _, _, items = load_matrix_document(doc)
    assert [g.is_exact for _, g in items] == [True, False, True]
    doc["matrices"] = [ints, [[True, 0], [0, 1]]]
    with pytest.raises(ValueError):
        load_matrix_document(doc)
    doc["field"] = {"kind": "padic", "p": 2}  # 1.0 is exact text over Q_p
    doc["matrices"] = [ints, [[1.0, 0], [0, 1]]]
    _, _, items = load_matrix_document(doc)
    assert items[0][1] == items[1][1] and items[1][1]._den == 1


_SO11 = {"family": "SO", "p": 1, "q": 1}


@pytest.mark.parametrize("field, group, rows", [
    ({"kind": "real"}, _SL2, [["1/0", "0"], ["0", "1"]]),
    ({"kind": "real"}, _SL2, [[" 3", "0"], ["0", "1/3"]]),
    ({"kind": "real"}, _SL2, [["1_000", "0"], ["0", "1/1000"]]),
    ({"kind": "real"}, _SL2, [["٣", "0"], ["0", "1/3"]]),
    ({"kind": "padic", "p": 2}, _SL2, [["1.5", "0"], ["0", "2/3"]]),
    ({"kind": "padic", "p": 2}, _SL2, [["1.5", "0"], ["0", "1"]]),
    ({"kind": "real"}, _SL2, [["1", "0", "0"], ["0", "1", "0"]]),
    ({"kind": "real"}, _SL2, [[2, 0], [0, 1]]),
    ({"kind": "real"}, _SO11, [["1", "1"], ["0", "1"]]),
    ({"kind": "complex"}, _SO11, [["5/4", "3/4"], ["3/4", "5/4"]]),
    ({"kind": "padic", "p": 2}, _SL2, [["1/0", "0"], ["0", "1"]]),
    ({"kind": "complex"}, _SL2, [["1/0", "0"], ["0", "1"]]),
    ({"kind": "quadratic", "r": 2}, _SL2, [["1/0", "0"], ["0", "1"]]),
    ({"kind": "quadratic", "r": 2}, _SL2, [["1/0*sqrt(2)", "0"], ["0", "1"]]),
    ({"kind": "real"}, _SL2, [["2/4", "-0"], ["007/003", "004/2"]]),
    ({"kind": "padic", "p": 3}, _SL2, [["2/4", "-0"], ["007/003", "004/2"]]),
    ({"kind": "real"}, _SL2, [[True, 0], [0, 1]]),
    ({"kind": "real"}, _SL2, [[1.0, 0], [0, 1]]),
    ({"kind": "padic", "p": 2}, _SL2, [[1.0, 0], [0, 1]]),
])
def test_fast_loader_exits_as_the_scalar_route(tmp_path, monkeypatch, capsys,
                                               field, group, rows):
    """cartan and ball give the same exit code (or exception), message and
    bytes with the stacked route and with every matrix sent to
    scalar_from_str."""
    _assert_same_exits(tmp_path, monkeypatch, capsys, field, group, [rows])


@pytest.mark.parametrize("matrices", [
    [_DOC_MATRICES[i] for i in order] for order in
    [(0, 3, 13), (0, 1, 4, 5), (0, 4, 1), (5, 6, 2), (0, 7, 6, 1),
     (0, 10, 8), (11, 0), (12, 9), (3, 2, 4)]])
def test_stacked_loader_exits_as_the_scalar_route_on_documents(
        tmp_path, monkeypatch, capsys, matrices):
    """The same on documents of several SO(2,2) matrices: a determinant
    or form failure before and after a malformed matrix, and ``true``,
    ``1.0`` and unreduced text next to good matrices."""
    _assert_same_exits(tmp_path, monkeypatch, capsys, {"kind": "real"},
                       {"family": "SO", "p": 2, "q": 2}, matrices)


def _assert_same_exits(tmp_path, monkeypatch, capsys, field, group, matrices):
    docs = {
        "cartan": {"field": field, "group": group, "matrices": matrices},
        "ball": {"field": field, "group": group,
                 "generators": {f"g{i}": rows for i, rows in enumerate(matrices)}},
    }
    for command, doc in docs.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(doc))
        results = []
        for route in ("stacked", "scalar"):
            if route == "scalar":
                monkeypatch.setattr(serialize, "_stack_block",
                                    lambda block, group: [None] * len(block))
            out = tmp_path / f"{command}_{route}.csv"
            code = _outcome(lambda: cli.main(
                [command, "--input", str(path), "--output", str(out),
                 "--radius", "1"]))
            results.append((code, capsys.readouterr().err,
                            out.read_bytes() if out.exists() else None))
            monkeypatch.undo()
        assert results[0] == results[1]
