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
    padic,
    quadratic,
    serialize,
)
from cartanlab.exact import ratio_form
from cartanlab.serialize import (
    _ratio_from_json,
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
    assert scalar_from_str("3+1/2*sqrt(2)", quadratic(2)) == QuadElement(
        3, F(1, 2), 2
    )
    assert scalar_from_str("0.25", REAL) == 0.25
    assert isinstance(scalar_from_str("1/4", REAL), F)


def test_wrong_radicand_rejected():
    with pytest.raises(PreconditionError):
        scalar_from_str("1+1*sqrt(3)", quadratic(2))


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
# the integer fast path of the loader against the scalar_from_str route

_LOADER_FIELDS = [REAL, COMPLEX, padic(2), padic(3), quadratic(2)]
# entries that the fast path must hand to scalar_from_str
_ODD_ENTRIES = [" 3", "1_000", "٣", "1/0", "1.5", "2/4 ", "1e3", "",
                True, None, 3.0, "-0", "0/7"]


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
def _loader_case(draw):
    """(JSON rows, group, whether every entry is rational): an SL_2 or
    SO(1,1) element, maybe spoiled."""
    field = draw(st.sampled_from(_LOADER_FIELDS))
    if draw(st.booleans()):
        group = GroupDesc("SL", field, n=2)
        a = draw(_rationals.filter(bool))
        b, c = draw(_rationals), draw(_rationals)
        values = [[a, b], [c, (1 + b * c) / a]]
    else:
        group = GroupDesc("SO", field, p=1, q=1)
        k = F(draw(st.integers(1, 5)), draw(st.integers(1, 5)))
        ch, sh = (k * k + 1) / (2 * k), (k * k - 1) / (2 * k)
        values = [[ch, sh], [sh, ch]]
    rows = [[draw(_spelling(x)) for x in row] for row in values]
    spoil = draw(st.integers(0, 3))
    if spoil == 1:  # an odd entry
        rows[draw(st.integers(0, 1))][draw(st.integers(0, 1))] = draw(
            st.sampled_from(_ODD_ENTRIES))
    elif spoil == 2:  # another rational entry: det != 1 or the form broken
        rows[0][1] = draw(_spelling(draw(_rationals)))
    elif spoil == 3:  # a ragged or non-square matrix
        rows = draw(st.sampled_from([rows[:1], [rows[0], rows[1][:1]],
                                     [row + ["0"] for row in rows]]))
    return rows, group, spoil != 1


def _outcome(make):
    try:
        return make()
    except Exception as e:  # the two routes must fail alike
        return type(e)


@given(case=_loader_case())
@settings(max_examples=300, deadline=None)
def test_fast_loader_matches_the_scalar_route(case):
    rows, group, rational = case
    if rational:  # the fast path's (N, d), before any validation
        assert _ratio_from_json(rows) == ratio_form(
            matrix_from_json(rows, group.field))
    fast = _outcome(lambda: element_from_json(rows, group.field, group))
    slow = _outcome(lambda: GroupElement(matrix_from_json(rows, group.field),
                                         group))
    if isinstance(slow, type):
        assert fast is slow
        return
    assert isinstance(fast, GroupElement)
    assert fast == slow and hash(fast) == hash(slow)
    assert fast._den == slow._den
    if slow._den:
        assert fast._m == slow._m


_SO11 = {"family": "SO", "p": 1, "q": 1}
_SL2 = {"family": "SL", "n": 2}


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
])
def test_fast_loader_exits_as_the_scalar_route(tmp_path, monkeypatch, field,
                                               group, rows):
    """cartan and ball give the same exit code (or exception) and bytes
    with the fast path and with every matrix sent to scalar_from_str."""
    docs = {
        "cartan": {"field": field, "group": group, "matrices": [rows]},
        "ball": {"field": field, "group": group, "generators": {"a": rows}},
    }
    for command, doc in docs.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(doc))
        results = []
        for route in ("fast", "scalar"):
            if route == "scalar":
                monkeypatch.setattr(serialize, "_ratio_from_json",
                                    lambda rows: None)
            out = tmp_path / f"{command}_{route}.csv"
            code = _outcome(lambda: cli.main(
                [command, "--input", str(path), "--output", str(out),
                 "--radius", "1"]))
            results.append((code, out.read_bytes() if out.exists() else None))
            monkeypatch.undo()
        assert results[0] == results[1]
