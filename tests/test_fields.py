from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanlab import (
    FieldDesc,
    QuadElement,
    UnsupportedFieldError,
    abs_value,
    padic,
    quad_embed,
    quadratic,
    valuation,
)
from cartanlab.errors import PreconditionError
from cartanlab.fields import (
    INF,
    PRIME_BOUND,
    SQUAREFREE_BOUND,
    int_valuation,
    is_prime,
    is_squarefree,
    sqrt_midpoint,
)

Q3 = padic(3)

rationals = st.fractions(
    min_value=F(-1000), max_value=F(1000), max_denominator=729
)


def test_valuation_examples():
    assert valuation(3, Q3) == 1
    assert valuation(1, Q3) == 0
    assert valuation(F(1, 9), Q3) == -2
    assert valuation(0, Q3) == INF


@given(unit=st.integers(-2 ** 70, 2 ** 70).filter(bool),
       p=st.sampled_from([2, 3, 5]), k=st.integers(0, 80))
@settings(max_examples=200, deadline=None)
def test_int_valuation_counts_factors_of_p(unit, p, k):
    n = unit * p ** k
    v = int_valuation(n, p)
    assert n % p ** v == 0 and n % p ** (v + 1) != 0


def test_valuation_rejects_non_padic():
    with pytest.raises(UnsupportedFieldError):
        valuation(3, FieldDesc("real"))
    with pytest.raises(UnsupportedFieldError):
        valuation(0.5, Q3)


def test_abs_value_examples():
    assert abs_value(F(1, 9), Q3) == 9
    assert abs_value(0, Q3) == 0
    x = QuadElement(1, 1, 2)
    assert abs_value(x, quadratic(2)) == pytest.approx(2.414213562373095, abs=1e-12)


def test_quad_embed_values():
    # oracle: integer-sqrt enclosures
    assert quad_embed(QuadElement(0, 0, 2)) == 0.0
    assert quad_embed(QuadElement(1, 1, 2)) == pytest.approx(
        2.414213562373095, abs=1e-14
    )
    assert quad_embed(QuadElement(3, -2, 2)) == pytest.approx(
        0.171572875253810, abs=1e-14
    )


def test_quad_embed_monotone_in_precision():
    bounds = [
        (F(m - 1, D), F(m + 1, D))
        for m, D in (sqrt_midpoint(2, bits) for bits in (8, 16, 32, 64))
    ]
    assert all(lo * lo <= 2 < hi * hi for lo, hi in bounds)
    lowers = [lo for lo, _ in bounds]
    assert all(a <= b for a, b in zip(lowers, lowers[1:]))
    widths = [hi - lo for lo, hi in bounds]
    assert widths[0] > widths[1] > widths[2] > widths[3]


def test_field_validation():
    with pytest.raises(UnsupportedFieldError):
        padic(4)
    with pytest.raises(UnsupportedFieldError):
        quadratic(8)  # not square-free
    with pytest.raises(UnsupportedFieldError):
        quadratic(1)
    with pytest.raises(UnsupportedFieldError):
        FieldDesc("laurent")
    assert is_prime(97) and not is_prime(91)
    assert is_squarefree(10) and not is_squarefree(12)


@given(x=rationals, y=rationals)
@settings(max_examples=300, deadline=None)
def test_ultrametric_and_valuation_rules(x, y):
    vx, vy = valuation(x, Q3), valuation(y, Q3)
    vsum = valuation(x + y, Q3)
    assert vsum >= min(vx, vy)
    if vx != vy:
        assert vsum == min(vx, vy)
    assert abs_value(x + y, Q3) <= max(abs_value(x, Q3), abs_value(y, Q3))
    if x != 0 and y != 0:
        assert valuation(x * y, Q3) == vx + vy
        assert abs_value(x * y, Q3) == abs_value(x, Q3) * abs_value(y, Q3)


def test_quad_element_field_axioms():
    x = QuadElement(F(3, 2), F(-1, 4), 2)
    y = QuadElement(F(-5), F(2), 2)
    assert (x * y) / y == x
    assert x + (-x) == QuadElement(0, 0, 2)
    assert (x * y).a == x.a * y.a + 2 * x.b * y.b
    assert x ** 3 == x * x * x
    assert x ** -2 == 1 / (x * x)


def test_quad_element_exact_ordering():
    # 3 - 2*sqrt(2) is positive but tiny; sign decided exactly
    assert QuadElement(3, -2, 2).sign() == 1
    assert QuadElement(-3, 2, 2).sign() == -1
    assert QuadElement(F(577, 408), -1, 2).sign() == 1  # 577/408 > sqrt(2)
    assert QuadElement(F(576, 408), -1, 2).sign() == -1
    assert QuadElement(1, 1, 2) > QuadElement(2, 0, 2)
    assert abs(QuadElement(-1, 0, 2)) == QuadElement(1, 0, 2)


def test_quad_element_equality_is_exact():
    assert QuadElement(1, 2, 2) == QuadElement(1, 2, 2)
    assert QuadElement(1, 2, 2) != QuadElement(1, 2, 3)
    assert QuadElement(F(1, 3), 0, 2) == F(1, 3)
    assert hash(QuadElement(F(1, 3), 0, 2)) == hash(F(1, 3))


def test_quad_element_arithmetic_does_not_recheck_r(monkeypatch):
    # results are built on operands whose r was checked at construction
    import cartanlab.fields as fields

    x = QuadElement(F(3, 2), F(-1, 4), 2)
    y = QuadElement(F(-5), F(2), 2)
    calls = []
    squarefree = fields.is_squarefree
    monkeypatch.setattr(fields, "is_squarefree",
                        lambda r: calls.append(r) or squarefree(r))
    values = [x + y, x - y, x * y, x / y, x ** 3, x ** -2, -x,
              x + 1, 1 - x, F(1, 2) * x, 2 / x, abs(-x)]
    assert calls == []
    assert [(v.a, v.b, v.r) for v in values] == [
        (F(-7, 2), F(7, 4), 2), (F(13, 2), F(-9, 4), 2),
        (F(-17, 2), F(17, 4), 2), (F(-13, 34), F(-7, 68), 2),
        (F(63, 16), F(-55, 32), 2), (F(152, 289), F(48, 289), 2),
        (F(-3, 2), F(1, 4), 2), (F(5, 2), F(-1, 4), 2), (F(-1, 2), F(1, 4), 2),
        (F(3, 4), F(-1, 8), 2), (F(24, 17), F(4, 17), 2),
        (F(3, 2), F(-1, 4), 2)]
    assert all(type(v.a) is F and type(v.b) is F for v in values)
    for r in (0, 1, 4):  # the constructor still checks
        with pytest.raises(UnsupportedFieldError):
            QuadElement(1, 1, r)
    assert calls == [0, 1, 4]


def test_mixed_quadratic_fields_rejected():
    with pytest.raises(UnsupportedFieldError):
        QuadElement(1, 1, 2) + QuadElement(1, 1, 3)


def test_primality_and_squarefree_tests_are_bounded():
    assert [n for n in range(60) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    # strong pseudoprimes to the first several prime bases
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    assert is_prime(2 ** 61 - 1) and is_prime(1000000000000000003)
    assert not is_prime(1000000000000000003 * 1000003)  # about 1e24
    assert [n for n in range(1, 30) if not is_squarefree(n)] == [
        4, 8, 9, 12, 16, 18, 20, 24, 25, 27, 28]
    big = 999999937  # prime: its square has no factor below its cube root
    assert not is_squarefree(big * big) and is_squarefree(big * 1000003)
    assert not is_squarefree(8 * big) and is_squarefree(2 * big)
    with pytest.raises(PreconditionError, match=r"p = \d+ is out of range"):
        padic(PRIME_BOUND)
    with pytest.raises(PreconditionError, match=r"r = \d+ is out of range"):
        quadratic(SQUAREFREE_BOUND + 1)
