"""Exact group elements stored as one integer matrix over one denominator.

The oracle is plain Fraction-tuple arithmetic written out below; the
p-adic Cartan projection is checked against minors computed by sympy:
the k smallest invariant-factor valuations of g sum to the least
valuation of a k x k minor of g.
"""

import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cartanlab.cartan import (
    GroupElement,
    cartan_padic,
    indefinite_orthogonal,
    invariant_factor_valuations,
    special_linear,
    to_float_array,
)
from cartanlab.errors import PreconditionError
from cartanlab.exact import inverse, ratio_form
from cartanlab.fields import REAL, padic

BIG = 2 ** 80


# -- oracle: Fraction tuples ---------------------------------------------

def frac_mul(A, B):
    return tuple(
        tuple(sum((F(A[i][t]) * F(B[t][j]) for t in range(len(B))), F(0))
              for j in range(len(B[0])))
        for i in range(len(A))
    )


def frac_inv(A):
    n = len(A)
    M = [[F(x) for x in row] + [F(int(i == j)) for j in range(n)]
         for i, row in enumerate(A)]
    for c in range(n):
        r = next(i for i in range(c, n) if M[i][c])
        M[c], M[r] = M[r], M[c]
        piv = M[c][c]
        M[c] = [x / piv for x in M[c]]
        for i in range(n):
            if i != c and M[i][c]:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[c])]
    return tuple(tuple(row[n:]) for row in M)


def frac_det(A):
    n = len(A)
    return sum(
        math.prod(F(A[i][s[i]]) for i in range(n))
        * (-1) ** sum(s[i] > s[j] for i in range(n) for j in range(i + 1, n))
        for s in itertools.permutations(range(n))
    )


def as_fractions(A):
    return tuple(tuple(F(x) for x in row) for row in A)


# -- strategies ------------------------------------------------------------

# numerators and denominators past 2**64; ints and Fractions mixed
scalars = st.one_of(
    st.integers(-BIG, BIG),
    st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def invertible(draw, n=None):
    n = n if n is not None else draw(st.integers(2, 4))
    A = tuple(tuple(draw(scalars) for _ in range(n)) for _ in range(n))
    if frac_det(A) == 0:
        A = tuple(tuple(x + (i == j) * BIG for j, x in enumerate(row))
                  for i, row in enumerate(A))
    assume(frac_det(A) != 0)
    return A


def sl(n):
    return special_linear(n, REAL)


def unchecked(A):
    return GroupElement(A, sl(len(A)), check=False)


# -- products, inverses, equality ------------------------------------------

@given(st.integers(2, 4).flatmap(lambda n: st.tuples(invertible(n),
                                                     invertible(n))))
@settings(max_examples=60, deadline=None)
def test_product_and_inverse_match_fraction_oracle(pair):
    A, B = pair
    a, b = unchecked(A), unchecked(B)
    assert (a @ b).matrix == frac_mul(A, B)
    assert a.inv().matrix == frac_inv(A)
    n = len(A)
    assert a @ a.inv() == unchecked([[int(i == j) for j in range(n)]
                                     for i in range(n)])


@given(invertible())
@settings(max_examples=60, deadline=None)
def test_matrix_round_trip_and_equality_ignore_entry_types(A):
    g = unchecked(A)
    M = g.matrix
    assert M == as_fractions(A)
    assert all(type(x) is F for row in M for x in row)
    # the same values as ints where possible, or as Fractions
    ints = tuple(tuple(int(x) if F(x).denominator == 1 else x for x in row)
                 for row in A)
    for other in (GroupElement(M, g.group, check=False), unchecked(ints),
                  unchecked(as_fractions(A))):
        assert other == g and hash(other) == hash(g)
        assert other.matrix == M
    # every entry matters
    for i, j in itertools.product(range(len(A)), repeat=2):
        B = [list(row) for row in A]
        B[i][j] = F(B[i][j]) + F(1, 3)
        assert unchecked(B) != g


@given(st.integers(2, 3).flatmap(lambda n: st.lists(invertible(n),
                                                    min_size=3, max_size=3)))
@settings(max_examples=30, deadline=None)
def test_products_are_associative_with_equal_hashes(mats):
    a, b, c = map(unchecked, mats)
    left, right = (a @ b) @ c, a @ (b @ c)
    assert left == right and hash(left) == hash(right)
    assert len({left, right, a @ b @ c}) == 1


# -- validation ------------------------------------------------------------

def elementary(n, i, j, x):
    return tuple(tuple(F(x) if (r, c) == (i, j) else F(int(r == c))
                       for c in range(n)) for r in range(n))


@st.composite
def sl_rows(draw, n):
    """An element of SL_n(Q): a product of elementary matrices and a
    diagonal matrix of determinant 1, as Fraction tuples."""
    M = tuple(tuple(F(int(i == j)) for j in range(n)) for i in range(n))
    for _ in range(draw(st.integers(1, 5))):
        i, j = draw(st.sampled_from(
            [(i, j) for i in range(n) for j in range(n) if i != j]))
        M = frac_mul(M, elementary(n, i, j, draw(scalars)))
    ds = [draw(st.builds(F, st.integers(1, BIG), st.integers(1, BIG)))
          for _ in range(n - 1)]
    D = [F(1) / math.prod(ds, start=F(1))] + ds
    return frac_mul(M, tuple(tuple(D[i] if i == j else F(0) for j in range(n))
                             for i in range(n)))


@given(st.integers(2, 4).flatmap(lambda n: sl_rows(n)))
@settings(max_examples=40, deadline=None)
def test_sl_validation_accepts_det_one_and_rejects_others(M):
    g = GroupElement(M, sl(len(M)))
    assert g.matrix == M
    bad = (tuple(2 * x for x in M[0]),) + M[1:]
    with pytest.raises(PreconditionError, match="determinant is 2"):
        GroupElement(bad, sl(len(M)))


@given(st.integers(2, 4).flatmap(lambda n: sl_rows(n)))
@settings(max_examples=40, deadline=None)
def test_sl_inverse_matches_fraction_oracle(M):
    # the inverse is computed on the integer form and stays in it
    g = GroupElement(M, sl(len(M)))
    h = g.inv()
    assert h.matrix == frac_inv(M)
    assert (h._m, h._den) == ratio_form(frac_inv(M))
    assert g @ h == h @ g == unchecked(frac_mul(M, frac_inv(M)))


@pytest.mark.parametrize("A", [
    ((0, 1), (-1, 0)),
    ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
    ((1, 1, 0), (1, 1, 1), (0, 1, 1)),  # zero pivot after the first step
    ((F(1, 2), F(1, 3), 0), (F(1, 2), F(1, 3), F(1, 5)), (0, 7, F(-2, 9))),
])
def test_inverse_with_zero_pivots(A):
    assert unchecked(A).inv().matrix == frac_inv(A)


def test_inverse_of_a_singular_matrix_is_refused():
    with pytest.raises(ZeroDivisionError):
        unchecked(((1, 2), (2, 4))).inv()


FORM = (F(1, 2), F(3), F(-2, 5), F(-7))


def so_form_element(S):
    """Cayley transform (I - X)^-1 (I + X) of X = J^-1 S, S skew: an
    element of SO(J) for the diagonal form J of FORM."""
    n = len(FORM)
    X = [[S[i][j] / FORM[i] for j in range(n)] for i in range(n)]
    plus = tuple(tuple(int(i == j) + X[i][j] for j in range(n)) for i in range(n))
    minus = tuple(tuple(int(i == j) - X[i][j] for j in range(n)) for i in range(n))
    return frac_mul(inverse(minus), plus)


@given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=7),
                min_size=6, max_size=6))
@settings(max_examples=40, deadline=None)
def test_so22_validation_with_non_unit_form(upper):
    n = len(FORM)
    S = [[F(0)] * n for _ in range(n)]
    for (i, j), x in zip(itertools.combinations(range(n), 2), upper):
        S[i][j], S[j][i] = x, -x
    if frac_det([[FORM[i] * (i == j) - S[i][j] for j in range(n)]
                 for i in range(n)]) == 0:
        return
    M = so_form_element(S)
    group = indefinite_orthogonal(2, 2, REAL, form=FORM)
    g = GroupElement(M, group)
    assert g.matrix == M
    assert g.inv().matrix == frac_inv(M)
    # determinant 1 but the form is not preserved
    scale = tuple(tuple(F(2) if i == j == 0 else F(1, 2) if i == j == 2
                        else F(int(i == j)) for j in range(n))
                  for i in range(n))
    with pytest.raises(PreconditionError, match="form"):
        GroupElement(frac_mul(M, scale), group)


# -- floats ----------------------------------------------------------------

def oracle_floats(A):
    return np.array([[float(F(x)) for x in row] for row in A])


@given(invertible())
@settings(max_examples=80, deadline=None)
def test_floats_are_bit_identical_to_fraction_floats(A):
    got = to_float_array(unchecked(A))
    assert got.tobytes() == oracle_floats(A).tobytes()


def test_floats_past_2_53_are_correctly_rounded():
    # numpy would round numerator and denominator separately: here the
    # quotient of the two rounded doubles is one ulp off
    num, den = 2 ** 70 + 12345, 10 ** 17 + 3
    assert float(num) / float(den) != float(F(num, den))
    A = ((F(num, den), 0), (0, F(den, num)))
    got = to_float_array(unchecked(A))
    assert got.tobytes() == oracle_floats(A).tobytes()


# -- p-adic Cartan projection against minors ------------------------------

def valuation(x, p):
    x = F(x)
    v, a, b = 0, x.numerator, x.denominator
    while a % p == 0:
        a //= p
        v += 1
    while b % p == 0:
        b //= p
        v -= 1
    return v


def minor_valuation_sums(M, p):
    """[min over k x k minors of v(minor)] for k = 1..n, by sympy."""
    n = len(M)
    S = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                      for row in M])
    out = []
    for k in range(1, n + 1):
        vals = []
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(n), k):
                m = S.extract(list(rows), list(cols)).det()
                if m != 0:
                    vals.append(valuation(F(int(m.p), int(m.q)), p))
        out.append(min(vals))
    return out


def padic_scalars(p):
    return st.builds(lambda a, b, k: F(a, b) * F(p) ** k, st.integers(-60, 60),
                     st.integers(1, 60), st.integers(-3, 3))


@st.composite
def padic_case(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.sampled_from([2, 3]))
    M = tuple(tuple(F(int(i == j)) for j in range(n)) for i in range(n))
    for _ in range(draw(st.integers(1, 6))):
        i, j = draw(st.sampled_from(
            [(i, j) for i in range(n) for j in range(n) if i != j]))
        M = frac_mul(M, elementary(n, i, j, draw(padic_scalars(p))))
        k = draw(st.integers(-2, 2))
        D = tuple(tuple((F(p) ** k if r == 0 else F(p) ** -k if r == n - 1
                         else F(1)) if r == c else F(0) for c in range(n))
                  for r in range(n))
        M = frac_mul(M, D)
    return p, M


@given(padic_case())
@settings(max_examples=120, deadline=None)
def test_cartan_padic_matches_minor_valuations(case):
    p, M = case
    n = len(M)
    mu = cartan_padic(GroupElement(M, special_linear(n, padic(p)))).coords
    sums = minor_valuation_sums(M, p)
    # the k largest coordinates are minus the k smallest invariant factors
    for k in range(1, n + 1):
        assert sum(mu[:k]) == -sums[k - 1]
    assert list(mu) == sorted(mu, reverse=True)


@given(st.sampled_from([2, 3, 5]).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(2, 3).flatmap(
        lambda n: st.lists(st.lists(padic_scalars(p), min_size=n, max_size=n),
                           min_size=n, max_size=n)))))
@settings(max_examples=80, deadline=None)
def test_invariant_factor_valuations_match_minors(case):
    p, M = case
    if frac_det(M) == 0:
        return
    vals = invariant_factor_valuations(M, p)
    sums = minor_valuation_sums(M, p)
    assert vals == sorted(vals)
    assert [sum(vals[:k]) for k in range(1, len(M) + 1)] == sums
