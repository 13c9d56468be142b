"""Exact group elements stored as one integer matrix over one denominator.

The oracle is plain Fraction-tuple arithmetic written out below; the
p-adic Cartan projection is checked against minors computed by sympy:
the k smallest invariant-factor valuations of g sum to the least
valuation of a k x k minor of g.  The stacked minors kernel is checked
against sympy's minors, the stacked validation against ``frac_det`` and
the form product written out, and the SL_2 closed form over Q_p against
the Smith form.
"""

import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from cartanlab.cartan import (
    GroupDesc,
    GroupElement,
    _ratio_faults,
    _sl2_padic_mu1,
    _smith_valuations,
    cartan_padic,
    indefinite_orthogonal,
    invariant_factor_valuations,
    special_linear,
    to_float_array,
)
from cartanlab.errors import PreconditionError
from cartanlab.exact import det as exact_det
from cartanlab.exact import (field_form, field_rows, int_mat_mul, inverse, mat_eq, mat_mul,
                             ratio_form, ratio_inverse, ratio_normal, stack_minors,
                             transpose)
from cartanlab.fields import COMPLEX, REAL, QuadElement, int_valuation, padic, quadratic

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
    """det A over Fractions by Gaussian elimination (n^3 operations, where
    the Leibniz sum takes n! products), independent of ``exact.det``."""
    M = [[F(x) for x in row] for row in A]
    n, det = len(M), F(1)
    for c in range(n):
        r = next((i for i in range(c, n) if M[i][c]), None)
        if r is None:
            return F(0)
        if r != c:
            M[c], M[r], det = M[r], M[c], -det
        piv = M[c][c]
        det *= piv
        for i in range(c + 1, n):
            f = M[i][c] / piv
            if f:
                M[i] = [x - f * y for x, y in zip(M[i], M[c])]
    return det


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
    # a canonical N / d has a unit entry, so mu_1 = v_p(d)
    assert mu[0] == int_valuation(ratio_form(M)[1], p)


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


# -- SL_2 over Q_p in closed form ---------------------------------------------

@st.composite
def sl2_padic_case(draw):
    """(p, M): an element of SL_2(Q) as Fraction tuples, a product of
    elementary matrices with p-adically spread entries and diag(p^k, p^-k)."""
    p = draw(st.sampled_from([2, 3, 5]))
    M = ((F(1), F(0)), (F(0), F(1)))
    for _ in range(draw(st.integers(1, 6))):
        i = draw(st.integers(0, 1))
        M = frac_mul(M, elementary(2, i, 1 - i, draw(padic_scalars(p))))
        k = draw(st.integers(-3, 3))
        M = frac_mul(M, ((F(p) ** k, F(0)), (F(0), F(p) ** -k)))
    return p, M


@given(sl2_padic_case())
@settings(max_examples=150, deadline=None)
def test_sl2_padic_closed_form_matches_the_smith_form(case):
    p, M = case
    N, d = ratio_form(M)
    top = _sl2_padic_mu1(int_valuation(d, p), itertools.chain(*N), p)
    smith = _smith_valuations(N, d, p)
    assert (top, -top) == tuple(sorted((-w for w in smith), reverse=True))
    assert top == int_valuation(d, p)  # the closed form of a canonical N / d
    assert cartan_padic(GroupElement(M, special_linear(2, padic(p)))).coords == (top, -top)


# -- the stacked validation kernel --------------------------------------------

def _int_stack(mats):
    """The entrywise form of a stack: entry (r, c) of each matrix."""
    n = len(mats[0])
    return [[[M[r][c] for M in mats] for c in range(n)] for r in range(n)]


@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.lists(st.integers(-BIG, BIG), min_size=n, max_size=n),
             min_size=n, max_size=n), min_size=1, max_size=5)))
@settings(max_examples=80, deadline=None)
def test_stack_det_matches_bareiss(mats):
    full = tuple(range(len(mats[0])))
    dets = stack_minors(_int_stack(mats), len(full))[full, full]
    assert dets == [frac_det(M) for M in mats]
    assert all(type(x) is int for x in dets)


def _sympy_minors(M, k, domain=sympy.ZZ):
    """Every k x k minor of M, whose entries lie in the sympy domain,
    keyed as ``stack_minors`` keys them."""
    n = len(M)
    D, idx = DomainMatrix(M, (n, n), domain), list(itertools.combinations(range(n), k))
    return {(r, c): D.extract(list(r), list(c)).det() for r in idx for c in idx}


@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.lists(st.integers(-BIG, BIG), min_size=n, max_size=n),
             min_size=n, max_size=n), min_size=1, max_size=4)))
@settings(max_examples=60, deadline=None)
def test_stack_minors_match_sympy_on_big_ints(mats):
    n = len(mats[0])
    for k in range(1, n + 1):
        minors = stack_minors(_int_stack(mats), k)
        want = [_sympy_minors([[sympy.ZZ(x) for x in row] for row in M], k)
                for M in mats]
        assert minors == {key: [w[key] for w in want] for key in want[0]}
        assert all(type(x) is int for col in minors.values() for x in col)


_SMALL = st.fractions(-3, 3, max_denominator=4)
_X = sympy.Symbol("x")
_QX = sympy.QQ[_X]


def _poly(a, b):
    """a + b sqrt 2 as the polynomial a + b x of QQ[x]."""
    return _QX.from_sympy(sympy.Rational(a.numerator, a.denominator)
                          + sympy.Rational(b.numerator, b.denominator) * _X)


@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.lists(st.tuples(_SMALL, _SMALL), min_size=n, max_size=n),
             min_size=n, max_size=n), min_size=1, max_size=3)))
@settings(max_examples=40, deadline=None)
def test_stack_minors_match_sympy_over_q_sqrt_2(mats):
    n = len(mats[0])
    E = [[[QuadElement(*M[r][c], 2) for M in mats] for c in range(n)]
         for r in range(n)]
    for k in range(1, n + 1):
        minors = stack_minors(E, k)
        for m, M in enumerate(mats):
            S = [[_poly(a, b) for a, b in row] for row in M]
            for key, want in _sympy_minors(S, k, _QX).items():
                got = minors[key][m]
                assert isinstance(got, QuadElement)
                assert want % _QX.from_sympy(_X ** 2 - 2) == _poly(got.a, got.b)


def _oracle_fault(N, d, group):
    """The verdict of validation from frac_det and N^T C N written out."""
    n = len(N)
    if frac_det(N) != d ** n:
        return "determinant"
    if group.family == "SL":
        return None
    C = group._cleared_form
    gram = int_mat_mul(tuple(zip(*N)), tuple(tuple(c * x for x in row)
                                             for c, row in zip(C, N)))
    target = tuple(tuple(d * d * C[i] * (i == j) for j in range(n)) for i in range(n))
    return None if gram == target else "form"


def _verdict(fault):
    """The oracle's name of a validation message."""
    if fault is not None and fault.startswith("determinant is "):
        return "determinant"
    return {None: None, "matrix does not preserve the form": "form"}.get(fault, fault)


def _cayley(S, form):
    """(I - X)^-1 (I + X) for X = J^-1 S, S skew: an element of SO(J)."""
    n = len(form)
    X = [[S[i][j] / form[i] for j in range(n)] for i in range(n)]
    plus = tuple(tuple(int(i == j) + X[i][j] for j in range(n)) for i in range(n))
    minus = tuple(tuple(int(i == j) - X[i][j] for j in range(n)) for i in range(n))
    return frac_mul(inverse(minus), plus)


def _diag(values):
    return tuple(tuple(F(v) if i == j else F(0) for j in range(len(values)))
                 for i, v in enumerate(values))


@st.composite
def so_stack_case(draw):
    """(group, matrices): SO(p, q) or U(p, q) with rational form
    coefficients, and a mix of its elements, elements of O(p, q) with
    det -1, matrices preserving the form only up to the scalar -1 with
    det 1 (p = q), and random rational perturbations."""
    p, q = draw(st.sampled_from([(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 2)]))
    n = p + q
    pos = [draw(st.fractions(1, 5, max_denominator=4)) for _ in range(p)]
    form = tuple(pos + ([-x for x in pos] if p == q else
                        [-draw(st.fractions(1, 5, max_denominator=4))
                         for _ in range(q)]))
    family, field = draw(st.sampled_from([("SO", REAL), ("U", COMPLEX)]))
    group = GroupDesc(family, field, p=p, q=q, form=form)
    mats = []
    for _ in range(draw(st.integers(1, 6))):
        S = [[F(0)] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            x = draw(st.fractions(-3, 3, max_denominator=5))
            S[i][j], S[j][i] = x, -x
        if frac_det([[form[i] * (i == j) - S[i][j] for j in range(n)]
                     for i in range(n)]) == 0:
            continue
        M = _cayley(S, form)
        kind = draw(st.integers(0, 3))
        if kind == 1:  # O(p, q), det -1
            M = frac_mul(M, _diag([-1] + [1] * (n - 1)))
        elif kind == 2 and p == q:  # g^T J g = -J with det 1
            swap = tuple(tuple(F(int(j == (i + p) % n)) for j in range(n))
                         for i in range(n))
            M = frac_mul(M, frac_mul(swap, _diag([(-1) ** p] + [1] * (n - 1))))
        elif kind == 3:  # a perturbed entry
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            x = draw(st.fractions(-2, 2, max_denominator=3).filter(bool))
            M = tuple(tuple(y + x * ((r, c) == (i, j)) for c, y in enumerate(row))
                      for r, row in enumerate(M))
        mats.append(M)
    assume(mats)
    return group, mats


def _check_stack(group, mats):
    ratios = [ratio_form(M) for M in mats]
    faults = _ratio_faults(_int_stack([r[0] for r in ratios]),
                           [r[1] for r in ratios], group)
    expected = [_oracle_fault(*r, group) for r in ratios]
    assert [_verdict(f) for f in faults] == expected
    for M, fault in zip(mats, faults):  # validation is the stack of one
        got = None
        try:
            GroupElement(M, group)
        except PreconditionError as e:
            got = str(e)
        assert got == fault
    return expected


@given(so_stack_case())
@settings(max_examples=120, deadline=None)
def test_stack_verdicts_match_bareiss_and_the_form_product_on_so_and_u(case):
    _check_stack(*case)


@given(st.integers(2, 6).flatmap(lambda n: st.lists(
    st.tuples(sl_rows(n), st.integers(0, 2)), min_size=1, max_size=5)))
@settings(max_examples=60, deadline=None)
def test_stack_verdicts_match_bareiss_on_sl(case):
    n = len(case[0][0])
    mats = []
    for M, kind in case:
        if kind == 1:  # det 2
            M = (tuple(2 * x for x in M[0]),) + M[1:]
        elif kind == 2:  # det -1
            M = (tuple(-x for x in M[0]),) + M[1:]
        mats.append(M)
    assert _check_stack(special_linear(n, REAL), mats) == [
        [None, "determinant", "determinant"][kind] for _, kind in case]


def test_stack_verdicts_with_an_irrational_form():
    """A rational element of SO(2, 1) for the form (1, 1, -sqrt 2) is
    decided with the form itself as C, on the stack as alone."""
    q2 = quadratic(2)
    group = GroupDesc("SO", q2, p=2, q=1,
                      form=(F(1), F(1), QuadElement(0, -1, 2)))
    rotation = ((F(3, 5), F(-4, 5), F(0)), (F(4, 5), F(3, 5), F(0)),
                (F(0), F(0), F(1)))
    boost = ((F(5, 4), F(0), F(3, 4)), (F(0), F(1), F(0)),
             (F(3, 4), F(0), F(5, 4)))
    assert _group_faults(group, [rotation, boost, _diag([2, 1, F(1, 3)]),
                                 _diag([-1, -1, 1])]) == [
        None, "form", "determinant", None]


def _group_faults(group, mats):
    ratios = [ratio_form(M) for M in mats]
    return [_verdict(f) for f in _ratio_faults(
        _int_stack([r[0] for r in ratios]), [r[1] for r in ratios], group)]


# -- Q(sqrt 2): the stack kernel on the field elements ----------------------

_S2 = QuadElement(0, 1, 2)


def _q2(a, b=0):
    return QuadElement(a, b, 2)


@pytest.mark.parametrize("group, M, message", [
    (special_linear(2, quadratic(2)), [[_q2(2), 0], [0, 1]],
     "determinant is 2, not 1"),
    (special_linear(2, quadratic(2)), [[_q2(-1), 0], [0, 1]],
     "determinant is -1, not 1"),
    (indefinite_orthogonal(2, 1, quadratic(2)),
     [[_S2, 0, 0], [0, _S2 / 2, 0], [0, 0, _q2(1)]],
     "matrix does not preserve the form"),
])
def test_q_sqrt_2_refusal_messages(group, M, message):
    with pytest.raises(PreconditionError) as e:
        GroupElement(M, group)
    assert str(e.value) == message


def test_q_sqrt_2_boost_of_so21_is_valid():
    group = indefinite_orthogonal(2, 1, quadratic(2))
    boost = ((_q2(3), 0, 2 * _S2), (0, 1, 0), (2 * _S2, 0, _q2(3)))
    g = GroupElement(boost, group)
    assert g.ratio is None and g.matrix == boost
    assert g.inv() == GroupElement(((3, 0, -2 * _S2), (0, 1, 0), (-2 * _S2, 0, 3)), group)


def _deleted_route_fault(M, group):
    """The message of the per-matrix route the stack kernel replaced:
    ``exact.det``, then the Fraction product M^T J M = J."""
    if (det := exact_det(M)) != 1:
        return f"determinant is {det}, not 1"
    if group.family == "SL":
        return None
    n = len(M)
    J = tuple(tuple(group.form[i] if i == j else F(0) for j in range(n))
              for i in range(n))
    if not mat_eq(mat_mul(mat_mul(transpose(M), J), M), J):
        return "matrix does not preserve the form"
    return None


_Q2_SMALL = st.builds(_q2, st.fractions(-2, 2, max_denominator=3),
                      st.fractions(-2, 2, max_denominator=3))


@st.composite
def q_sqrt_2_stack_case(draw):
    """(group, matrices) over Q(sqrt 2): SL_2, SL_3, or SO(p, q) for the
    standard form or one with a coefficient -sqrt 2; elements of the group
    (SL rows rescaled to det 1, SO Cayley transforms), with one row
    negated, one row scaled by sqrt 2 and another by 1 / sqrt 2, or one
    entry perturbed."""
    q2 = quadratic(2)
    group = draw(st.sampled_from([
        special_linear(2, q2), special_linear(3, q2),
        GroupDesc("SO", q2, p=1, q=1), GroupDesc("SO", q2, p=2, q=1),
        GroupDesc("SO", q2, p=1, q=1, form=(F(1, 2), -_S2)),
        GroupDesc("SO", q2, p=2, q=1, form=(F(1), F(1), -_S2)),
    ]))
    n = group.size
    mats = []
    for _ in range(draw(st.integers(1, 4))):
        if group.family == "SL":
            M = [[draw(_Q2_SMALL) for _ in range(n)] for _ in range(n)]
            det = exact_det(M)
            if det == 0:
                continue
            M[0] = [x / det for x in M[0]]
        else:
            S = [[_q2(0)] * n for _ in range(n)]
            for i, j in itertools.combinations(range(n), 2):
                x = draw(_Q2_SMALL)
                S[i][j], S[j][i] = x, -x
            X = [[S[i][j] / group.form[i] for j in range(n)] for i in range(n)]
            minus = [[int(i == j) - X[i][j] for j in range(n)] for i in range(n)]
            if exact_det(minus) == 0:
                continue
            plus = [[int(i == j) + X[i][j] for j in range(n)] for i in range(n)]
            M = [list(row) for row in mat_mul(inverse(minus), plus)]
        kind = draw(st.integers(0, 3))
        if kind == 1:
            M[0] = [-x for x in M[0]]
        elif kind == 2:  # det 1 still, the form broken
            M[0] = [_S2 * x for x in M[0]]
            M[n - 1] = [x / _S2 for x in M[n - 1]]
        elif kind == 3:
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            M[i][j] = M[i][j] + draw(_Q2_SMALL)
        mats.append(tuple(map(tuple, M)))
    assume(mats)
    return group, mats


@given(q_sqrt_2_stack_case())
@settings(max_examples=60, deadline=None)
def test_stack_verdicts_over_q_sqrt_2_match_the_deleted_route(case):
    group, mats = case
    n = group.size
    E = [[[M[r][c] for M in mats] for c in range(n)] for r in range(n)]
    faults = _ratio_faults(E, [1] * len(mats), group)
    assert faults == [_deleted_route_fault(M, group) for M in mats]
    for M, fault in zip(mats, faults):  # validation is the stack of one
        got = None
        try:
            GroupElement(M, group)
        except PreconditionError as e:
            got = str(e)
        assert got == fault


@pytest.mark.parametrize("field, x", [
    (quadratic(2), QuadElement(0, 1, 3)),
    (REAL, _S2),
    (padic(2), _S2),
], ids=["sqrt3-over-Q(sqrt2)", "sqrt2-over-R", "sqrt2-over-Q2"])
def test_an_entry_outside_the_field_is_refused(field, x):
    # diag(x, 1 / x) has det 1, so only the field can refuse it
    with pytest.raises(PreconditionError, match=r"lies in Q\(sqrt\(\d\)\), not in"):
        GroupElement([[x, 0], [0, 1 / x]], special_linear(2, field))


# -- Q(sqrt r): every exact element is its block form -----------------------

_SMALL = st.fractions(-3, 3, max_denominator=4)


@st.composite
def quad_matrix(draw, r, n):
    """An n x n matrix over Q(sqrt r), about half its entries rational."""
    b = st.one_of(st.just(0), _SMALL)
    return tuple(tuple(draw(st.builds(QuadElement, _SMALL, b, st.just(r)))
                       for _ in range(n)) for _ in range(n))


@given(st.sampled_from([2, 3]), st.integers(1, 3), st.data())
@settings(max_examples=100, deadline=None)
def test_the_block_form_is_an_injective_ring_homomorphism(r, n, data):
    A, B = data.draw(quad_matrix(r, n)), data.draw(quad_matrix(r, n))
    a, b = field_form(A, r), field_form(B, r)
    assert field_rows(*a, r) == A
    assert (a == b) == (A == B)
    assert field_form(mat_mul(A, B), r) == ratio_normal(int_mat_mul(a[0], b[0]), a[1] * b[1])
    if exact_det(A):
        assert field_form(inverse(A), r) == ratio_inverse(*a)


@given(st.sampled_from([(F(1), F(1), F(-1)), (F(1, 2), F(3), F(-2))]), st.data())
@settings(max_examples=60, deadline=None)
def test_inverse_over_q_sqrt_2_with_a_rational_form(form, data):
    # a rational form has the integer shortcut g^-1 = J^-1 g^T J, but the
    # transpose of a block form is no block form
    group = indefinite_orthogonal(2, 1, quadratic(2), form=form)
    x, y, z = (data.draw(_Q2_SMALL) for _ in range(3))
    S = ((0, x, y), (-x, 0, z), (-y, -z, 0))
    X = [[S[i][j] / form[i] for j in range(3)] for i in range(3)]  # in so(J)
    minus = [[int(i == j) - X[i][j] for j in range(3)] for i in range(3)]
    assume(exact_det(minus))
    plus = [[int(i == j) + X[i][j] for j in range(3)] for i in range(3)]
    g = GroupElement(mat_mul(inverse(minus), plus), group)  # the Cayley transform
    one = GroupElement(((1, 0, 0), (0, 1, 0), (0, 0, 1)), group)
    assert g.inv() @ g == one == g @ g.inv()
    assert g.inv().matrix == inverse(g.matrix)
