"""Exact linear algebra against sympy's exact Matrix over Q as the oracle."""

import math
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanlab.exact import (
    EchelonSpan,
    det,
    identity,
    in_span,
    inverse,
    mat_mul,
    mat_vec,
    nullspace,
    primitive,
    rank,
    solve,
)
from cartanlab.fields import QuadElement

# plain ints too: an int / int division in the kernel would give a float
ints = st.integers(-4, 4)
entries = st.one_of(st.fractions(min_value=-4, max_value=4, max_denominator=3),
                    ints)


@st.composite
def matrices(draw, rows=None, cols=None):
    """Small rational matrices, some of plain ints only; about half are
    products of thinner factors, so rank-deficient ones are common."""
    n = rows if rows is not None else draw(st.integers(1, 5))
    m = cols if cols is not None else draw(st.integers(1, 5))
    elements = draw(st.sampled_from((entries, ints)))
    if draw(st.booleans()):
        k = draw(st.integers(0, min(n, m)))
        L = [[draw(elements) for _ in range(k)] for _ in range(n)]
        R = [[draw(elements) for _ in range(m)] for _ in range(k)]
        return tuple(
            tuple(sum(L[i][t] * R[t][j] for t in range(k)) for j in range(m))
            for i in range(n)
        )
    return tuple(tuple(draw(elements) for _ in range(m)) for _ in range(n))


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 5))
    return draw(matrices(rows=n, cols=n))


def to_sympy(A):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in row] for row in A])


def oracle_rank(rows):
    return to_sympy(rows).rank() if rows else 0


def from_sympy(x):
    return F(int(x.p), int(x.q))


def is_zero_vector(v):
    return all(x == 0 for x in v)


@given(A=matrices())
@settings(max_examples=50, deadline=None)
def test_rank_matches_oracle(A):
    assert rank(A) == to_sympy(A).rank()


@given(A=square_matrices())
@settings(max_examples=50, deadline=None)
def test_det_matches_oracle(A):
    assert det(A) == from_sympy(to_sympy(A).det())


# the integer kernels of mat_mul and det see ints, Fractions, zeros and
# numerators and denominators past 2**64 side by side
kernel_entries = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    entries,
    st.integers(-2**80, 2**80),
    st.builds(F, st.integers(-2**80, 2**80), st.integers(1, 2**70)),
)


@st.composite
def kernel_matrices(draw, rows, cols):
    """Rows and columns are zeroed at random."""
    zero_rows = draw(st.sets(st.integers(0, rows - 1)))
    zero_cols = draw(st.sets(st.integers(0, cols - 1)))
    return tuple(
        tuple(0 if i in zero_rows or j in zero_cols else draw(kernel_entries)
              for j in range(cols))
        for i in range(rows)
    )


def is_normalised(x):
    return (type(x) is F and x.denominator > 0
            and math.gcd(x.numerator, x.denominator) == 1)


@given(data=st.data(), n=st.integers(1, 5), k=st.integers(1, 5),
       m=st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_mat_mul_matches_oracle(data, n, k, m):
    A = data.draw(kernel_matrices(n, k))
    B = data.draw(kernel_matrices(k, m))
    C = mat_mul(A, B)
    expected = to_sympy(A) * to_sympy(B)
    assert len(C) == n and all(len(row) == m for row in C)
    for i in range(n):
        for j in range(m):
            assert is_normalised(C[i][j])
            assert C[i][j] == from_sympy(expected[i, j])


@given(data=st.data(), n=st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_det_of_singular_matrices_is_zero(data, n):
    A = [list(row) for row in data.draw(kernel_matrices(n - 1, n))]
    coeffs = [data.draw(entries) for _ in A]
    A.append([sum((c * row[j] for c, row in zip(coeffs, A)), F(0))
              for j in range(n)])
    order = data.draw(st.permutations(range(n)))
    d = det(tuple(tuple(A[i]) for i in order))
    assert d == 0 and is_normalised(d)


@given(data=st.data(), n=st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_det_with_a_zero_leading_pivot_matches_oracle(data, n):
    A = [list(row) for row in data.draw(kernel_matrices(n, n))]
    A[0][0] = 0
    d = det(tuple(tuple(row) for row in A))
    assert is_normalised(d)
    assert d == from_sympy(to_sympy(A).det())


def test_det_swaps_rows_on_a_zero_pivot():
    # (0 1; 1 0) swaps at the first step, the 3x3 one at the second
    assert det(((F(0), F(1)), (F(1), F(0)))) == -1
    A = ((F(1), F(2), F(3)), (F(2), F(4), F(5)), (F(1), F(3), F(4)))
    assert det(A) == 1
    assert det(tuple(tuple(x / 7 for x in row) for row in A)) == F(1, 343)


@given(A=matrices())
@settings(max_examples=50, deadline=None)
def test_nullspace_is_a_kernel_basis(A):
    basis = nullspace(A)
    assert len(basis) == len(A[0]) - to_sympy(A).rank()
    for v in basis:
        assert is_zero_vector(mat_vec(A, v))
    if basis:
        assert rank(tuple(basis)) == len(basis)


@given(A=matrices())
@settings(max_examples=50, deadline=None)
def test_nullspace_is_sympys_basis(A):
    # the basis itself, not only its span: centralizer_in_algebra, and so
    # pick_Y and bend, read these vectors
    want = [tuple(from_sympy(x) for x in v) for v in to_sympy(A).nullspace()]
    got = nullspace(A)
    assert got == want
    assert all(type(x) is F for v in got for x in v)


def test_int_input_stays_exact():
    assert inverse(((3, 1), (1, 1))) == ((F(1, 2), F(-1, 2)), (F(-1, 2), F(3, 2)))
    assert all(type(x) is F for row in inverse(((3, 1), (1, 1))) for x in row)
    assert solve(((3, 1), (1, 1)), (1, 0)) == (F(1, 2), F(-1, 2))
    assert nullspace(((3, 6),)) == [(F(-2), F(1))]


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_rank_of_big_int_matrices(data):
    # rank 2 with entries up to 1e9: the third row is a combination of the
    # first two, which float division cannot tell
    big = st.integers(-10**9, 10**9)
    u = [data.draw(big) for _ in range(3)]
    v = [data.draw(big) for _ in range(3)]
    a, b = data.draw(st.integers(-9, 9)), data.draw(st.integers(-9, 9))
    rows = [u, v, [a * x + b * y for x, y in zip(u, v)]]
    order = data.draw(st.permutations(range(3)))
    A = tuple(tuple(rows[i]) for i in order)
    assert rank(A) == to_sympy(A).rank()


@given(A=matrices(), data=st.data())
@settings(max_examples=50, deadline=None)
def test_solve_consistent_system(A, data):
    x0 = tuple(data.draw(entries) for _ in range(len(A[0])))
    b = mat_vec(A, x0)
    x = solve(A, b)
    assert x is not None
    assert mat_vec(A, x) == b


@given(A=matrices(), data=st.data())
@settings(max_examples=50, deadline=None)
def test_solve_matches_oracle_consistency(A, data):
    b = tuple(data.draw(entries) for _ in range(len(A)))
    Ab = to_sympy(A).row_join(to_sympy(tuple((x,) for x in b)))
    consistent = Ab.rank() == to_sympy(A).rank()
    x = solve(A, b)
    assert (x is not None) == consistent
    if x is not None:
        assert mat_vec(A, x) == b


def test_solve_inconsistent_system():
    A = ((F(1), F(2)), (F(2), F(4)))
    assert solve(A, (F(1), F(3))) is None


@given(A=square_matrices())
@settings(max_examples=50, deadline=None)
def test_inverse_matches_oracle(A):
    S = to_sympy(A)
    if S.det() == 0:
        with pytest.raises(ZeroDivisionError):
            inverse(A)
    else:
        Ainv = inverse(A)
        assert Ainv == tuple(tuple(from_sympy(x) for x in S.inv().row(i))
                             for i in range(S.rows))
        assert mat_mul(A, Ainv) == identity(len(A))


@given(A=matrices(), data=st.data())
@settings(max_examples=50, deadline=None)
def test_in_span_matches_oracle(A, data):
    if data.draw(st.booleans()):
        coeffs = [data.draw(entries) for _ in A]
        v = tuple(sum((c * row[j] for c, row in zip(coeffs, A)), F(0))
                  for j in range(len(A[0])))
        assert in_span(list(A), v)
    else:
        v = tuple(data.draw(entries) for _ in range(len(A[0])))
    grows = oracle_rank(A + (v,)) > oracle_rank(A)
    assert in_span(list(A), v) == (not grows)


def test_in_span_of_nothing_is_the_zero_vector():
    assert in_span([], (F(0), F(0)))
    assert not in_span([], (F(0), F(1)))


@given(A=matrices())
@settings(max_examples=50, deadline=None)
def test_echelon_span_add_reports_rank_growth(A):
    span = EchelonSpan()
    for k, v in enumerate(A):
        assert span.add(v) == (oracle_rank(A[:k + 1]) > oracle_rank(A[:k]))
        for w in A[:k + 1]:
            assert span.contains(w)


# entries past 2**64, as ints and as Fractions, so the integer span kernel
# meets big numerators, big denominators and mixed entry types
_big = st.integers(-2**80, 2**80)
big_entries = st.one_of(
    st.just(0), st.just(F(0)), _big, st.integers(-3, 3),
    st.builds(F, _big, st.integers(1, 2**80)),
)


@st.composite
def span_inputs(draw):
    """A list of vectors of one length: fresh ones, zero vectors, repeats,
    and big combinations of earlier ones."""
    m = draw(st.integers(1, 6))
    vectors = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(("fresh", "zero", "repeat", "combination"))
                    if vectors else st.just("fresh"))
        if kind == "fresh":
            v = tuple(draw(big_entries) for _ in range(m))
        elif kind == "zero":
            v = tuple(draw(st.sampled_from((0, F(0)))) for _ in range(m))
        elif kind == "repeat":
            v = draw(st.sampled_from(vectors))
        else:
            u, w = draw(st.sampled_from(vectors)), draw(st.sampled_from(vectors))
            a, b = draw(big_entries), draw(big_entries)
            v = tuple(a * x + b * y for x, y in zip(u, w))
        vectors.append(v)
    return vectors


@given(vectors=span_inputs(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_echelon_span_big_mixed_entries_match_oracle(vectors, data):
    span = EchelonSpan()
    for k, v in enumerate(vectors):
        grows = oracle_rank(vectors[:k + 1]) > oracle_rank(vectors[:k])
        assert span.add(v) == grows
    for v in vectors:
        assert span.contains(v)
    m = len(vectors[0])
    coeffs = [data.draw(big_entries) for _ in vectors]
    inside = tuple(sum(c * v[j] for c, v in zip(coeffs, vectors))
                   for j in range(m))
    assert span.contains(inside)
    probe = tuple(data.draw(big_entries) for _ in range(m))
    grows = oracle_rank(vectors + [probe]) > oracle_rank(vectors)
    assert span.contains(probe) == (not grows)
    assert in_span(vectors, probe) == (not grows)


@given(v=st.lists(big_entries, min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_primitive_is_the_coprime_integer_multiple(v):
    w = primitive(v)
    assert len(w) == len(v)
    if not any(v):
        assert not any(w)
        return
    assert all(type(x) is int for x in w)
    assert math.gcd(*w) == 1
    # a positive multiple of v: parallel, with every sign kept
    for i in range(len(v)):
        assert w[i] * v[i] >= 0
        for j in range(len(v)):
            assert w[i] * v[j] == w[j] * v[i]


def q2(a, b=0):
    return QuadElement(F(a), F(b), 2)


def test_quadratic_inverse():
    A = ((q2(1, 1), q2(2)), (q2(0, 1), q2(1, -1)))
    one, zero = q2(1), q2(0)
    assert mat_mul(A, inverse(A)) == ((one, zero), (zero, one))
    B = ((q2(1, 1), q2(0), q2(1)), (q2(0), q2(3, -2), q2(0, 1)),
         (q2(1), q2(2), q2(0)))
    I3 = tuple(tuple(one if i == j else zero for j in range(3))
               for i in range(3))
    assert mat_mul(B, inverse(B)) == I3
    assert mat_mul(inverse(B), B) == I3


def test_quadratic_singular_inverse_raises():
    # second row is (1 + sqrt 2) times the first
    A = ((q2(1), q2(0, 1)), (q2(1, 1), q2(2, 1)))
    with pytest.raises(ZeroDivisionError):
        inverse(A)


def test_quadratic_membership():
    u = (q2(1), q2(0, 1), q2(0))
    w = (q2(0), q2(1), q2(1, 1))
    inside = tuple(q2(0, 1) * a + q2(3, -1) * b for a, b in zip(u, w))
    assert in_span([u, w], inside)
    assert not in_span([u, w], (q2(0), q2(0), q2(1)))
    # (1, sqrt 2, 0) is no multiple of (1, 1, 0) over Q(sqrt 2)
    assert not in_span([(q2(1), q2(1), q2(0))], u)
    span = EchelonSpan([u])
    assert span.add(w)
    assert not span.add(inside)
    assert span.contains(inside)


def test_rational_rows_and_quadratic_vectors_mix():
    # integer rows reduce a Q(sqrt 2) vector with the same loop
    span = EchelonSpan([(F(1), F(1), F(0)), (0, F(1, 3), F(2))])
    r2 = q2(0, 1)
    assert span.contains((r2, r2, q2(0)))
    assert span.contains((q2(1), q2(1, 1), q2(0, 6)))
    assert not span.contains((q2(1), r2, q2(0)))
    assert span.add((q2(1), r2, q2(0)))
    assert span.contains((q2(0), q2(0), q2(1)))


def test_quadratic_product_and_det_use_the_generic_loop():
    r2 = q2(0, 1)
    A = ((q2(1, 1), q2(2)), (r2, q2(1, -1)))
    B = ((q2(1), r2), (q2(0), q2(3)))
    C = mat_mul(A, B)
    assert C == ((q2(1, 1), q2(8, 1)), (r2, q2(5, -3)))
    assert all(isinstance(x, QuadElement) for row in C for x in row)
    assert det(A) == q2(-1, -2)
    # a zero first pivot, and Fractions mixed with quadratic entries
    M = ((F(0), F(1), r2), (F(1), F(0), F(0)), (r2, F(1), F(1)))
    assert det(M) == q2(-1, 1)
    assert det(((F(2), r2), (r2, F(1)))) == q2(0)


def test_quadratic_rank_nullspace_solve():
    r2 = q2(0, 1)
    # the second row is sqrt 2 times the first, the third is independent
    A = ((q2(1), r2, q2(2)), (r2, q2(2), q2(0, 2)), (q2(0), q2(1), q2(1)))
    assert rank(A) == 2
    assert rank(A[:1]) == 1 and rank(A[::2]) == 2
    # kernel: x + sqrt2 y + 2 z = 0 and y + z = 0, so (sqrt 2 - 2, -1, 1)
    assert nullspace(A) == [(q2(-2, 1), q2(-1), q2(1))]
    assert is_zero_vector(mat_vec(A, nullspace(A)[0]))
    assert solve(A, (q2(1), r2, q2(3))) == (q2(1, -3), q2(3), q2(0))
    assert solve(A, (q2(1), q2(1), q2(0))) is None
    # det B = 1, B^-1 = (3, -sqrt 2; -sqrt 2, 1)
    B = ((q2(1), r2), (r2, q2(3)))
    assert rank(B) == 2 and nullspace(B) == []
    assert solve(B, (q2(1), q2(0))) == (q2(3), q2(0, -1))
