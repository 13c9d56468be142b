"""Exact dense linear algebra over Fraction and quadratic-field scalars.

Matrices are tuples of tuples of exact scalars (Fraction, int, or
QuadElement).  Everything here is plain Gaussian elimination over a
field: pivots are exact, divisions are exact, no tolerance anywhere.
Sizes are desk scale (n <= 8 or so), so O(n^3) with big rationals is
plenty.

One Gauss-Jordan kernel, ``_rref``, serves ``inverse``, ``rank``,
``nullspace`` and ``solve``; ``EchelonSpan`` keeps a span reduced so
that membership tests and incremental growth need no fresh
elimination.  ``det`` keeps its own forward elimination: it needs no
back substitution and no pivot scaling, and routing it through the
kernel roughly doubles its cost on the small matrices of the Cartan
and proximal paths.  ``charpoly`` is Faddeev-LeVerrier, not elimination.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import as_exact


def mat_from_rows(rows):
    return tuple(tuple(as_exact(x) for x in row) for row in rows)


def identity(n, one=Fraction(1)):
    zero = one - one
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def mat_mul(A, B):
    n, k = len(A), len(B)
    m = len(B[0])
    return tuple(
        tuple(sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )


def mat_vec(A, v):
    return tuple(sum(A[i][j] * v[j] for j in range(len(v))) for i in range(len(A)))


def mat_add(A, B):
    return tuple(
        tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B)
    )


def mat_sub(A, B):
    return tuple(
        tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B)
    )


def mat_scale(c, A):
    return tuple(tuple(c * x for x in row) for row in A)


def transpose(A):
    return tuple(zip(*A))


def mat_eq(A, B):
    return all(
        all(x == y for x, y in zip(ra, rb)) for ra, rb in zip(A, B)
    )


def mat_trace(A):
    t = A[0][0]
    for i in range(1, len(A)):
        t = t + A[i][i]
    return t


def _zero_of(A):
    x = A[0][0]
    return x - x


def det(A):
    """Determinant by fraction-free-ish Gaussian elimination (exact)."""
    n = len(A)
    M = [list(row) for row in A]
    zero = _zero_of(A)
    result_sign = 1
    d = zero + 1
    for k in range(n):
        pivot_row = None
        for i in range(k, n):
            if M[i][k] != zero:
                pivot_row = i
                break
        if pivot_row is None:
            return zero
        if pivot_row != k:
            M[k], M[pivot_row] = M[pivot_row], M[k]
            result_sign = -result_sign
        piv = M[k][k]
        d = d * piv
        for i in range(k + 1, n):
            f = M[i][k] / piv
            if f != zero:
                for j in range(k, n):
                    M[i][j] = M[i][j] - f * M[k][j]
    return d if result_sign == 1 else -d


def _rref(M, ncols):
    """Gauss-Jordan on the first ncols columns of the row list M, in place.

    Pivot rows are scaled to 1 and moved to the top in order; every
    other entry of a pivot column is cleared, trailing columns included.
    Returns the pivot columns.
    """
    zero = _zero_of(M)
    nrows = len(M)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        for i in range(r, nrows):
            if M[i][c] != zero:
                break
        else:
            continue
        row, M[i] = M[i], M[r]
        piv = row[c]
        M[r] = row = [x / piv for x in row]
        for i in range(nrows):
            f = M[i][c]
            if i != r and f != zero:
                M[i] = [x - f * y for x, y in zip(M[i], row)]
        pivots.append(c)
    return pivots


def inverse(A):
    n = len(A)
    zero = _zero_of(A)
    one = zero + 1
    M = [list(row) + [one if i == j else zero for j in range(n)]
         for i, row in enumerate(A)]
    if len(_rref(M, n)) < n:
        raise ZeroDivisionError("singular matrix")
    return tuple(tuple(row[n:]) for row in M)


def rank(A):
    if not A:
        return 0
    return len(_rref([list(row) for row in A], len(A[0])))


def nullspace(A):
    """Basis of the right kernel (list of tuples), exact."""
    if not A:
        return []
    zero = _zero_of(A)
    M = [list(row) for row in A]
    ncols = len(M[0])
    pivots = _rref(M, ncols)
    basis = []
    for fc in [c for c in range(ncols) if c not in pivots]:
        v = [zero] * ncols
        v[fc] = zero + 1
        for i, pc in enumerate(pivots):
            v[pc] = -M[i][fc]
        basis.append(tuple(v))
    return basis


def solve(A, b):
    """One exact solution of A x = b, or None if inconsistent."""
    zero = _zero_of(A)
    M = [list(row) + [bv] for row, bv in zip(A, b)]
    ncols = len(A[0])
    pivots = _rref(M, ncols)
    if any(row[ncols] != zero for row in M[len(pivots):]):
        return None
    x = [zero] * ncols
    for i, c in enumerate(pivots):
        x[c] = M[i][ncols]
    return tuple(x)


def charpoly(A):
    """Coefficients [c_0, ..., c_n] of det(X*I - A), exact.

    Faddeev-LeVerrier: the only divisions are by the step index, which
    Fractions and quadratic elements both support exactly.
    """
    n = len(A)
    zero = _zero_of(A)
    one = zero + 1
    coeffs = [zero] * (n + 1)
    coeffs[n] = one
    M = identity(n, one)
    for k in range(1, n + 1):
        M = mat_mul(A, M)
        c = -mat_trace(M) / k
        coeffs[n - k] = c
        M = mat_add(M, mat_scale(c, identity(n, one)))
    return coeffs


class EchelonSpan:
    """Exact span of vectors, kept as rows in reduced echelon form.

    Each stored row has a 1 in its own pivot column and a 0 in every
    other row's pivot column, so testing a vector is one pass of
    subtractions, and adding one keeps the form by clearing one column.
    """

    def __init__(self, vectors=()):
        self.rows = []
        self.pivots = []
        for v in vectors:
            self.add(v)

    def _reduce(self, v, zero):
        w = list(v)
        for row, c in zip(self.rows, self.pivots):
            f = w[c]
            if f != zero:
                w = [x - f * y for x, y in zip(w, row)]
        return w

    def contains(self, v) -> bool:
        zero = v[0] - v[0]
        return all(x == zero for x in self._reduce(v, zero))

    def add(self, v) -> bool:
        """Adjoin v; True iff it enlarged the span."""
        zero = v[0] - v[0]
        w = self._reduce(v, zero)
        c = next((j for j, x in enumerate(w) if x != zero), None)
        if c is None:
            return False
        piv = w[c]
        w = [x / piv for x in w]
        for i, row in enumerate(self.rows):
            f = row[c]
            if f != zero:
                self.rows[i] = [x - f * y for x, y in zip(row, w)]
        self.rows.append(w)
        self.pivots.append(c)
        return True


def in_span(vectors, v):
    """Whether v lies in the exact span of the given vectors."""
    return EchelonSpan(vectors).contains(v)
