"""Exact dense linear algebra over Fraction and quadratic-field scalars.

Matrices are tuples of tuples of exact scalars (Fraction, int, or
QuadElement).  Everything here is exact: pivots are exact, divisions
are exact, no tolerance anywhere, and plain int input gives Fractions,
never floats.  Sizes are desk scale (n <= 8 or so).

A rational matrix (Fraction or int entries) has one canonical integer
form, ``ratio_form``: (N, d) with the matrix equal to N / d, N a tuple
of integer rows, d > 0 and gcd(d, N) = 1; ``ratio_normal`` restores it
after a product.  Every exact group element is stored so (``field_form``),
one over Q(sqrt r) as the (N, d) of its block form [[A, r B], [B, A]]:
an injective ring homomorphism, so the integer kernels serve it as they
are.  A Fraction operation normalises by a gcd on every multiply and add,
so the kernels below work on Python ints wherever the entries are
rational, and build one normalised Fraction per result entry at the end.
Which path runs depends only on the types of the entries; on QuadElement
entries the same loops run on the field elements, with ``/`` where the
integers use ``//``.

Which kernel serves which routine:

* ``mat_mul``: integer dot products of the two ``ratio_form``s, over
  d1 * d2; the generic sum of products for QuadElement entries.  The
  same, over a word ball's level at once: ``stack_products``.
* ``stack_minors`` (division-free Laplace expansion over a whole stack):
  ``det``, on N then divided by d**n, or on the field entries; the
  determinant test of ``GroupElement`` validation, over a stack of
  integer N; the compound matrix of ``cartan.wedge_norm_log``.
* ``_gauss_jordan`` (fraction-free Gauss-Jordan elimination, after
  Bareiss, Math. Comp. 1968): ``inverse``, ``rank``, ``nullspace``, ``solve`` and
  ``ratio_inverse``, the SL_n inverse of an integer N / d.  Rational
  rows run as their ``primitive`` integer multiples.  Scaling a row
  leaves the row space, and so the unique reduced echelon form, as it
  was; every returned value is that of the reduced form.
* ``EchelonSpan``: ``in_span`` and the incremental span tests.
* ``charpoly`` is Faddeev-LeVerrier, not elimination.

``EchelonSpan`` keeps a span in echelon form, so membership tests and
incremental growth need no fresh elimination.  A span test does not
change when a vector is scaled, so it works on the ``primitive``
representative of each line: a rational vector becomes its primitive
integer multiple, and a row step is the fraction-free w = p*w - f*row
on Python ints followed by a division by the gcd.  Vectors with a
QuadElement entry go through the same loop; for them ``primitive`` is
the field step, a division by the leading entry.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial, reduce
from itertools import chain, combinations, compress, repeat
from operator import add, attrgetter, floordiv, mul, neg, sub, truediv

from .errors import PreconditionError
from .fields import QuadElement, as_exact

_ZERO = Fraction(0)
_INT_TYPES = frozenset((int,))
_RATIONAL_TYPES = frozenset((int, bool, Fraction))
_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


def mat_from_rows(rows):
    return tuple(tuple(as_exact(x) for x in row) for row in rows)


def identity(n, one=Fraction(1)):
    zero = one - one
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def ratio_form(rows):
    """The canonical (N, d) of a rational matrix, or None if some entry
    is not an int or a Fraction."""
    if not set(map(type, chain.from_iterable(rows))) <= _RATIONAL_TYPES:
        return None
    d = math.lcm(*map(_denominator, chain.from_iterable(rows)))
    if d == 1:
        return tuple(tuple(map(_numerator, row)) for row in rows), 1
    return tuple(
        tuple(x.numerator * (d // x.denominator) for x in row) for row in rows
    ), d


def field_form(rows, r=None):
    """The canonical (N, d) an exact matrix is stored as: that of the matrix
    over Q (r None), that of its block form [[A, r B], [B, A]] over
    Q(sqrt r), whose gcd(d, A, B) = 1 makes it a unique key; None if an
    entry is a float or a complex.  An irrational entry outside Q(sqrt r)
    (or any, for r None) is a PreconditionError."""
    for x in chain.from_iterable(rows):
        if type(x) is QuadElement and x.b and x.r != r:
            raise PreconditionError(f"entry {x} lies in Q(sqrt({x.r})), not in the group's field")
    A = [[x.a if type(x) is QuadElement else x for x in row] for row in rows]
    ratio = ratio_form(A if r is None else A + [
        [x.b if type(x) is QuadElement else 0 for x in row] for row in rows])
    if ratio is None or r is None:
        return ratio
    (N, d), n = ratio, len(rows)
    return (tuple((*a, *(r * x for x in b)) for a, b in zip(N[:n], N[n:]))
            + tuple((*b, *a) for a, b in zip(N[:n], N[n:]))), d


def field_rows(N, d, r=None):
    """The matrix whose ``field_form`` is (N, d), over Q(sqrt r) with A and
    B read off the left blocks: rational entries Fractions, others
    QuadElements, as ``serialize`` reads them."""
    if r is None:
        return tuple(tuple(Fraction(x, d) for x in row) for row in N)
    n = len(N) // 2
    return tuple(tuple(QuadElement(Fraction(a, d), Fraction(b, d), r) if b else Fraction(a, d)
                       for a, b in zip(N[i], N[n + i][:n])) for i in range(n))


def ratio_normal(N, d):
    """The canonical (N, d) of N / d, for any integer d != 0."""
    if d < 0:
        N, d = tuple(tuple(-x for x in row) for row in N), -d
    g = math.gcd(d, *chain.from_iterable(N))
    if g > 1:
        N, d = tuple(tuple(x // g for x in row) for row in N), d // g
    return N, d


def ratio_normal_stack(N, d):
    """``ratio_normal`` of a whole stack: N lists one entry of every
    matrix per list, d their d > 0; one gcd per matrix."""
    g = list(map(math.gcd, d, *N))
    if g.count(1) != len(g):
        N = [list(map(floordiv, col, g)) for col in N]
        d = list(map(floordiv, d, g))
    return N, d


def ratio_inverse(N, d):
    """The canonical (N', d') of (N / d)^-1, for an invertible integer N.

    ``_gauss_jordan`` on [N | I], whose rows are already primitive, ends
    with D I on the left, so the right half is D N^-1; then
    (N / d)^-1 = d (D N^-1) / D.
    """
    n = len(N)
    M, pivots, D = _gauss_jordan(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(N)], n)
    if len(pivots) < n:
        raise ZeroDivisionError("singular matrix")
    return ratio_normal(tuple(tuple(d * x for x in row[n:]) for row in M), D)


def int_mat_mul(A, B):
    """Product of two integer matrices given as tuples of rows."""
    cols = tuple(zip(*B))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in A)


def stack_products(keys, gens, pairs):
    """The key of keys[t] times letter gens[l] for each (t, l) of pairs,
    in order; every key is a canonical (N, d).  Entry (r, c) of the
    matrices a letter multiplies is one list, so each product entry is a
    sum of a few ``map(mul)``, zero letter entries skipped."""
    n = len(gens[0][0])
    cols = list(zip(*(chain.from_iterable(N) for N, _ in keys)))
    dens = [d for _, d in keys]
    masks = [[False] * len(keys) for _ in gens]
    for t, l in pairs:
        masks[l][t] = True
    out, d_out, at = [[] for _ in cols], [], []
    for (L, dl), mask in zip(gens, masks):
        sub = [list(compress(col, mask)) for col in cols]
        for e, col in enumerate(out):  # e = r n + c
            col += reduce(partial(map, add), [
                map(mul, sub[e - e % n + t], repeat(x))
                for t, x in enumerate(row[e % n] for row in L) if x])
        d_out += map(mul, compress(dens, mask), repeat(dl))
        at += compress(range(len(keys)), mask)  # a stable sort by t gives (t, l) order
    out, d_out = ratio_normal_stack(out, d_out)
    prods = list(zip(zip(*(zip(*out[r * n:r * n + n]) for r in range(n))), d_out))
    return [prods[i] for i in sorted(range(len(at)), key=at.__getitem__)]


def mat_mul(A, B):
    a, b = ratio_form(A), ratio_form(B)
    if a and b:
        d = a[1] * b[1]
        return tuple(
            tuple(Fraction(x, d) if x else _ZERO for x in row)
            for row in int_mat_mul(a[0], b[0])
        )
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


def stack_minors(E, k):
    """Every k x k minor of every matrix of a stack given entrywise:
    E[r][c] lists entry (r, c) of each matrix.  Returns a dict from
    (rows, cols), two increasing k-tuples, to that minor over the stack.

    No division: level j turns the (j-1)-minors into the j-minors by
    Laplace expansion along their last row, each product and sum taken
    over the whole stack at once.  A k-minor reaches only the j-subsets
    of rows 0..n-k+j-1, so only those are expanded; for det (k = n) each
    level has one row subset, n 2^(n-1) products per matrix in all.
    Ints, Fractions, QuadElements, floats and complex numbers all run as
    they are.
    """
    n = len(E)
    minors = {(r,): {(c,): x for c, x in enumerate(E[r])} for r in range(n - k + 1)}
    for j in range(2, k + 1):
        below = {}
        for rows in combinations(range(n - k + j), j):
            row, above, out = E[rows[-1]], minors[rows[:-1]], {}
            for cols in combinations(range(n), j):
                terms = [map(mul, row[c], above[cols[:t] + cols[t + 1:]])
                         for t, c in enumerate(cols)]
                acc = terms[0] if j % 2 else map(neg, terms[0])
                for t, term in enumerate(terms[1:], 1):
                    acc = map(add if (j + t) % 2 else sub, acc, term)
                out[cols] = list(acc)
            below[rows] = out
        minors = below
    return {(rows, cols): m for rows, out in minors.items() for cols, m in out.items()}


def det(A):
    """Determinant (exact), ``stack_minors`` on a stack of one: on N for
    a rational N / d, then over d**n; on the field entries otherwise."""
    n, r = len(A), ratio_form(A)
    rows = r[0] if r else [[as_exact(x) for x in row] for row in A]
    [[x]] = stack_minors([[[y] for y in row] for row in rows], n).values()
    return Fraction(x, r[1] ** n) if r else x


def _gauss_jordan(M, ncols):
    """Fraction-free Gauss-Jordan on the first ncols columns of the rows
    M, which are left as they are.

    Returns (rows, pivots, D): the pivot rows first, in order; every
    pivot column zero but for D in its own row; trailing columns carried
    along.  The reduced echelon form is rows / D (``_divided``).

    Rational rows run as their ``primitive`` integer multiples, which
    leaves the row space and so the reduced form unchanged, with exact
    ``//``; rows with a QuadElement run on ``as_exact`` entries with
    ``/``.  Step k replaces every other row by (p*row - f*pivot_row) /
    prev, with p the new pivot, f the row's entry in its column and prev
    the last pivot: every entry is then a minor of the input, so the
    division is exact and the pivot rows all end with D = p (Bareiss,
    Math. Comp. 1968).
    """
    if set(map(type, chain.from_iterable(M))) <= _RATIONAL_TYPES:
        M, div = [primitive(row) for row in M], floordiv
    else:
        M, div = [[as_exact(x) for x in row] for row in M], truediv
    nrows = len(M)
    pivots, prev = [], 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        i = next((i for i in range(r, nrows) if M[i][c]), None)
        if i is None:
            continue
        M[r], M[i] = M[i], M[r]
        rk = M[r]
        p = rk[c]
        for i, ri in enumerate(M):
            if i != r:
                f = ri[c]
                M[i] = [div(x * p - f * y, prev) for x, y in zip(ri, rk)]
        prev = p
        pivots.append(c)
    return M, pivots, prev


def _divided(x, D):
    """x / D for an entry x of a ``_gauss_jordan`` result."""
    return Fraction(x, D) if type(x) is int else x / D


def inverse(A):
    n = len(A)
    M, pivots, D = _gauss_jordan(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(A)], n)
    if len(pivots) < n:
        raise ZeroDivisionError("singular matrix")
    return tuple(tuple(_divided(x, D) for x in row[n:]) for row in M)


def rank(A):
    if not A:
        return 0
    return len(_gauss_jordan(A, len(A[0]))[1])


def nullspace(A):
    """Basis of the right kernel (list of tuples), exact."""
    if not A:
        return []
    ncols = len(A[0])
    M, pivots, D = _gauss_jordan(A, ncols)
    zero = as_exact(_zero_of(A))
    basis = []
    for fc in [c for c in range(ncols) if c not in pivots]:
        v = [zero] * ncols
        v[fc] = zero + 1
        for row, pc in zip(M, pivots):
            v[pc] = _divided(-row[fc], D)
        basis.append(tuple(v))
    return basis


def solve(A, b):
    """One exact solution of A x = b, or None if inconsistent."""
    ncols = len(A[0])
    M, pivots, D = _gauss_jordan([list(row) + [bv] for row, bv in zip(A, b)], ncols)
    if any(row[ncols] for row in M[len(pivots):]):
        return None
    x = [as_exact(_zero_of(A))] * ncols
    for row, c in zip(M, pivots):
        x[c] = _divided(row[ncols], D)
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


def primitive(v):
    """The representative of v's line that the span tests work on.

    A rational vector (Fraction or int entries) becomes its primitive
    integer multiple: the entries times the lcm of their denominators,
    divided by their gcd.  A vector with a QuadElement entry is divided
    by its first nonzero entry.  A zero vector is returned as it is.
    Membership, independence, orthogonality and the form equation are
    all unchanged when a vector is scaled, so they may run on this
    representative.
    """
    types = set(map(type, v))
    if types <= _RATIONAL_TYPES:
        w = v if types <= _INT_TYPES else ratio_form([v])[0][0]
        g = math.gcd(*w)
        return tuple(x // g for x in w) if g > 1 else tuple(w)
    piv = next((x for x in v if x), None)
    if piv is None:
        return tuple(v)
    return tuple(x / piv for x in v)


class EchelonSpan:
    """Exact span of vectors, kept as rows in echelon form.

    Rows are stored through ``primitive``: rational rows as primitive
    integer vectors, rows with a QuadElement entry scaled to a leading
    1.  Each row is zero in the pivot columns of the rows stored before
    it, so one pass over the rows in order clears every pivot column of
    a vector; the vector lies in the span iff nothing is left.  A pass
    step is fraction-free, w = p*w - f*row with p the row's pivot entry
    and f the vector's entry in that column, followed by ``primitive``:
    on integers that divides by the gcd and keeps the entries small, and
    over Q(sqrt r) it is the field step.  Adding a vector stores what
    the pass leaves of it, with no other row touched.
    """

    def __init__(self, vectors=()):
        self.rows = []
        self.pivots = []
        for v in vectors:
            self.add(v)

    def _reduce(self, v):
        w = primitive(v)
        for row, c in zip(self.rows, self.pivots):
            f = w[c]
            if f:
                p = row[c]
                w = primitive([p * x - f * y for x, y in zip(w, row)])
        return w

    def contains(self, v) -> bool:
        return not any(self._reduce(v))

    def copy(self):  # the same rows, grown apart from this span
        out = EchelonSpan()
        out.rows, out.pivots = list(self.rows), list(self.pivots)
        return out

    def add(self, v) -> bool:
        """Adjoin v; True iff it enlarged the span."""
        w = self._reduce(v)
        c = next((j for j, x in enumerate(w) if x), None)
        if c is None:
            return False
        self.rows.append(w)
        self.pivots.append(c)
        return True


def in_span(vectors, v):
    """Whether v lies in the exact span of the given vectors."""
    return EchelonSpan(vectors).contains(v)
