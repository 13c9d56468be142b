"""Group descriptors and Cartan projections.

The Cartan projection mu sends a group element to the chamber-valued
polar part of its KAK decomposition:

* over R or C it is the sorted vector of (half-)log eigenvalues of the
  conjugate-transpose product, i.e. the log singular values;
* over Q_p (SL_n only) it is read off the invariant factors of the
  smallest p-integral rescaling of the matrix, with exact integer
  coordinates.

Both read a rational element's integer form g = N / d (``GroupElement``):
the float one as N_ij / d, the p-adic one by a fraction-free Smith
reduction of N over Z_(p) that scales rows by p-adic units, or for SL_2
by its closed form, mu = (v_p(d), -v_p(d)) for the canonical N / d.  An
element over Q(sqrt r) is stored as the N / d of its block form
[[A, r B], [B, A]] (``exact.field_form``), and the float one reads its
decoded entries.

Every exact element is validated by ``_ratio_faults``, which decides a
whole stack at once: det N = d^n by ``exact.stack_minors`` (the one
division-free minors kernel, also of ``exact.det`` and ``wedge_norm_log``)
and N^T C N = d^2 C, on Python ints for a rational N / d and on the field
elements, with d = 1, over Q(sqrt r), where the det of the block form is
the norm of det.  The loader runs it on a document's stack and the
constructor on a stack of one.

A whole set of one group's elements is projected by one kernel,
``_mu_rows``, into the rows of one (m, k) array: over R or C one
``np.linalg.svd`` of the stacked elements, with the SL completion by
det = 1 and the SO/U top-k cut and chamber clamp done on the whole array
(``_svd_rows``); over Q_p the exact integer rows.  The reports read that
array; ``cartan_batch`` wraps each row as a ``CartanVector``, and
``cartan``, ``cartan_archimedean`` and ``cartan_padic`` are its batch of
one.  What depends only on the group is computed once per ``GroupDesc``
and cached on it: the integer form coefficients of the exact form test
and of the SO/U inverse, the float form coefficients of the float form
test, and the rescaling of a non-unit form.

Coordinate conventions.  For SL_n the chamber is
{x_1 >= ... >= x_n, sum x_i = 0} (length-n coordinates).  For SO(p,q)
and U(p,q) we use the folded cone {x_1 >= ... >= x_rank >= 0} carrying
the top min(p,q) log singular values; the remaining singular values pair
off reciprocally or equal 1.  Forms with irrational diagonal
coefficients are rescaled to standard signature by the symmetric square
root of |J| before taking singular values.

The p-adic coordinates follow the descending convention
mu_i = m - w(d_{n+1-i}) (d_i the invariant factors of p^m g), which makes
mu(diag(1/p, p)) = (1, -1) and keeps ||mu|| proportional to tree
displacement for SL_2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import (chain, combinations, combinations_with_replacement, compress,
                       count, repeat)
from operator import add, mul, ne

import numpy as np

from .errors import NumericalError, PreconditionError, UnsupportedFieldError
from .exact import (field_form, field_rows, int_mat_mul, ratio_form, ratio_inverse,
                    ratio_normal, stack_minors)
from .fields import INF, FieldDesc, QuadElement, _int_content, int_valuation, real_sign

_DET_TOL = 1e-9
_FORM_TOL = 1e-9
_CHAMBER_TOL = 1e-9


def _float_entry(x):
    return float(x) if isinstance(x, (QuadElement, Fraction)) else x


def to_float_array(matrix) -> np.ndarray:
    """Dense numpy array of a GroupElement or a matrix of any scalars; a
    rational element N / d gives N_ij / d by int division, correctly
    rounded as float(Fraction) is (numpy would round N_ij and d first);
    one over Q(sqrt r) gives float() of each decoded entry."""
    if isinstance(matrix, GroupElement):
        if matrix.ratio:
            N, d = matrix.ratio
            return np.array([[x / d for x in row] for row in N], dtype=float)
        matrix = matrix.matrix
    if isinstance(matrix, np.ndarray):
        return matrix
    rows = [[_float_entry(x) for x in row] for row in matrix]
    if any(isinstance(x, complex) for row in rows for x in row):
        return np.array(rows, dtype=complex)
    return np.array(rows, dtype=float)


@dataclass(frozen=True)
class GroupDesc:
    """One of the supported matrix groups over a local field.

    family is "SL", "SO", or "U"; for SO/U the signature (p, q) and the
    diagonal form coefficients are stored (default (+1,...,+1,-1,...,-1)
    with the negatives last).
    """

    family: str
    field: FieldDesc
    n: int = 0
    p: int = 0
    q: int = 0
    form: tuple = ()

    def __post_init__(self):
        if self.family == "SL":
            if self.n < 2:
                raise PreconditionError("SL needs n >= 2")
        elif self.family in ("SO", "U"):
            if self.p < 1 or self.q < 1:
                raise PreconditionError(f"{self.family} needs p, q >= 1")
            size = self.p + self.q
            form = self.form or tuple(
                [Fraction(1)] * self.p + [Fraction(-1)] * self.q
            )
            if len(form) != size:
                raise PreconditionError("form coefficient count != matrix size")
            pos = sum(1 for c in form if real_sign(c) > 0)
            neg = sum(1 for c in form if real_sign(c) < 0)
            if pos != self.p or neg != self.q:
                raise PreconditionError(
                    f"form signature ({pos},{neg}) does not match ({self.p},{self.q})"
                )
            object.__setattr__(self, "form", form)
            if self.family == "U" and self.field.kind == "padic":
                raise UnsupportedFieldError("U(p,q) over padic fields not supported")
        else:
            raise PreconditionError(f"unknown family {self.family!r}")

    @property
    def size(self) -> int:
        return self.n if self.family == "SL" else self.p + self.q

    @property
    def rank(self) -> int:
        return self.n - 1 if self.family == "SL" else min(self.p, self.q)

    @property
    def mu_length(self) -> int:
        """Number of Cartan coordinates (n for SL, rank for SO/U)."""
        return self.n if self.family == "SL" else self.rank

    @cached_property
    def _cleared_form(self):
        """The SO/U form coefficients times the lcm of their denominators,
        a tuple of ints; None for SL or an irrational coefficient."""
        ratio = self.family != "SL" and ratio_form([self.form])
        return ratio[0][0] if ratio else None

    @cached_property
    def _float_form(self):
        """The SO/U form coefficients as one float array."""
        return to_float_array([self.form])[0]

    @cached_property
    def _rescale(self):
        """sqrt|J_ii|, which carries the SO/U form to standard signature
        before the SVD; None when every coefficient is a rational +-1."""
        if all(isinstance(c, (int, Fraction)) and abs(c) == 1 for c in self.form):
            return None
        return np.sqrt(np.abs(self._float_form))


def special_linear(n: int, field: FieldDesc) -> GroupDesc:
    return GroupDesc("SL", field, n=n)


def indefinite_orthogonal(p: int, q: int, field: FieldDesc, form=None) -> GroupDesc:
    return GroupDesc("SO", field, p=p, q=q, form=tuple(form) if form else ())


def indefinite_unitary(p: int, q: int, field: FieldDesc, form=None) -> GroupDesc:
    return GroupDesc("U", field, p=p, q=q, form=tuple(form) if form else ())


class GroupElement:
    """A matrix together with the group it is checked to belong to.

    An exact element is stored as the canonical (N, d) of
    ``exact.field_form``, of its block form over Q(sqrt r) (rational ones
    too): equality and hashing compare integer tuples, a product is
    (N1 N2, d1 d2) and one gcd pass, and ``matrix`` is decoded on each
    access.  A float element is an ndarray.

    Exact entries are validated exactly (det = 1, g^T J g = J); floating
    entries within 1e-9.  Instances are immutable; products and inverses
    return new elements.
    """

    __slots__ = ("_m", "_den", "group")

    def __init__(self, matrix, group: GroupDesc, check: bool = True):
        self.group, n = group, group.size
        rows = None if isinstance(matrix, np.ndarray) else tuple(tuple(row) for row in matrix)
        shape = matrix.shape if rows is None else (len(rows), *{len(row) for row in rows})
        if shape != (n, n):
            raise PreconditionError(f"matrix is not {n}x{n}")
        key = rows and field_form(rows, group.field.r)  # exact: N / d, d > 0
        self._m, self._den = key or (to_float_array(matrix if rows is None else rows), 0)
        if check:
            self._validate(rows)

    @classmethod
    def _ratio(cls, N, d, group: GroupDesc) -> "GroupElement":
        """The element N / d of group, unchecked; (N, d) must be canonical."""
        g = object.__new__(cls)
        g._m, g._den, g.group = N, d, group
        return g

    @property
    def matrix(self):
        """Tuples of Fraction (rational) and QuadElement, or an ndarray."""
        return field_rows(self._m, self._den, self.group.field.r) if self._den else self._m

    @property
    def ratio(self):
        """The canonical (N, d) of an exact element not over Q(sqrt r), None
        for any other."""
        return (self._m, self._den) if self._den and self.group.field.r is None else None

    @property
    def is_exact(self) -> bool:
        return self._den > 0

    def _validate(self, rows):
        g = self.group
        if self.is_exact:  # the stack kernel, on a stack of one
            # over Q(sqrt r) on the field elements: det of a block form is a norm
            N, d = self.ratio or ratio_form(rows) or (self.matrix, 1)
            fault = _ratio_faults([[[x] for x in row] for row in N], [d], g)[0]
            if fault:
                raise PreconditionError(fault)
        else:
            a = self._m
            if not np.all(np.isfinite(a)):
                raise NumericalError("non-finite matrix entries")
            top = float(np.abs(a).max())
            try:
                det_scale = top ** g.size  # size >= 2: top ** 2 is finite too
            except OverflowError:
                raise NumericalError(
                    f"entries up to {top:g} are too large to validate") from None
            d = np.linalg.det(a)
            if abs(d - 1) > _DET_TOL * max(1.0, det_scale):
                raise PreconditionError(f"determinant {d} is not 1 within tolerance")
            if g.family in ("SO", "U"):
                J = np.diag(g._float_form)
                lhs = a.conj().T @ J @ a if g.family == "U" else a.T @ J @ a
                if np.abs(lhs - J).max() > _FORM_TOL * max(1.0, top ** 2):
                    raise PreconditionError("matrix does not preserve the form")

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        if self._den and other._den:
            N, d = ratio_normal(int_mat_mul(self._m, other._m), self._den * other._den)
            return GroupElement._ratio(N, d, self.group)
        return GroupElement(
            to_float_array(self) @ to_float_array(other), self.group, check=False
        )

    def inv(self) -> "GroupElement":
        c = self.ratio and self.group._cleared_form
        if c:  # not on a block form, whose transpose is no block form
            # g^-1 = J^-1 g^T J, with J cleared to the integer diagonal c
            L = math.lcm(*c)
            N = tuple(tuple((L // ci) * cj * x for cj, x in zip(c, col))
                      for ci, col in zip(c, zip(*self._m)))
            return GroupElement._ratio(*ratio_normal(N, L * self._den), self.group)
        if self._den:
            return GroupElement._ratio(*ratio_inverse(self._m, self._den), self.group)
        try:
            return GroupElement(np.linalg.inv(self._m), self.group, check=False)
        except np.linalg.LinAlgError as e:
            raise NumericalError(f"matrix inversion failed: {e}") from e

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        if self._den and other._den:
            return self._den == other._den and self._m == other._m
        a, b = to_float_array(self), to_float_array(other)
        return bool(np.abs(a - b).max() == 0)

    def __hash__(self):
        return hash((self._m, self._den) if self._den else self._m.tobytes())

    def __repr__(self):
        return f"GroupElement({self.matrix!r})"


def _ratio_faults(E, d, group: GroupDesc) -> list:
    """For each exact matrix N / d of a stack, None if it lies in group,
    else the message its validation fails with.

    E[r][c] lists entry (r, c) of each N and d lists the d: Python ints
    with each (N, d) canonical for a rational matrix, or the entries of
    any other exact matrix with d = 1.  The whole stack is decided at
    once and exactly: det N = d^n (``stack_minors``) and, for SO and U,
    N^T C N = d^2 C, whose entry (i, j) is column i of N against C times
    column j; the product is symmetric, so only i <= j is tested.  C is
    the form cleared to an integer diagonal, or the form itself when it
    has an irrational coefficient.
    """
    n = len(E)
    (dets,) = stack_minors(E, n).values()  # the one n x n minor
    faults = [None] * len(d)
    for k in compress(count(), map(ne, dets, map(pow, d, repeat(n)))):
        x = dets[k]  # over Q, det N / d^n
        faults[k] = f"determinant is {Fraction(x, d[k] ** n) if type(x) is int else x}, not 1"
    if group.family not in ("SO", "U"):
        return faults
    c = group._cleared_form or group.form
    CE = [row if ck == 1 else [list(map(mul, repeat(ck), col)) for col in row]
          for ck, row in zip(c, E)]
    dd = list(map(mul, d, d))
    broken = set()
    for i, j in combinations_with_replacement(range(n), 2):
        gram = map(mul, CE[0][i], E[0][j])
        for k in range(1, n):
            gram = map(add, gram, map(mul, CE[k][i], E[k][j]))
        target = map(mul, dd, repeat(c[i])) if i == j else repeat(0)
        broken.update(compress(count(), map(ne, gram, target)))
    for k in broken:
        if faults[k] is None:
            faults[k] = "matrix does not preserve the form"
    return faults


@dataclass(frozen=True)
class CartanVector:
    """A point of the closed positive chamber for some group descriptor.

    SL coordinates have length n, are non-increasing and sum to zero
    (exact integers over padic fields).  SO/U coordinates have length
    rank and satisfy x_1 >= ... >= x_rank >= 0.
    """

    coords: tuple
    family: str
    exact: bool = False

    def __post_init__(self):
        xs = self.coords
        tol = 0 if self.exact else _CHAMBER_TOL
        for a, b in zip(xs, xs[1:]):
            if b - a > tol:
                raise PreconditionError(f"coordinates not sorted: {xs}")
        if self.family == "SL":
            s = sum(xs)
            if abs(s) > tol * max(1, len(xs)):
                raise PreconditionError(f"SL coordinates must sum to 0, got {s}")
        else:
            if xs and xs[-1] < -tol:
                raise PreconditionError("SO/U coordinates must be >= 0")

    def __len__(self):
        return len(self.coords)


def mu_norm(v: CartanVector) -> float:
    """Euclidean norm of the chamber coordinates (Weyl-invariant)."""
    return math.sqrt(float(sum(x * x for x in v.coords)))


def weight_pairing(i0: int, v: CartanVector) -> float:
    """Pairing of the i0-th fundamental-weight functional with v.

    For the length-n SL coordinates this is the sum of the first i0
    entries; the same partial-sum functionals are used for the folded
    SO/U chamber.
    """
    if not 1 <= i0 <= len(v.coords) - (1 if v.family == "SL" else 0):
        raise PreconditionError(f"index i0={i0} out of range for {v.coords}")
    return sum(v.coords[:i0])


def cartan_archimedean(g: GroupElement) -> CartanVector:
    """Cartan projection over R or C via singular values: ``cartan_batch``
    of the one element."""
    if not g.group.field.is_archimedean:
        raise UnsupportedFieldError("cartan_archimedean needs a real/complex field")
    return cartan_batch([g], g.group)[0]


def cartan_batch(elements, group: GroupDesc) -> list:
    """[cartan(g) for g in elements], for elements of group: one
    ``CartanVector`` per row of ``_mu_rows``."""
    exact = group.field.kind == "padic"
    return [CartanVector(tuple(row), group.family, exact)
            for row in _mu_rows(elements, group).tolist()]


def _mu_rows(elements, group: GroupDesc) -> np.ndarray:
    """The Cartan projections of elements of group as the rows of one
    (m, mu_length) array: exact integers over Q_p (``_padic_mu``).  Over R
    or C the real and the complex elements each make one float stack
    (``_float_stack``; a real element is never made complex) and take one
    stacked SVD (``_svd_rows``), which gives the bits of one per matrix."""
    elements = list(elements)
    if not elements:
        return np.empty((0, group.mu_length))
    if any(g.group is not group and g.group != group for g in elements):
        raise PreconditionError("cartan_batch takes the elements of one group")
    if group.field.kind == "padic":
        return np.array([_padic_mu(g) for g in elements], dtype=np.int64)
    is_complex = [isinstance(g._m, np.ndarray) and g._m.dtype.kind == "c" for g in elements]
    out = np.empty((len(elements), group.mu_length))
    for kind, dtype in ((False, float), (True, complex)):
        positions = [i for i, c in enumerate(is_complex) if c == kind]
        if positions:
            stack = _float_stack([elements[i] for i in positions], dtype)
            out[positions] = _svd_rows(stack, group)
    return out


def _float_stack(elements, dtype=float) -> np.ndarray:
    """``to_float_array`` of every element as one (m, n, n) stack of dtype.
    When all are rational N / d (``ratio``) with every |N_ij| and d below
    2**53, N and d are exact floats, and one division of the stacked N by
    the d gives each N_ij / d correctly rounded, as int division does;
    otherwise the stack is built element by element."""
    n = elements[0].group.size
    if all(g.ratio for g in elements):
        try:  # float() of an int past the float range overflows
            N = np.fromiter(chain.from_iterable(chain.from_iterable(
                g._m for g in elements)), float, len(elements) * n * n)
            d = np.fromiter((g._den for g in elements), float, len(elements))
            if max(np.abs(N).max(), d.max()) < 2.0 ** 53:
                return (N.reshape(-1, n * n) / d[:, None]).reshape(-1, n, n)
        except OverflowError:
            pass
    return np.array([to_float_array(g) for g in elements], dtype)


def _svd_rows(stack, group: GroupDesc) -> np.ndarray:
    """The Cartan coordinates of each matrix of a float stack of group,
    one row each: for SL the top n-1 log singular values, completed by
    det = 1 (the smallest singular value has the largest relative error,
    and a recentring by the mean would spread it into every coordinate);
    for SO/U the top rank of them (the SVD sorts them descending), with
    values within the chamber tolerance of 0 clamped to 0."""
    if not np.all(np.isfinite(stack)):
        raise NumericalError("non-finite matrix entries")
    d = group._rescale
    if d is not None:
        stack = np.diag(d) @ stack @ np.diag(1.0 / d)
    try:
        sv = np.linalg.svd(stack, compute_uv=False)
    except np.linalg.LinAlgError as e:  # pragma: no cover - numpy rarely fails here
        raise NumericalError(f"SVD failed: {e}") from e
    logs = np.log(sv)
    if group.family == "SL":  # 0.0 - s, not -s: the identity prints 0, not -0
        top = logs[:, :-1]
        return np.column_stack([top, 0.0 - top.sum(axis=1)])
    top = logs[:, :group.rank]
    top = np.where(top > -_CHAMBER_TOL, np.maximum(top, 0.0), top)
    if (top[:, -1] < -_CHAMBER_TOL).any():
        raise PreconditionError("SO/U coordinates must be >= 0")
    return top


def _smith_valuations(N, d, p: int):
    """Valuations of the invariant factors of a nonsingular rational
    matrix N / d (N integer rows, d > 0) over Z_(p), ascending.

    Fraction-free Smith reduction of N: the pivot is an entry p^v * u of
    least valuation (u a p-adic unit); each other row becomes
    u*row_i - (N_ik / p^v)*row_k, and the pivot row and column are
    dropped.  Scaling a row or a column by a unit (which is all the
    column clearing would do) leaves the invariant factors unchanged.
    """
    M = [list(row) for row in N]
    vd = int_valuation(d, p)
    vals = []
    while M:
        best_v, bi, bj = INF, -1, -1
        for i, row in enumerate(M):
            for j, x in enumerate(row):
                if x:
                    v = int_valuation(x, p)
                    if v < best_v:
                        best_v, bi, bj = v, i, j
        if bi < 0:
            raise PreconditionError("matrix is singular")
        pivot_row = M.pop(bi)
        pv = p ** best_v
        u = pivot_row.pop(bj) // pv
        for row in M:
            x = row.pop(bj)
            if x:
                f = x // pv
                row[:] = [u * y - f * z for y, z in zip(row, pivot_row)]
        vals.append(best_v - vd)  # N / d: every valuation less v(d)
    return vals


def invariant_factor_valuations(matrix, p: int):
    """Valuations of the invariant factors of a nonsingular rational
    matrix over the localization of Z at p, ascending (divisibility order)."""
    return _smith_valuations(*ratio_form([[Fraction(x) for x in row] for row in matrix]), p)


def _sl2_padic_mu1(v_den: int, entries, p: int) -> int:
    """mu_1 of g = N / d in SL_2(Q_p), given v_den = v_p(d) and the
    entries of any integer N with det N = d^2, canonical or not.  Its
    invariant factors are p^m and p^(2 v_den - m), m = min_ij v_p(N_ij)
    the content of N, so mu(g) = (v_den - m, m - v_den); m = 0 when N / d
    is canonical (``_padic_mu``)."""
    m = _int_content(entries, p)
    if m == INF:
        raise PreconditionError("matrix is singular")
    return v_den - m


def cartan_padic(g: GroupElement) -> CartanVector:
    """Cartan projection over Q_p for SL_n, exact integer coordinates:
    ``cartan_batch`` of the one element."""
    if g.group.field.kind != "padic":
        raise UnsupportedFieldError("cartan_padic needs a padic field")
    return cartan_batch([g], g.group)[0]


def _padic_mu(g: GroupElement) -> list:
    """The Q_p Cartan coordinates of g in SL_n: the invariant factor
    valuations of g, negated, in descending order.  Some entry of the
    canonical N of g = N / d is a p-adic unit: if p | d because
    gcd(d, N) = 1, else because det N = d^n is a unit.  So mu_1 = v_p(d),
    and on SL_2 mu = (v_p(d), -v_p(d)) with no content computed."""
    grp = g.group
    if grp.family != "SL":
        raise UnsupportedFieldError("padic Cartan projection implemented for SL_n only")
    if not g._den:
        raise PreconditionError("padic Cartan projection needs exact rational entries")
    p = grp.field.p
    if grp.n == 2:
        top = int_valuation(g._den, p)
        return [top, -top]
    mu = sorted((-w for w in _smith_valuations(g._m, g._den, p)), reverse=True)
    if sum(mu) != 0:
        raise NumericalError(f"padic mu does not sum to 0: {mu}")
    return mu


def cartan(g: GroupElement) -> CartanVector:
    """Cartan projection of g over its field: ``cartan_batch`` of the one
    element."""
    return cartan_batch([g], g.group)[0]


def wedge_norm_log(g: GroupElement, i0: int) -> float:
    """Log operator norm of the i0-th wedge power of g.

    The wedge power is materialized as the compound matrix of i0 x i0
    minors in the standard wedge basis, from ``stack_minors`` on the
    integer N of a rational g = N / d, on the field entries of another
    exact g, else on the float entries.  Over R/C the result is the log
    of its spectral norm (independently of the Cartan projection, so the
    norm identity against weight_pairing is a real check), each minor of
    N over d**i0 correctly rounded, an exact minor rounded once; over Q_p
    it is max over minors of -valuation, an exact integer in log-base-q
    units.  Both are expressed in the units of weight_pairing(i0, mu).
    """
    grp = g.group
    n = grp.size
    if grp.family != "SL":
        raise UnsupportedFieldError("wedge norms are defined for SL_n descriptors")
    if not 1 <= i0 <= n - 1:
        raise PreconditionError(f"i0={i0} out of range for SL_{n}")
    padic = grp.field.kind == "padic"
    if padic and not g._den:
        raise PreconditionError("padic wedge norm needs exact entries")
    ratio = g.ratio
    rows = ratio[0] if ratio else g.matrix if g.is_exact else to_float_array(g).tolist()
    minors = stack_minors([[[x] for x in row] for row in rows], i0)
    if padic:
        c = _int_content(chain.from_iterable(minors.values()), grp.field.p)
        if c == INF:
            raise PreconditionError("matrix is singular")
        return i0 * int_valuation(g._den, grp.field.p) - c
    scale = ratio[1] ** i0 if ratio else 1
    idx = list(combinations(range(n), i0))
    compound = np.array([[_float_entry(minors[r, c][0]) / scale for c in idx]
                         for r in idx])
    top = np.linalg.svd(compound, compute_uv=False)[0]
    return float(np.log(top))


def max_compact_element(group: GroupDesc, g: GroupElement) -> bool:
    """Whether g lies in the reference maximal compact subgroup.

    SL over R: orthogonal; over C: unitary; over Q_p: integral entries
    with unit determinant valuation (for g = N / d, the content of N is at
    least v_p(d)).  Used by bi-invariance tests.
    """
    if group.field.kind == "padic":
        if not g._den:
            return False
        p = group.field.p
        return _int_content(chain.from_iterable(g._m), p) >= int_valuation(g._den, p)
    a = to_float_array(g)
    return bool(np.abs(a.conj().T @ a - np.eye(group.size)).max() < 1e-9)
