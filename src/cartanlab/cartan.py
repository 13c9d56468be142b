"""Group descriptors and Cartan projections.

The Cartan projection mu sends a group element to the chamber-valued
polar part of its KAK decomposition:

* over R or C it is the sorted vector of (half-)log eigenvalues of the
  conjugate-transpose product, i.e. the log singular values;
* over Q_p (SL_n only) it is read off the invariant factors of the
  smallest p-integral rescaling of the matrix, with exact integer
  coordinates.

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

import numpy as np

from .errors import NumericalError, PreconditionError, UnsupportedFieldError
from .exact import det as exact_det
from .exact import inverse as exact_inverse
from .exact import mat_eq, mat_from_rows, mat_mul, transpose
from .fields import INF, FieldDesc, QuadElement, is_exact_scalar, rational_valuation

_DET_TOL = 1e-9
_FORM_TOL = 1e-9
_CHAMBER_TOL = 1e-9


def _float_entry(x):
    if isinstance(x, QuadElement):
        return float(x)
    if isinstance(x, Fraction):
        return float(x)
    return x


def to_float_array(matrix) -> np.ndarray:
    """Dense numpy array of a matrix with scalar entries of any kind."""
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
            pos = sum(1 for c in form if _form_sign(c) > 0)
            neg = sum(1 for c in form if _form_sign(c) < 0)
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


def _form_sign(c) -> int:
    if isinstance(c, QuadElement):
        return c.sign()
    if isinstance(c, (int, Fraction)):
        return (c > 0) - (c < 0)
    return (c > 0) - (c < 0)


def special_linear(n: int, field: FieldDesc) -> GroupDesc:
    return GroupDesc("SL", field, n=n)


def indefinite_orthogonal(p: int, q: int, field: FieldDesc, form=None) -> GroupDesc:
    return GroupDesc("SO", field, p=p, q=q, form=tuple(form) if form else ())


def indefinite_unitary(p: int, q: int, field: FieldDesc, form=None) -> GroupDesc:
    return GroupDesc("U", field, p=p, q=q, form=tuple(form) if form else ())


class GroupElement:
    """A matrix together with the group it is checked to belong to.

    Exact entries are validated exactly (det = 1, g^T J g = J); floating
    entries within 1e-9.  Instances are immutable; products and inverses
    return new elements.
    """

    __slots__ = ("matrix", "group", "_is_exact")

    def __init__(self, matrix, group: GroupDesc, check: bool = True):
        if isinstance(matrix, np.ndarray):
            self.matrix = matrix
            self._is_exact = False
        else:
            rows = tuple(tuple(row) for row in matrix)
            if all(is_exact_scalar(x) for row in rows for x in row):
                self.matrix = mat_from_rows(rows)
                self._is_exact = True
            else:
                self.matrix = to_float_array(rows)
                self._is_exact = False
        self.group = group
        n = group.size
        shape_ok = (
            self.matrix.shape == (n, n)
            if isinstance(self.matrix, np.ndarray)
            else (len(self.matrix) == n and all(len(r) == n for r in self.matrix))
        )
        if not shape_ok:
            raise PreconditionError(f"matrix is not {n}x{n}")
        if check:
            self._validate()

    @property
    def is_exact(self) -> bool:
        return self._is_exact

    def _validate(self):
        g = self.group
        if self._is_exact:
            d = exact_det(self.matrix)
            if d != 1:
                raise PreconditionError(f"determinant is {d}, not 1")
            if g.family in ("SO", "U"):
                J = _form_matrix(g)
                gtj = mat_mul(transpose(self.matrix), J)
                if not mat_eq(mat_mul(gtj, self.matrix), J):
                    raise PreconditionError("matrix does not preserve the form")
        else:
            a = self.matrix
            if not np.all(np.isfinite(a)):
                raise NumericalError("non-finite matrix entries")
            d = np.linalg.det(a)
            if abs(d - 1) > _DET_TOL * max(1.0, float(np.abs(a).max()) ** g.size):
                raise PreconditionError(f"determinant {d} is not 1 within tolerance")
            if g.family in ("SO", "U"):
                J = to_float_array(_form_matrix(g))
                lhs = a.conj().T @ J @ a if g.family == "U" else a.T @ J @ a
                scale = float(np.abs(a).max()) ** 2
                if np.abs(lhs - J).max() > _FORM_TOL * max(1.0, scale):
                    raise PreconditionError("matrix does not preserve the form")

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        if self._is_exact and other._is_exact:
            return GroupElement(mat_mul(self.matrix, other.matrix), self.group, check=False)
        return GroupElement(
            to_float_array(self.matrix) @ to_float_array(other.matrix),
            self.group,
            check=False,
        )

    def inv(self) -> "GroupElement":
        if self._is_exact:
            return GroupElement(exact_inverse(self.matrix), self.group, check=False)
        return GroupElement(np.linalg.inv(self.matrix), self.group, check=False)

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        if self._is_exact and other._is_exact:
            return mat_eq(self.matrix, other.matrix)
        a, b = to_float_array(self.matrix), to_float_array(other.matrix)
        return bool(np.abs(a - b).max() == 0)

    def __hash__(self):
        if self._is_exact:
            return hash(self.matrix)
        return hash(to_float_array(self.matrix).tobytes())

    def __repr__(self):
        return f"GroupElement({self.matrix!r})"


def identity_element(group: GroupDesc) -> GroupElement:
    n = group.size
    if group.field.is_exact or group.field.kind == "padic":
        rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        return GroupElement(rows, group, check=False)
    return GroupElement(np.eye(n), group, check=False)


def _form_matrix(group: GroupDesc):
    n = group.size
    zero = Fraction(0)
    return tuple(
        tuple(group.form[i] if i == j else zero for j in range(n))
        for i in range(n)
    )


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
    """Cartan projection over R or C via singular values."""
    grp = g.group
    if not grp.field.is_archimedean:
        raise UnsupportedFieldError("cartan_archimedean needs a real/complex field")
    a = to_float_array(g.matrix)
    if not np.all(np.isfinite(a)):
        raise NumericalError("non-finite matrix entries")
    if grp.family in ("SO", "U") and _needs_rescale(grp):
        d = np.sqrt(np.abs(to_float_array(_form_matrix(grp)).diagonal()))
        a = np.diag(d) @ a @ np.diag(1.0 / d)
    try:
        sv = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as e:  # pragma: no cover - numpy rarely fails here
        raise NumericalError(f"SVD failed: {e}") from e
    logs = np.log(sv)
    if grp.family == "SL":
        logs = logs - logs.mean()  # exact determinant-1 recentering
        return CartanVector(tuple(float(x) for x in logs), "SL")
    k = grp.rank
    top = sorted((float(x) for x in logs), reverse=True)[:k]
    top = [max(x, 0.0) if x > -_CHAMBER_TOL else x for x in top]
    return CartanVector(tuple(top), grp.family)


def _needs_rescale(grp: GroupDesc) -> bool:
    return any(
        not isinstance(c, (int, Fraction)) or abs(c) != 1 for c in grp.form
    )


def invariant_factor_valuations(matrix, p: int):
    """Valuations of the invariant factors of a p-integral rational matrix.

    Smith reduction over the localization of Z at p: at each step the
    globally minimal-valuation entry is the pivot (a unit times a power
    of p), and the row/column clearing multipliers are p-integral, so
    the transformation matrices are invertible over the local ring.
    Returns the valuations sorted ascending (divisibility order).
    """
    M = [[Fraction(x) for x in row] for row in matrix]
    n = len(M)
    vals = []
    for k in range(n):
        best = None
        best_v = INF
        for i in range(k, n):
            for j in range(k, n):
                if M[i][j] != 0:
                    v = rational_valuation(M[i][j], p)
                    if v < best_v:
                        best_v = v
                        best = (i, j)
        if best is None:
            raise PreconditionError("matrix is singular")
        bi, bj = best
        if bi != k:
            M[k], M[bi] = M[bi], M[k]
        if bj != k:
            for row in M:
                row[k], row[bj] = row[bj], row[k]
        piv = M[k][k]
        for i in range(k + 1, n):
            if M[i][k] != 0:
                f = M[i][k] / piv
                for j in range(k, n):
                    M[i][j] -= f * M[k][j]
        for j in range(k + 1, n):
            if M[k][j] != 0:
                f = M[k][j] / piv
                for i in range(k, n):
                    M[i][j] -= f * M[i][k]
        vals.append(best_v)
    return vals


def cartan_padic(g: GroupElement) -> CartanVector:
    """Cartan projection over Q_p for SL_n, exact integer coordinates."""
    grp = g.group
    if grp.field.kind != "padic":
        raise UnsupportedFieldError("cartan_padic needs a padic field")
    if grp.family != "SL":
        raise UnsupportedFieldError("padic Cartan projection implemented for SL_n only")
    if not g.is_exact:
        raise PreconditionError("padic Cartan projection needs exact rational entries")
    p = grp.field.p
    entries = [x for row in g.matrix for x in row]
    min_v = min(
        (rational_valuation(x, p) for x in entries if x != 0), default=INF
    )
    if min_v is INF:
        raise PreconditionError("zero matrix")
    m = max(0, -min_v)
    scaled = [[x * Fraction(p) ** m for x in row] for row in g.matrix]
    dvals = invariant_factor_valuations(scaled, p)  # ascending
    mu = sorted((m - v for v in dvals), reverse=True)
    if sum(mu) != 0:
        raise NumericalError(f"padic mu does not sum to 0: {mu}")
    return CartanVector(tuple(mu), "SL", exact=True)


def cartan(g: GroupElement) -> CartanVector:
    """Cartan projection dispatched on the element's field."""
    if g.group.field.kind == "padic":
        return cartan_padic(g)
    return cartan_archimedean(g)


def _minor_indices(n, k):
    import itertools

    return list(itertools.combinations(range(n), k))


def _exact_minor(M, rows, cols):
    sub = tuple(tuple(M[i][j] for j in cols) for i in rows)
    return exact_det(sub)


def wedge_norm_log(g: GroupElement, i0: int) -> float:
    """Log operator norm of the i0-th wedge power of g.

    The wedge power is materialized as the compound matrix of i0 x i0
    minors in the standard wedge basis.  Over R/C the result is the log
    of its spectral norm (independently of the Cartan projection, so the
    norm identity against weight_pairing is a real check); over Q_p it
    is max over minors of -valuation, an exact integer in log-base-q
    units.  Both are expressed in the units of weight_pairing(i0, mu).
    """
    grp = g.group
    n = grp.size
    if grp.family != "SL":
        raise UnsupportedFieldError("wedge norms are defined for SL_n descriptors")
    if not 1 <= i0 <= n - 1:
        raise PreconditionError(f"i0={i0} out of range for SL_{n}")
    idx = _minor_indices(n, i0)
    if grp.field.kind == "padic":
        if not g.is_exact:
            raise PreconditionError("padic wedge norm needs exact entries")
        p = grp.field.p
        best = None
        for rows in idx:
            for cols in idx:
                m = _exact_minor(g.matrix, rows, cols)
                if m != 0:
                    v = -rational_valuation(m, p)
                    if best is None or v > best:
                        best = v
        if best is None:
            raise PreconditionError("matrix is singular")
        return best
    a = to_float_array(g.matrix)
    compound = np.empty((len(idx), len(idx)), dtype=a.dtype)
    for r, rows in enumerate(idx):
        for c, cols in enumerate(idx):
            compound[r, c] = np.linalg.det(a[np.ix_(rows, cols)])
    top = np.linalg.svd(compound, compute_uv=False)[0]
    return float(np.log(top))


def max_compact_element(group: GroupDesc, g: GroupElement) -> bool:
    """Whether g lies in the reference maximal compact subgroup.

    SL over R: orthogonal; over C: unitary; over Q_p: integral entries
    with unit determinant valuation.  Used by bi-invariance tests.
    """
    if group.field.kind == "padic":
        if not g.is_exact:
            return False
        p = group.field.p
        return all(
            rational_valuation(x, p) >= 0 for row in g.matrix for x in row if x != 0
        )
    a = to_float_array(g.matrix)
    return bool(np.abs(a.conj().T @ a - np.eye(group.size)).max() < 1e-9)
