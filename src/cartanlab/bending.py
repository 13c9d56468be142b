"""Quadratic-form Lie algebras, centralizers, and bending deformations.

Everything here is exact linear algebra over Q or Q(sqrt(r)) except the
matrix exponential.  For a diagonal form J the algebra so(J) is
{X : X^T J + J X = 0}, with the explicit basis c_j E_ij - c_i E_ji
(i < j); subalgebras so(m,1) inside so(m,2) are the elements supported
away from one distinguished coordinate.

The exact Lie-algebra tests (the form equation, independence and
bracket closure of a ``LieBasis``, ``bracket_closure_exact`` and the
Frobenius and module tests of ``module_decomposition_check``) do not
change when a matrix is scaled.  So they run on flat span vectors
(``exact.primitive``): a rational matrix becomes the primitive integer
vector of its entries, and a bracket is an integer product over the
nonzero entries only.  ``bracket`` keeps its values on Fraction
matrices.

One worklist, ``_closure``, computes every bracket closure: it starts
from a closed subalgebra's basis and a span already holding it, never
re-brackets it, then brackets each new basis vector once with each one
before it, and stops as soon as the span is full (its caller passes the
ambient dimension; nothing can join a full span).  The exact closure and
the module check run it on an ``EchelonSpan`` of primitive integer
vectors, the float density witness on a Gram-Schmidt span of float
matrices; a ``LieBasis`` keeps both spans of itself for them to copy.

Bending deforms an amalgam by conjugating one side by exp(t*Y), or an
HNN extension by right-multiplying the stable letter by exp(t*Y), where
Y spans a centralizer direction of the edge subgroup that leaves the
fixed rank-one subalgebra.  The Zariski-density witness is the
linear-algebra certificate that the fixed subalgebra together with its
Ad(exp(t*Y)) image bracket-generates the ambient algebra; it certifies
density for any group containing the subgroup's identity component and
its conjugate, and the shipped Schottky surrogates import that
subgroup-level density as a stated input assumption.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from .cartan import GroupElement, to_float_array
from .errors import NumericalError, PreconditionError
from .exact import (
    EchelonSpan,
    field_form,
    int_mat_mul,
    mat_eq,
    mat_from_rows,
    mat_mul,
    mat_sub,
    nullspace,
    primitive,
    solve,
)
from .fields import QuadElement, as_exact, is_exact_scalar, real_sign
from .wordgroups import (
    AmalgamStructure,
    HnnStructure,
    Homomorphism,
    Presentation,
    check_relators,
    evaluate,
)

BEND_RELATOR_TOL = 1e-10  # max entry deviation a relator may show after bending
_WITNESS_TOL = 1e-9  # relative residual below which a bracket adds no direction
_BASE_POINT_TOL = 1e-9  # max entry deviation of a fixed base point


@dataclass(frozen=True)
class QuadFormSpace:
    """A diagonal quadratic form with its real-embedding signature."""

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(as_exact(c) if is_exact_scalar(c) else c for c in self.coeffs)
        if any(real_sign(c) == 0 for c in coeffs):
            raise PreconditionError("form coefficients must be nonzero")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    @property
    def signature(self) -> tuple:
        pos = sum(1 for c in self.coeffs if real_sign(c) > 0)
        return pos, self.dim - pos

    def form_matrix(self):
        zero = Fraction(0)
        return tuple(
            tuple(self.coeffs[i] if i == j else zero for j in range(self.dim))
            for i in range(self.dim)
        )


def standard_so_form(p: int, q: int) -> QuadFormSpace:
    return QuadFormSpace(tuple([Fraction(1)] * p + [Fraction(-1)] * q))


def bracket(A, B):
    return mat_sub(mat_mul(A, B), mat_mul(B, A))


def _flatten(M):
    return tuple(x for row in M for x in row)


def _span_vectors(matrices):
    """Each exact matrix as its flat ``primitive`` span vector."""
    return [primitive(_flatten(M)) for M in matrices]


def _bracket_vector(a, b, d):
    """The span vector of A B - B A for two d x d matrices given as the
    nonzero entries (k, x) of each row: a product over those only."""
    out = [0] * (d * d)
    for i, row in enumerate(a):
        for k, x in row:
            for j, y in b[k]:
                out[i * d + j] += x * y
    for i, row in enumerate(b):
        for k, y in row:
            for j, x in a[k]:
                out[i * d + j] -= y * x
    return primitive(out)


def _dot(u, v):
    return sum(map(mul, u, v))


class LieBasis:
    """A list of matrices spanning a Lie subalgebra of so(J).

    Construction verifies, exactly: the defining equation X^T J + J X = 0
    for every element, linear independence, and closure of brackets
    within the span.  It keeps what they built, unchanged afterwards:
    ``vectors``, the primitive span vectors, and ``span``, their ``EchelonSpan``.
    """

    def __init__(self, matrices, space: QuadFormSpace):
        self.space = space
        self.matrices = tuple(mat_from_rows(m) for m in matrices)
        self.vectors, self.span = self._validate()

    def _validate(self):
        # every test is unchanged when a matrix is scaled, so all of them
        # run on the primitive span vectors
        c = primitive(self.space.coeffs)  # the equation is homogeneous in J
        d = self.space.dim
        vectors = tuple(_span_vectors(self.matrices))
        for k, v in enumerate(vectors):
            # X^T J + J X = 0 for diagonal J: c_j X[j][i] + c_i X[i][j] = 0
            if any(c[j] * v[j * d + i] + c[i] * v[i * d + j]
                   for i in range(d) for j in range(i, d)):
                raise PreconditionError(
                    f"basis element {k} violates the form equation"
                )
        span = EchelonSpan()
        if not all(span.add(v) for v in vectors):
            raise PreconditionError("basis matrices are linearly dependent")
        br = _span_bracket(d)
        if not all(span.contains(br(a, b))
                   for i, a in enumerate(vectors) for b in vectors[i + 1:]):
            raise PreconditionError("span is not closed under brackets")
        return vectors, span

    def __len__(self):
        return len(self.matrices)

    def __iter__(self):
        return iter(self.matrices)

    @functools.cached_property
    def float_matrices(self):
        """The matrices as float arrays, converted once."""
        return tuple(map(to_float_array, self.matrices))

    def flat_vectors(self):
        return [_flatten(X) for X in self.matrices]

    @functools.cached_property
    def _float_seed(self):
        """The ``float_matrices`` a witness's ``_FloatSpan`` accepts, and it."""
        d = self.space.dim
        span = _FloatSpan(_WITNESS_TOL, d * (d - 1) // 2)  # the span lies in so(J)
        return tuple(H for H in self.float_matrices if span.add(H)), span

    def contains(self, X) -> bool:
        return self.span.contains(_flatten(mat_from_rows(X)))


def _so_basis(space: QuadFormSpace, skipped=None) -> LieBasis:
    """The basis c_j E_ij - c_i E_ji (i < j) of so(J), leaving out every
    element that touches the coordinate ``skipped``."""
    d = space.dim
    zero = Fraction(0)
    mats = []
    for i in range(d):
        for j in range(i + 1, d):
            if skipped in (i, j):
                continue
            X = [[zero] * d for _ in range(d)]
            X[i][j] = space.coeffs[j] + zero
            X[j][i] = -(space.coeffs[i] + zero)
            mats.append(tuple(tuple(row) for row in X))
    return LieBasis(mats, space)


def so_form_algebra(space: QuadFormSpace) -> LieBasis:
    """Basis of so(J) for the diagonal form: c_j E_ij - c_i E_ji, i < j."""
    return _so_basis(space)


def so_subalgebra_basis(space: QuadFormSpace, fixed_coordinate: int) -> LieBasis:
    """so of the form restricted away from one coordinate, inside so(J)."""
    if not 0 <= fixed_coordinate < space.dim:
        raise PreconditionError("fixed coordinate out of range")
    return _so_basis(space, fixed_coordinate)


def centralizer_in_algebra(elements, ambient: LieBasis) -> LieBasis:
    """Basis of {X in span(ambient) : s X s^-1 = X for all s}, exact."""
    basis = ambient.matrices
    # unknowns: coefficients x_k with sum x_k * (s B_k - B_k s) = 0, one
    # equation per element s and matrix entry
    system = []
    for s in elements:
        mat = s.matrix if isinstance(s, GroupElement) else mat_from_rows(s)
        system += zip(*(_flatten(bracket(mat, B)) for B in basis))
    if not system:
        return ambient
    d = ambient.space.dim
    mats = []
    for coeffs in nullspace(tuple(system)):
        v = [sum(c * x for c, x in zip(coeffs, col))
             for col in zip(*map(_flatten, basis))]
        mats.append(tuple(tuple(v[i * d:(i + 1) * d]) for i in range(d)))
    return LieBasis(mats, ambient.space)


def pick_Y(centralizer: LieBasis, subalgebra: LieBasis):
    """Centralizer basis vector farthest from the subalgebra span.

    Distance is Frobenius-orthogonal, computed exactly via the normal
    equations; comparisons use the real embedding; ties break by basis
    index.  No direction outside the subalgebra is an error (the
    bending hypothesis fails for this edge subgroup).
    """
    if len(centralizer) == 0:
        raise PreconditionError("trivial centralizer: no bending direction")
    h_flat = subalgebra.flat_vectors()
    best = None
    best_val = 0.0
    for idx, Y in enumerate(centralizer.matrices):
        y = _flatten(Y)
        dist2 = _ortho_distance_sq(y, h_flat)
        val = float(dist2)
        if val > best_val + 0.0:
            best_val = val
            best = (idx, Y)
    if best is None or best_val <= 0.0:
        raise PreconditionError(
            "centralizer is contained in the fixed subalgebra: "
            "no bending direction exists for this edge subgroup"
        )
    return best[1]


def _ortho_distance_sq(y, basis_flat):
    yy = sum(a * a for a in y)
    if not basis_flat:
        return yy
    k = len(basis_flat)
    G = tuple(
        tuple(sum(a * b for a, b in zip(basis_flat[i], basis_flat[j])) for j in range(k))
        for i in range(k)
    )
    b = tuple(sum(a * c for a, c in zip(basis_flat[i], y)) for i in range(k))
    x = solve(G, b)
    if x is None:
        raise PreconditionError("degenerate Gram matrix in distance computation")
    return yy - sum(bi * xi for bi, xi in zip(b, x))


class _Exp:
    """t -> exp(t*Y) for one Y, decided once: the closed cosh/sinh form
    when Y^3 = Y exactly, else scipy's scaling and squaring.  A non-finite
    t is a PreconditionError, a result that is not finite a NumericalError."""

    @np.errstate(all="ignore")
    def __init__(self, Y):
        r = next((x.r for x in _flatten(Y) if isinstance(x, QuadElement)), None)
        key = field_form(Y, r)  # over Q(sqrt r) Y's block form, as multiplicative
        if key:  # Y = N / d, so Y^3 = Y iff N^3 = d^2 N
            N, d = key
            closed = int_mat_mul(int_mat_mul(N, N), N) == tuple(
                tuple(d * d * x for x in row) for row in N)
        else:  # a float entry leaves Y^3 = Y undecided
            closed = False
        try:  # N_ij / d is correctly rounded, the bits of to_float_array(Y)
            self.Yf = (np.array([[x / d for x in row] for row in N], dtype=float)
                       if key and r is None else to_float_array(Y))
        except OverflowError:  # no float form: exp(t*Y) is not finite at any t
            self.Yf, closed = np.full((len(Y), len(Y)), np.inf), True
        self.Y2 = self.Yf @ self.Yf if closed else None

    @np.errstate(all="ignore")
    def __call__(self, t: float) -> np.ndarray:
        if not math.isfinite(t):
            raise PreconditionError(f"t = {t!r} is not finite")
        Yf, Y2 = self.Yf, self.Y2
        try:
            if Y2 is not None:
                out = np.eye(len(Yf)) + math.sinh(t) * Yf + (math.cosh(t) - 1.0) * Y2
            else:
                # imported here: scipy.linalg is about half the import time
                # of the CLI, and only a Y with Y^3 != Y needs it
                from scipy.linalg import expm

                out = expm(t * Yf)
        except OverflowError:
            out = None
        if out is None or not np.isfinite(out).all():
            raise NumericalError(f"exp(t*Y) overflows at t = {t!r}")
        return out


def matrix_exp(Y, t: float) -> np.ndarray:
    """exp(t*Y); a family's ``BendingFamily.exp`` decides its Y once."""
    return _Exp(Y)(t)


def edge_words(structure) -> list:
    """The words of the edge subgroup that a bending direction must
    centralize: the first word of each amalgam pair or HNN pairing."""
    if isinstance(structure, AmalgamStructure):
        return [w for w, _ in structure.gamma0_pairs]
    if isinstance(structure, HnnStructure):
        return [w for w, _ in structure.pairings]
    raise PreconditionError("bending needs an amalgam or HNN structure")


@dataclass
class BendingFamily:
    """An amalgam or HNN presentation with a bending direction.

    The presentation's structure decides the rule; Y must centralize the
    edge-subgroup images (checked at construction via the group-level
    identity s Y s^-1 = Y) and, when a fixed subalgebra is supplied, lie
    outside its span.  ``exp`` decides Y once per family and keeps no t.
    """

    presentation: Presentation
    Y: object
    subalgebra: LieBasis | None = None

    def __post_init__(self):
        s = self.presentation.structure
        words = edge_words(s)
        self.rule = "amalgam" if isinstance(s, AmalgamStructure) else "hnn"
        phi = Homomorphism(self.presentation.generators, self.presentation.group)
        exact_y = all(is_exact_scalar(x) for row in self.Y for x in row)
        Ym = mat_from_rows(self.Y) if exact_y else None
        for w in words:
            g = evaluate(w, phi)
            if exact_y and g.is_exact:
                if not mat_eq(mat_mul(g.matrix, Ym), mat_mul(Ym, g.matrix)):
                    raise PreconditionError(
                        "Y does not centralize the edge subgroup image of "
                        f"{w.format(self.presentation.symbols)}"
                    )
            else:
                gf = to_float_array(g)
                yf = to_float_array(self.Y)
                if np.abs(gf @ yf - yf @ gf).max() > 1e-9:
                    raise PreconditionError("Y does not centralize the edge subgroup")
        if self.subalgebra is not None and self.subalgebra.contains(self.Y):
            raise PreconditionError("Y lies in the fixed subalgebra; bending is trivial")

    @functools.cached_property
    def exp(self):  # t -> matrix_exp(Y, t), bit for bit
        return _Exp(self.Y)


def bend(family: BendingFamily, t: float) -> Homomorphism:
    """The bent homomorphism at parameter t; relators are re-verified."""
    P = family.presentation
    group = P.group
    if t == 0:
        phi = Homomorphism(P.generators, group)
    else:
        C = family.exp(t)
        Cinv = family.exp(-t)
        s = P.structure
        gens = P.generators
        with np.errstate(all="ignore"):
            if family.rule == "amalgam":
                bent = {i: C @ to_float_array(gens[i]) @ Cinv
                        for i in s.side2}
            else:
                bent = {s.stable: to_float_array(gens[s.stable]) @ C}
        if not all(np.isfinite(M).all() for M in bent.values()):
            raise NumericalError(f"the bent generators overflow at t = {t!r}")
        images = [
            GroupElement(bent[i], group, check=False) if i in bent else g
            for i, g in enumerate(gens)
        ]
        phi = Homomorphism(images, group)
    report = check_relators(P, phi, tol=BEND_RELATOR_TOL)
    if not report.ok:
        raise PreconditionError(
            f"bent homomorphism violates relators at t={t}: {report.failures}"
        )
    return phi


# ---------------------------------------------------------------------------
# density witnesses


@dataclass
class ModuleDecompositionVerdict:
    dim_sub: int
    dim_complement: int
    dim_ambient: int
    module_ok: bool
    closures_ok: bool

    @property
    def ok(self) -> bool:
        return (
            self.dim_sub + self.dim_complement == self.dim_ambient
            and self.module_ok
            and self.closures_ok
        )


def _closure(basis, span, vectors, bracket, dim):
    """Basis of the bracket closure of a subalgebra's ``basis`` (may be
    empty) and ``vectors``, grown in place with ``span``, which holds just
    ``basis`` (it needs only ``add(v) -> bool``, True iff the span grew).
    A worklist brackets each basis vector past the seed once with each one
    before it, and stops once the basis has ``dim`` vectors, the dimension
    of a space the closure lies in: no bracket can enlarge a full span."""
    k = max(len(basis), 1)
    basis += [v for v in vectors if span.add(v)]
    while k < len(basis) < dim:
        for j in range(k):
            br = bracket(basis[j], basis[k])
            if span.add(br):
                basis.append(br)
                if len(basis) == dim:
                    return basis
        k += 1
    return basis


def _span_bracket(d):
    """``_bracket_vector`` of flat d x d span vectors, with the nonzero
    entries of each vector found once."""
    sparse = functools.cache(
        lambda v: [[(k, x) for k, x in enumerate(v[i * d:(i + 1) * d]) if x]
                   for i in range(d)])
    return lambda a, b: _bracket_vector(sparse(a), sparse(b), d)


def bracket_closure_exact(vectors):
    """Span basis of the bracket closure of exact d x d matrices.

    The ``_closure`` basis on an ``EchelonSpan``, each matrix scaled as
    ``exact.primitive`` scales it: a rational one becomes a matrix of
    coprime ints.
    """
    mats = [mat_from_rows(m) for m in vectors]
    if not mats:
        return []
    d = len(mats[0])
    basis = _closure([], EchelonSpan(), _span_vectors(mats), _span_bracket(d),
                     d * d)
    return [tuple(v[i * d:(i + 1) * d] for i in range(d)) for v in basis]


def _standard_subalgebra(sub):
    """``sub``, or for an int m the standard so(m,1) inside so(m,2)."""
    return _standard_so_m1(sub) if isinstance(sub, int) else sub


@functools.cache
def _standard_so_m1(m: int) -> LieBasis:
    """The standard so(m,1) inside so(m,2), built and validated once per m,
    so that its float matrices are converted once too."""
    space = standard_so_form(m, 2)
    return so_subalgebra_basis(space, space.dim - 1)


def module_decomposition_check(sub) -> ModuleDecompositionVerdict:
    """Exact checks on the complement of the fixed subalgebra ``sub`` (a
    ``LieBasis``; an int m stands for the standard so(m,1) in so(m,2))
    in so(J) of its form: the so(J) basis vectors Frobenius-orthogonal
    to ``sub`` fill so(J) up, span a module under brackets with ``sub``,
    and each one adjoined to ``sub`` bracket-generates so(J).
    """
    sub = _standard_subalgebra(sub)
    d = sub.space.dim
    if d < 4:
        raise PreconditionError("m must be >= 2")  # m = d - 2, as bend reports it
    # Frobenius products and brackets, up to scale, on the span vectors
    complement = [
        v for v in so_form_algebra(sub.space).vectors
        if not any(_dot(v, h) for h in sub.vectors)
    ]
    # each closure's first brackets are the [h, w] that module_ok forms
    br = functools.cache(_span_bracket(d))
    brackets = [br(h, w) for w in complement for h in sub.vectors]
    module_ok = not any(_dot(b, h) for b in brackets for h in sub.vectors)
    dim_ambient = d * (d - 1) // 2
    closures_ok = all(
        len(_closure(list(sub.vectors), sub.span.copy(), [w], br, dim_ambient))
        == dim_ambient for w in complement
    )
    return ModuleDecompositionVerdict(
        len(sub), len(complement), dim_ambient, module_ok, closures_ok
    )


class _FloatSpan:
    """The span of float matrices inside a space of dimension ``dim``,
    kept as orthonormal flat rows."""

    def __init__(self, tol, dim):
        self.tol = tol
        self.dim = dim
        self.rows = []

    def copy(self):  # the same rows, grown apart from this span
        out = _FloatSpan(self.tol, self.dim)
        out.rows = list(self.rows)
        return out

    def add(self, M) -> bool:
        """Gram-Schmidt step: append M's residual against the rows,
        normalised, when its norm exceeds tol * |M|.  True iff the span
        grew.  A full span does not grow: a residual against it is
        rounding.  A norm that overflows is a NumericalError."""
        v = M.reshape(-1)
        norm = np.linalg.norm(v)
        if not np.isfinite(norm):
            raise NumericalError("the density witness overflows in float arithmetic")
        if norm == 0 or len(self.rows) == self.dim:
            return False
        r = v
        if self.rows:
            B = np.array(self.rows)
            for _ in range(2):  # a second pass restores orthogonality lost to rounding
                r = r - B.T @ (B @ r)
        rnorm = np.linalg.norm(r)
        if rnorm <= self.tol * norm:
            return False
        self.rows.append(r / rnorm)
        return True


@np.errstate(all="ignore")  # an overflow is caught by _FloatSpan.add
def zariski_density_witness(Y, t: float, sub) -> bool:
    """Density certificate for the group generated by the subgroup of
    the fixed subalgebra ``sub`` and its conjugate by exp(t*Y).

    ``Y`` is a matrix, or a family's ``exp``, which decided Y once.
    ``sub`` is a ``LieBasis``; an int m stands for the standard so(m,1)
    inside so(m,2).  True iff the subalgebra and its Ad(exp(t*Y)) image
    bracket-generate so(J) of the subalgebra's form.  False at t = 0 and
    for Y inside the subalgebra: Ad then normalizes it, and a subalgebra
    is its own closure.  The ``_closure`` span, a copy of the one the
    subalgebra keeps, is an orthonormal basis: testing a bracket costs one
    projection, not a fresh rank, and the closure stops as soon as the
    span is all of so(J), with no bracket formed past that point.
    """
    sub = _standard_subalgebra(sub)
    exp = Y if isinstance(Y, _Exp) else _Exp(Y)
    C, Cinv = exp(t), exp(-t)
    seed, span = sub._float_seed
    basis = _closure(list(seed), span.copy(),
                     [C @ H @ Cinv for H in sub.float_matrices],
                     lambda A, B: A @ B - B @ A, span.dim)
    return len(basis) == span.dim


# ---------------------------------------------------------------------------
# the unitary embedding


@dataclass
class UnitaryEmbedding:
    """Realification of U(n,1) into SO(2n,2).

    Complex entries a + b*i become 2x2 blocks [[a, -b], [b, a]]; the
    Hermitian form |z_1|^2 + ... + |z_n|^2 - |z_{n+1}|^2 turns into the
    split quadratic form with the two negative coordinates last.
    """

    n: int

    @property
    def source_size(self) -> int:
        return self.n + 1

    def realify(self, matrix):
        size = self.source_size
        rows = list(matrix)
        if len(rows) != size or any(len(r) != size for r in rows):
            raise PreconditionError(f"matrix is not {size}x{size}")
        exact = all(
            isinstance(x, tuple) or is_exact_scalar(x) for r in rows for x in r
        )
        d = 2 * size
        if exact:
            out = [[Fraction(0)] * d for _ in range(d)]
        else:
            out = np.zeros((d, d))
        for i in range(size):
            for j in range(size):
                x = rows[i][j]
                if isinstance(x, tuple):
                    a, b = Fraction(x[0]), Fraction(x[1])
                elif is_exact_scalar(x):
                    a, b = Fraction(x), Fraction(0)
                else:
                    z = complex(x)
                    a, b = z.real, z.imag
                # interleave: complex coordinate k -> real coords (2k, 2k+1)
                out[2 * i][2 * j] = a
                out[2 * i][2 * j + 1] = -b
                out[2 * i + 1][2 * j] = b
                out[2 * i + 1][2 * j + 1] = a
        if exact:
            return tuple(tuple(r) for r in out)
        return out

    def base_point_fixed(self, matrix) -> bool:
        """Whether the realified matrix fixes the split-space vector
        with 1 in the first negative coordinate (the symmetric-space
        base point of the embedding)."""
        R = to_float_array(self.realify(matrix))
        v = np.zeros(R.shape[0])
        v[2 * self.n] = 1.0
        return bool(np.abs(R @ v - v).max() <= _BASE_POINT_TOL)


def u_embed(n: int) -> UnitaryEmbedding:
    if n < 1:
        raise PreconditionError("n must be >= 1")
    return UnitaryEmbedding(n)
