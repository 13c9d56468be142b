"""Projective-space metric, proximality, and contraction estimates.

The projective space P(V) over a local field carries the distance

    d(x1, x2) = inf { ||v1 - v2|| : v_i a unit representative of x_i }

for the coordinate sup-norm.  Over R the infimum runs over two signs;
over C over a unit-modulus phase, where it is attained at one of finitely
many phases in closed form (``archimedean._row_distances``, one float
kernel for R and C); over Q_p over the unit group, where it collapses to an exact
closed form: for sup-normalized representatives,

    d(x1, x2) = max_{i<j} |v_i w_j - v_j w_i|.

(The 2x2-minor formula provably equals the infimum: ">=" because
(v - uw) ^ w = v ^ w and the ultrametric bounds each minor by
||v - uw||; "<=" by taking u = v_j / w_j at a unit coordinate j of w.)
``_minors`` is the one place these 2x2 minors are formed: it decides
whether two vectors are proportional (point equality, exact over Q_p and
up to 1e-12 over R/C; a hyperplane fixed by a matrix; an image on the
attracting line) and gives the Q_p distance.

An endomorphism is proximal when a unique simple eigenvalue dominates in
absolute value; it then contracts P(V) away from a repelling hyperplane
toward an attracting line.  Over R/C the classification is a floating
eigensolve with an explicit resolution threshold; over Q_p it is exact,
via the Newton polygon of the characteristic polynomial, with the
dominant eigenvalue lifted to prescribed p-adic precision.

Nothing is sampled.  The homothety range r_eps has one closed form for
every field, and condition (2) of eps-proximality is decided exactly:
over Q_p by a finite search of the p-adic digit tree (both distances it
compares are read off valuations that a few digits of the point
decide), over R/C by a search of boxes covering the eps-far set, each
closed by integer bounds or answered by a point that fails exactly.  A
box search still open after a fixed budget reports an indeterminate
verdict.

All distances are relative to the coordinate basis fixing the sup-norm
(weight-adapted coordinates, in the representation-theoretic setting);
epsilon thresholds are basis-relative in the same sense.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .archimedean import _box_contraction_witness, _row_distances
from .cartan import cartan, to_float_array, weight_pairing
from .errors import IndeterminateError, NumericalError, PreconditionError
from .exact import (
    charpoly,
    det as exact_det,
    inverse as exact_inverse,
    mat_from_rows,
    mat_mul,
    mat_vec,
    nullspace,
    primitive,
    ratio_form,
    solve,
)
from .fields import INF, FieldDesc, _content, _int_content, abs_value, rational_valuation

_EQ_TOL = 1e-12
_GAP_TOL = 1e-8
_PADIC_PRECISION = 60  # p-adic digits of a dominant eigenvalue not found exactly
_SANDWICH_TOL = 1e-9  # relative tolerance of the norm sandwich over R/C


# ---------------------------------------------------------------------------
# points and hyperplanes


def _minors(v, w):
    """The 2x2 minors v_i w_j - v_j w_i (i < j) of two vectors; all are
    zero iff the vectors are proportional."""
    return [v[i] * w[j] - v[j] * w[i] for i, j in combinations(range(len(v)), 2)]


def _sup_normalize(vec, field: FieldDesc):
    """The representative of sup-norm 1: exact over Q_p, float otherwise."""
    if field.kind == "padic":
        vec = [Fraction(x) for x in vec]
        m = _content(vec, field.p)
        if m == INF:
            raise PreconditionError("zero vector")
        scale = Fraction(field.p) ** (-m)
        return tuple(x * scale for x in vec)
    a = np.asarray(vec)
    a = a.astype(complex) if np.iscomplexobj(a) else a.astype(float)
    s = np.abs(a).max()
    if s == 0:
        raise PreconditionError("zero vector")
    return a / s


class ProjPoint:
    """A point of projective space, stored as a sup-normalized vector."""

    __slots__ = ("field", "vec")

    def __init__(self, vec, field: FieldDesc):
        self.field = field
        self.vec = _sup_normalize(vec, field)

    @property
    def dim(self) -> int:
        return len(self.vec)

    def __eq__(self, other):
        """Exact over Q_p; over R/C every minor below 1e-12 in modulus."""
        if not isinstance(other, ProjPoint) or other.field != self.field:
            return NotImplemented
        if self.dim != other.dim:
            return False
        minors = _minors(self.vec, other.vec)
        if self.field.kind == "padic":
            return not any(minors)
        return bool(max(map(abs, minors), default=0) < _EQ_TOL)

    def __hash__(self):  # pragma: no cover - points are not dict keys in hot paths
        return hash(self.dim)

    def __repr__(self):
        return f"ProjPoint({list(self.vec)!r})"


class ProjHyperplane:
    """A projective hyperplane, stored as a sup-normalized functional."""

    __slots__ = ("field", "functional")

    def __init__(self, functional, field: FieldDesc):
        self.field = field
        self.functional = _sup_normalize(functional, field)

    @property
    def dim(self) -> int:
        return len(self.functional)

    def pair(self, point: ProjPoint):
        if self.field.kind == "padic":
            return sum(a * b for a, b in zip(self.functional, point.vec))
        f = np.asarray(self.functional)
        return complex(np.dot(f, point.vec)) if np.iscomplexobj(f) or np.iscomplexobj(
            point.vec
        ) else float(np.dot(f, point.vec))

    def contains(self, point: ProjPoint) -> bool:
        val = self.pair(point)
        if self.field.kind == "padic":
            return val == 0
        return abs(val) < _EQ_TOL

    def aligned_axis(self):
        """Index j if this is the coordinate hyperplane {x_j = 0}, else None."""
        tol = 0 if self.field.kind == "padic" else _EQ_TOL
        nz = [i for i, x in enumerate(self.functional) if abs(x) > tol]
        return nz[0] if len(nz) == 1 else None

    def __repr__(self):
        return f"ProjHyperplane({list(self.functional)!r})"


def proj_distance(x1: ProjPoint, x2: ProjPoint):
    """Exact infimum distance between two projective points.

    Real: minimum over the sign choice.  Complex: the exact minimum over
    the unit-modulus phase, from the closed form of ``_row_distances``
    (float rounding only).  Padic: the exact 2x2-minor formula; returns
    a Fraction (a power of p, or 0).
    """
    if x1.field != x2.field:
        raise PreconditionError("points live over different fields")
    if x1.dim != x2.dim:
        raise PreconditionError("dimension mismatch")
    if x1.field.kind == "padic":
        minors = _minors(x1.vec, x2.vec)
        return max((abs_value(m, x1.field) for m in minors), default=Fraction(0))
    return float(_row_distances(np.asarray(x1.vec)[None], np.asarray(x2.vec),
                                x1.field)[0][0])


@dataclass
class HyperplaneDistance:
    """Distance from a point to a hyperplane: certified bounds.

    ``exact`` means lower == upper is the true infimum (always over
    padic fields; over R and C for coordinate hyperplanes and in P^1,
    where a hyperplane is a point).
    """

    lower: float
    upper: float
    exact: bool

    @property
    def value(self):
        return self.lower


def point_hyperplane_distance(x: ProjPoint, H: ProjHyperplane) -> HyperplaneDistance:
    if x.field != H.field or x.dim != H.dim:
        raise PreconditionError("incompatible point/hyperplane")
    if x.field.kind == "padic":
        d = abs_value(H.pair(x), x.field)
        return HyperplaneDistance(d, d, True)
    f = np.asarray(H.functional)
    v = np.asarray(x.vec)
    lower = abs(complex(np.dot(f, v))) / float(np.abs(f).sum())
    axis = H.aligned_axis()
    if axis is not None:
        # coordinate hyperplane {x_axis = 0}: distance is exactly |v_axis|
        d = float(abs(v[axis]))
        return HyperplaneDistance(d, d, True)
    if len(f) == 2:
        # H = {w : f.w = 0} is the one point [(-f_2, f_1)]
        d = float(proj_distance(x, ProjPoint(np.array([-f[1], f[0]]), x.field)))
        return HyperplaneDistance(d, d, True)
    # generic upper bound: the distance to the foot of v on H (a foot at 0,
    # v on the normal, takes 2, which bounds the distance of any two points)
    w = _hyperplane_foot(f, v)
    upper = float(proj_distance(x, ProjPoint(w, x.field))) if np.abs(w).max() > 0 else 2.0
    return HyperplaneDistance(float(lower), max(upper, float(lower)), False)


def _hyperplane_foot(f, v):
    """The Hermitian projection of v onto H = {w : f.w = 0}, normal conj(f)."""
    return v - (np.dot(f, v) / np.dot(f, f.conj())) * f.conj()


# ---------------------------------------------------------------------------
# proximality


@dataclass
class ProximalData:
    """Dominant-eigenvalue data of a proximal endomorphism."""

    eigenvalue: object
    attracting: ProjPoint
    repelling: ProjHyperplane
    gap_ratio: float
    eigenvalue_exact: bool = True
    precision: int | None = None


def newton_polygon(points):
    """Lower convex hull of (abscissa, ordinate) pairs, left to right.

    Returns the hull vertices; infinite ordinates are skipped by the
    caller.  Used to read off root valuations of p-adic polynomials.
    """
    pts = sorted(points)
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep the hull lower-convex
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def root_valuations(coeffs, p):
    """Valuations (with multiplicity, ascending) of the roots of a
    p-adic polynomial given by exact rational coefficients c_0..c_n."""
    pts = [
        (i, rational_valuation(c, p)) for i, c in enumerate(coeffs) if c != 0
    ]
    if len(pts) < 2:
        raise PreconditionError("polynomial has at most one term")
    hull = newton_polygon(pts)
    vals = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = Fraction(y2 - y1, x2 - x1)
        vals.extend([-slope] * (x2 - x1))
    return sorted(vals)


def _rational_reconstruct(a, m):
    """Small rational x/y with x/y = a mod m, |x|, y <= sqrt(m/2), or None."""
    bound = math.isqrt(m // 2)
    r0, r1 = m, a % m
    s0, s1 = 0, 1
    while r1 > bound:
        qq = r0 // r1
        r0, r1 = r1, r0 - qq * r1
        s0, s1 = s1, s0 - qq * s1
    if abs(s1) > bound or s1 == 0:
        return None
    return Fraction(r1, s1) if s1 > 0 else Fraction(-r1, -s1)


def _hensel_dominant_root(coeffs, p, vmin, precision):
    """Lift the unique minimal-valuation root of the polynomial.

    coeffs are the exact coefficients of a monic-after-rescaling
    polynomial whose Newton polygon has a length-1 segment of minimal
    root valuation vmin.  Substituting X = p^vmin * Y yields a monic
    p-integral polynomial with a single unit root, simple mod p; Newton
    iteration then converges quadratically.
    """
    n = len(coeffs) - 1
    mod = p ** precision
    scaled = []
    for i, c in enumerate(coeffs):
        b = Fraction(c) * Fraction(p) ** ((i - n) * vmin)
        num, den = b.numerator, b.denominator
        if den % p == 0:
            raise NumericalError("rescaled coefficient not p-integral")
        scaled.append(num * pow(den, -1, mod) % mod)
    # sum of roots = -b_{n-1}; all non-dominant roots vanish mod p
    y = (-scaled[n - 1]) % mod
    if y % p == 0:
        raise NumericalError("dominant residue unexpectedly zero mod p")
    deriv = [(i * scaled[i]) % mod for i in range(1, n + 1)]
    for _ in range(precision.bit_length() + 3):
        fy = _horner(scaled, y) % mod
        if fy == 0:
            break
        y = (y - fy * pow(_horner(deriv, y), -1, mod)) % mod
    return Fraction(y) * Fraction(p) ** vmin, mod


def proximal_analyze(
    matrix,
    field: FieldDesc,
    gap_tol: float = _GAP_TOL,
):
    """Classify a square matrix as proximal or not; return its data.

    Archimedean: full eigensolve; declared proximal when the relative
    modulus gap between the two largest eigenvalues is >= gap_tol;
    an exact floating tie means not proximal (None); a nonzero gap below
    gap_tol raises IndeterminateError (floating eigensolves cannot
    certify equality of moduli).

    Padic: exact characteristic polynomial and Newton polygon; proximal
    iff the minimal-valuation segment has horizontal length 1.  The
    dominant eigenvalue is then lifted to ``_PADIC_PRECISION`` p-adic digits
    (exact when rational reconstruction finds a true root), and the
    attracting line / repelling hyperplane are obtained from the exact
    adjugate of (g - lambda), accurate to the same precision.
    """
    if field.kind == "padic":
        return _proximal_padic(matrix, field)
    a = to_float_array(matrix)
    if not np.all(np.isfinite(a)) or np.abs(a).max() == 0:
        raise PreconditionError("matrix must be nonzero with finite entries")
    try:
        eigvals, eigvecs = np.linalg.eig(a)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"eigensolve failed: {e}") from e
    moduli = np.abs(eigvals)
    order = np.argsort(-moduli)
    m0, m1 = moduli[order[0]], moduli[order[1]]
    if m0 == 0:
        return None
    rel_gap = (m0 - m1) / m0
    if rel_gap < gap_tol:
        if rel_gap == 0.0:
            return None
        raise IndeterminateError(
            f"modulus gap {rel_gap:.3e} below resolution threshold {gap_tol:.1e}"
        )
    lam = eigvals[order[0]]
    if field.kind == "real":
        lam = float(lam.real) if np.iscomplexobj(eigvals) else float(lam)
    vec = eigvecs[:, order[0]]
    if field.kind == "real" and np.iscomplexobj(vec):
        vec = vec.real if np.abs(vec.imag).max() < 1e-9 * np.abs(vec).max() else vec
        if np.iscomplexobj(vec):  # pragma: no cover - guarded by the gap test
            raise NumericalError("complex attracting line for a real matrix")
    # repelling hyperplane = kernel of the dominant left eigenvector
    lvals, lvecs = np.linalg.eig(a.T)
    li = int(np.argmin(np.abs(lvals - lam)))
    functional = lvecs[:, li]
    if field.kind == "real" and np.iscomplexobj(functional):
        functional = functional.real
    return ProximalData(
        eigenvalue=lam,
        attracting=ProjPoint(vec, field),
        repelling=ProjHyperplane(functional, field),
        gap_ratio=float(m1 / m0),
        eigenvalue_exact=False,
    )


def _proximal_padic(matrix, field):
    M = mat_from_rows(matrix)
    p = field.p
    coeffs = charpoly(M)
    if coeffs[0] == 0:
        raise PreconditionError("matrix is not invertible")
    vals = root_valuations(coeffs, p)
    vmin = vals[0]
    if vals.count(vmin) != 1 or vmin.denominator != 1:
        return None
    vmin = int(vmin)
    lam, mod = _hensel_dominant_root(coeffs, p, vmin, _PADIC_PRECISION)
    exact = _horner(coeffs, lam) == 0
    if not exact:
        rec = _rational_reconstruct(
            int(lam / Fraction(p) ** vmin), mod
        )
        if rec is not None:
            cand = rec * Fraction(p) ** vmin
            if _horner(coeffs, cand) == 0:
                lam, exact = cand, True
    n = len(M)
    shifted = tuple(
        tuple(M[i][j] - (lam if i == j else 0) for j in range(n)) for i in range(n)
    )
    d = exact_det(shifted)
    if d == 0:
        adj_cols = _kernel_columns(shifted)
        attract = adj_cols[0]
        repel = _kernel_columns(tuple(zip(*shifted)))[0]
    else:
        inv = exact_inverse(shifted)
        adj = tuple(tuple(d * inv[i][j] for j in range(n)) for i in range(n))
        attract = min(zip(*adj), key=lambda col: _content(col, p))
        repel = min(adj, key=lambda row: _content(row, p))
    gap = float(Fraction(p) ** (vmin - vals[1]))
    return ProximalData(
        eigenvalue=lam,
        attracting=ProjPoint(attract, field),
        repelling=ProjHyperplane(repel, field),
        gap_ratio=gap,
        eigenvalue_exact=exact,
        precision=None if exact else _PADIC_PRECISION,
    )


def _horner(coeffs, x):
    """The exact value at x of the polynomial with coefficients c_0..c_n."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _kernel_columns(M):
    basis = nullspace(M)
    if not basis:
        raise NumericalError("expected a nontrivial kernel")
    return basis


# ---------------------------------------------------------------------------
# epsilon-proximality and the product sandwich


@dataclass
class EpsProximalVerdict:
    """``ok`` and ``certified`` prove (1) and (2) on the set that
    ``reason`` names (see ``eps_proximal_check``).  ``samples_checked``
    is always 0: no verdict is sampled."""

    ok: bool
    certified: bool
    reason: str = ""
    samples_checked: int = 0


def _image(matrix, v, field: FieldDesc):
    """The vector matrix . v: exact over Q_p, float otherwise."""
    if field.kind == "padic":
        return mat_vec(mat_from_rows(matrix), v)
    return to_float_array(matrix) @ np.asarray(v)


def _apply_to_point(matrix, x: ProjPoint) -> ProjPoint:
    return ProjPoint(_image(matrix, x.vec, x.field), x.field)


def sup_operator_norm(matrix, field: FieldDesc):
    """Operator norm for the coordinate sup-norm.

    Real/complex: max absolute row sum.  Padic: max entry absolute
    value (ultrametric), returned as an exact Fraction.
    """
    if field.kind == "padic":
        c = _content([Fraction(x) for row in matrix for x in row], field.p)
        return Fraction(0) if c == INF else Fraction(field.p) ** -c
    a = to_float_array(matrix)
    return float(np.abs(a).sum(axis=1).max())


def _is_isometry(matrix, field: FieldDesc) -> bool:
    if field.kind == "padic":
        M = mat_from_rows(matrix)
        return (_content([x for row in M for x in row], field.p) >= 0
                and rational_valuation(exact_det(M), field.p) == 0)
    a = to_float_array(matrix)
    n = a.shape[0]
    # sup-norm isometries are signed (real) / phased (complex) permutations
    mags = np.abs(a)
    for axis in (0, 1):
        if not np.allclose(mags.sum(axis=axis), np.ones(n), atol=1e-9):
            return False
    big = mags > 1e-9
    return bool((big.sum(axis=0) == 1).all() and (big.sum(axis=1) == 1).all())


@dataclass
class REpsEstimate:
    """The homothety-coefficient log-range sup of the contraction lemma.

    value = 2 * sup |log |t_v|| over the sup-normalised v that ``r_eps``
    reads as eps-far, where v = t_v v0 + (a vector in X0), in closed form
    over every field; over Q_p ``padic_k`` stores the exponent of it.
    """

    value: float
    padic_k: int | None = None
    padic_p: int | None = None

    def contraction_factor(self, n: int):
        """exp(-(n-1) * value); exact Fraction for padic closed forms."""
        if self.padic_k is not None:
            return Fraction(self.padic_p) ** (-2 * self.padic_k * (n - 1))
        return math.exp(-(n - 1) * self.value)


def _padic_eps_exponents(eps, p):
    """(e, k), both compared with eps exactly (a float converts without
    rounding): e is the largest exponent with p^-e >= eps, so that
    d([u], X) = p^-v >= eps iff v <= e, and k the least with
    p^-k <= eps, so that a distance p^-m is at most eps iff m >= k."""
    bound = Fraction(eps if isinstance(eps, (int, Fraction)) else float(eps))
    e = 0
    while Fraction(1, p ** (e + 1)) >= bound:
        e += 1
    return e, e if Fraction(1, p ** e) == bound else e + 1


def r_eps(x0_plus: ProjPoint, X0_minus: ProjHyperplane, eps: float) -> REpsEstimate:
    """Log-range of homothety coefficients over the eps-far set.

    Requires 0 < eps and d(x0+, X0-) >= 2*eps.  With f the functional of
    X0- and x = x0+ (both sup-normalised), a point off X0- has one
    representative v = x + h with f.h = 0, and t_v = 1 / ||v|| for its
    sup-normalised form.  Over R/C the sup runs over |f.v| >= eps ||f||_1
    ||v|| (the eps-far set if X0- is a coordinate hyperplane, else a strict
    subset), which is ||v|| <= |f.x| / (eps ||f||_1), and ||v|| takes every
    value from the dual-norm minimum |f.x| / ||f||_1 up to that bound, so

        r_eps = 2 max(log(||f||_1 / |f.x|), log(|f.x| / (eps ||f||_1))).

    Over Q_p the same read-off, with ||f|| = 1, |f.x| = p^-v0 and the
    distances p^-j >= eps to X0- those with j <= e (``_padic_eps_exponents``),
    gives r_eps = 2 max(v0, e - v0) log p.
    """
    check_eps(eps)
    dd = point_hyperplane_distance(x0_plus, X0_minus)
    if dd.lower < 2 * eps:
        raise PreconditionError(
            f"d(x0+, X0-) = {dd.lower} < 2 eps = {2 * eps}"
        )
    field = x0_plus.field
    if field.kind == "padic":
        v0 = rational_valuation(X0_minus.pair(x0_plus), field.p)
        k = max(v0, _padic_eps_exponents(eps, field.p)[0] - v0)
        return REpsEstimate(2 * k * math.log(field.p), k, field.p)
    f1 = float(np.abs(X0_minus.functional).sum())
    fx = abs(X0_minus.pair(x0_plus))
    return REpsEstimate(2 * max(math.log(f1 / fx), math.log(fx / (eps * f1))))


def eps_proximal_check(
    g,
    eps: float,
    field: FieldDesc,
    pd: ProximalData | None = None,
    gap_tol: float = _GAP_TOL,
) -> EpsProximalVerdict:
    """Check the two epsilon-proximality conditions for g (0 < eps).

    (1) d(x+, X-) >= 2*eps; (2) every x with d(x, X-) >= eps satisfies
    d(g.x, x+) <= eps.  Condition (2) is decided exactly: over Q_p by
    ``_padic_contraction_witness``, over R/C by
    ``archimedean._box_contraction_witness`` (with respect to the float x+
    and functional f of X-, exact dyadic rationals) on {|f.v| >= eps
    ||f||_1 ||v||}: a strict subset of the eps-far set when X- is off the
    axes, which the reason of such a pass names.  A verdict is certified
    unless the box search left a box open: ``indeterminate``, ok False.
    """
    check_eps(eps)
    if pd is None:
        try:
            pd = proximal_analyze(g, field, gap_tol=gap_tol)
        except IndeterminateError:
            return EpsProximalVerdict(False, False, "indeterminate proximality")
    if pd is None:
        return EpsProximalVerdict(False, True, "not proximal")
    d1 = point_hyperplane_distance(pd.attracting, pd.repelling)
    if d1.lower < 2 * eps:
        reason = "condition (1) fails: attracting point too close to hyperplane"
        # certified when even the upper bound on d(x+, X-) is below 2 eps
        return EpsProximalVerdict(False, d1.exact or d1.upper < 2 * eps, reason)
    search, name = _box_contraction_witness, "box"
    if field.kind == "padic":
        search = functools.partial(_padic_contraction_witness, p=field.p)
        name = "digit-tree"
    try:
        witness = search(g, pd, eps)
    except IndeterminateError as e:
        return EpsProximalVerdict(False, False, f"indeterminate: {e}")
    if witness is None:
        on = ""
        if field.kind != "padic" and pd.repelling.aligned_axis() is None:
            on = ": holds on {|f.v| >= eps ||f||_1 ||v||}, a subset of the eps-far set"
        return EpsProximalVerdict(True, True, f"exact {name} search{on}")
    return EpsProximalVerdict(False, True, f"condition (2) fails at a {name} witness")


def check_eps(eps):
    """Refuse an eps that is not a positive finite number."""
    if not (math.isfinite(eps) and eps > 0):
        raise PreconditionError(f"eps must be positive and finite, got {eps!r}")


def _padic_contraction_witness(g, pd, eps, p):
    """None when condition (2) holds over Q_p, else a failure witness: a
    primitive integer vector u with d([u], X-) >= eps and
    d([g u], x+) > eps.

    With F, A primitive integer vectors on X- and x+, G an integer
    multiple of g and u primitive, d([u], X-) = p^-v(F.u) and
    d([Gu], x+) = p^-(v(minors(Gu, A)) - c), c = v(content(Gu)); so u
    fails iff v(F.u) <= e and v(minors(Gu, A)) < k + c, with (e, k) from
    ``_padic_eps_exponents``.

    Each standard chart of P^{d-1}(Z_p) (u_j = 1, u_i in pZ_p for i < j)
    is searched depth first by the p-adic digits of u.  A node knows each
    u_i mod p^L_i, hence F.u, Gu and minors(Gu, A) modulo p^t, where t is
    the least L_i plus the valuation of F_i, of G e_i or of
    minors(G e_i, A) respectively.  It
    closes once every lift passes or lies outside the eps-far set, and is
    returned once every lift is eps-far and fails; otherwise it splits on
    the next digit of the coordinate that limits the undecided quantity.

    Every node is decided with all L_i <= max(e + 1, k + e + s + 1): with
    psi G = F and s = -v_min(psi), F.u = psi . Gu gives
    c <= v(F.u) + s <= e + s on the eps-far set.  Such a psi exists iff
    the kernel of g lies in X- (always when g is invertible, or preserves
    X- and fixes x+); other matrices send a point off X- to 0 and are
    refused.
    """
    F = primitive(pd.repelling.functional)
    A = primitive(pd.attracting.vec)
    G = ratio_form(g)[0]
    psi = solve(tuple(zip(*G)), F)
    if psi is None:
        raise PreconditionError("matrix sends a point off X- to zero")
    e, k = _padic_eps_exponents(eps, p)
    bottom = max(e + 1, k + e - _content(psi, p) + 1)
    # the valuations of F_i, G e_i and minors(G e_i, A), per coordinate i
    gains = [(rational_valuation(f, p), _int_content(col, p),
              _int_content(_minors(col, A), p))
             for f, col in zip(F, zip(*G))]
    n = len(F)
    for j in range(n):
        stack = [(tuple(int(i == j) for i in range(n)),
                  tuple(INF if i == j else int(i < j) for i in range(n)))]
        while stack:
            u, L = stack.pop()
            known = [min(l + gain[q] for l, gain in zip(L, gains))
                     for q in range(3)]
            f = rational_valuation(sum(a * b for a, b in zip(F, u)), p)
            gu = mat_vec(G, u)
            c = _int_content(gu, p)
            m = _int_content(_minors(gu, A), p) if c < known[1] else None
            if m is not None and k + c <= min(m, known[2]):
                continue  # every lift passes
            if min(f, known[0]) > e:
                continue  # F.u = 0 mod p^(e+1): outside the eps-far set
            if f >= known[0]:
                q = 0  # v(F.u) undecided
            elif m is None:
                q = 1  # c undecided
            elif m < min(k + c, known[2]):
                return u  # every lift is eps-far and fails
            else:
                q = 2  # v(minors(Gu, A)) undecided
            i = min(range(n), key=lambda i: L[i] + gains[i][q])
            if L[i] >= bottom:
                raise NumericalError("digit-tree search left a node open")
            step = p ** L[i]
            deeper = L[:i] + (L[i] + 1,) + L[i + 1:]
            stack.extend((u[:i] + (u[i] + t * step,) + u[i + 1:], deeper)
                         for t in range(p))
    return None


@dataclass
class SandwichReport:
    lower: object
    value: object
    upper: object
    passed: bool
    r_eps: REpsEstimate
    eps_verdicts: list = dc_field(default_factory=list)


def product_sandwich_check(
    zs,
    ks,
    eps: float,
    field: FieldDesc,
    attracting: ProjPoint | None = None,
    repelling: ProjHyperplane | None = None,
) -> SandwichReport:
    """Verify the norm sandwich for z_1 k_2 z_2 ... k_n z_n.

    Hypotheses are verified, not assumed: each z_i must be eps-proximal
    with the common attracting line / repelling hyperplane and act on
    the line as a homothety of ratio equal to its operator norm; each
    k_i must be a sup-norm isometry whose image of the attracting point
    stays 2*eps away from the hyperplane.  Violations raise
    PreconditionError naming the offending index.

    The bounds are exp(-(n-1) r_eps) * prod ||z_i|| <= ||product|| <=
    prod ||z_i||, compared exactly over padic fields and with relative
    tolerance over R/C.
    """
    n = len(zs)
    if n == 0:
        raise PreconditionError("need at least one contracting factor")
    tol = 0 if field.kind == "padic" else _SANDWICH_TOL
    if len(ks) != n - 1:
        raise PreconditionError(
            f"need exactly {n - 1} isometries for {n} factors, got {len(ks)}"
        )
    if attracting is None or repelling is None:
        pd0 = proximal_analyze(zs[0], field)
        if pd0 is None:
            raise PreconditionError("z_1 is not proximal", index=0)
        attracting = attracting or pd0.attracting
        repelling = repelling or pd0.repelling

    est = r_eps(attracting, repelling, eps)

    verdicts = []
    for i, z in enumerate(zs):
        zi_x0 = _apply_to_point(z, attracting)
        if zi_x0 != attracting:
            raise PreconditionError(
                f"z_{i + 1} does not fix the attracting line", index=i
            )
        if not _preserves_hyperplane(z, repelling, field):
            raise PreconditionError(
                f"z_{i + 1} does not preserve the repelling hyperplane", index=i
            )
        ratio = _line_ratio(z, attracting, field)
        norm = sup_operator_norm(z, field)
        if abs(abs_value(ratio, field) - norm) > tol * norm:
            raise PreconditionError(
                f"z_{i + 1} homothety ratio differs from its norm", index=i
            )
        verdict = eps_proximal_check(
            z, eps, field, pd=ProximalData(ratio, attracting, repelling, 0.0))
        if not verdict.ok:
            raise PreconditionError(
                f"z_{i + 1} is not eps-proximal: {verdict.reason}", index=i
            )
        verdicts.append(verdict)
    for i, k in enumerate(ks):
        if not _is_isometry(k, field):
            raise PreconditionError(f"k_{i + 2} is not a sup-norm isometry", index=i)
        kx = _apply_to_point(k, attracting)
        dk = point_hyperplane_distance(kx, repelling)
        if dk.lower < 2 * eps:
            raise PreconditionError(
                f"k_{i + 2} moves the attracting point too close to the "
                f"hyperplane (d = {float(dk.lower)})",
                index=i,
            )

    factors = [zs[0]]
    for k, z in zip(ks, zs[1:]):
        factors += [k, z]
    if field.kind == "padic":
        prod = functools.reduce(mat_mul, map(mat_from_rows, factors))
    else:
        prod = functools.reduce(np.matmul, map(to_float_array, factors))
    value = sup_operator_norm(prod, field)
    upper = math.prod(sup_operator_norm(z, field) for z in zs)
    lower = est.contraction_factor(n) * upper
    passed = lower * (1 - tol) <= value <= upper * (1 + tol)
    return SandwichReport(lower, value, upper, bool(passed), est, eps_verdicts=verdicts)


def _preserves_hyperplane(z, H: ProjHyperplane, field) -> bool:
    """Whether z maps the hyperplane into itself: the pulled-back
    functional f . z is proportional to f."""
    f = H.functional
    zt = tuple(zip(*mat_from_rows(z))) if field.kind == "padic" else to_float_array(z).T
    pulled = _image(zt, f, field)
    minors = _minors(pulled, f)
    if field.kind == "padic":
        return not any(minors)
    scale = max(np.abs(pulled).max(), 1e-300)
    return bool(max(map(abs, minors), default=0) < 1e-9 * scale)


def _line_ratio(z, x0: ProjPoint, field):
    v = x0.vec
    w = _image(z, v, field)
    if field.kind == "padic":
        j = next(i for i, x in enumerate(v) if x != 0)
        return w[j] / v[j]
    j = int(np.abs(v).argmax())
    return complex(w[j] / v[j]) if np.iscomplexobj(w) else float(w[j] / v[j])


# ---------------------------------------------------------------------------
# weight-pairing defect of products


def chi_mu_gap(gs, i0: int):
    """|<chi_i0, mu(prod) - sum mu(g_i)>| for SL_n elements.

    Always >= 0, and equal to the log-norm defect of the wedge-power
    product by the norm identities; submultiplicativity makes the sum
    side the larger one.
    """
    if not gs:
        raise PreconditionError("empty element list")
    prod = gs[0]
    for g in gs[1:]:
        prod = prod @ g
    total = sum(weight_pairing(i0, cartan(g)) for g in gs)
    return abs(weight_pairing(i0, cartan(prod)) - total)
