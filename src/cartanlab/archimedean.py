"""The archimedean kernels of ``projective``: the float distance of
points of P(R^d) or P(C^d) to a point, with the unit attaining it, and
the exact search of condition (2) of eps-proximality over R and C.

The search runs on Gaussian integers: the float x+, functional of X-,
eps and matrix are exact dyadic rationals, and every bound it takes is
an integer inequality.  It lives apart from ``projective`` because the
compiler's working memory for the largest module sets the peak memory of
importing the package, and inside ``projective`` it raised that peak.
"""

from __future__ import annotations

import collections
import math
from fractions import Fraction
from itertools import combinations
from operator import mul

import numpy as np

from .cartan import GroupElement
from .errors import IndeterminateError, PreconditionError
from .exact import solve
from .fields import FieldDesc

# the most boxes one search of condition (2) opens
_BOX_BUDGET = 2000
# bits of the Gaussian-integer phases and moduli of the search
_BITS = 40


def _row_distances(W, x, field: FieldDesc):
    """(d([w], [x]), a unit attaining it) for each sup-normalised row w of
    W and sup-normalised x: min over units u of max_j |w_j - u x_j|, over
    R (u = +-1) or C (the field, or either array complex).

    Over C the least maximum of g_j = |w_j - e^(i theta) x_j|^2 lies at
    some phi_i = arg(w_i conj(x_i)) or where two terms i < j cross.  From
    a = e^(i phi), phi the one of phi_i, phi_j with the larger |w x|, at
    e^(i theta) = a e^(is) each term is |y|^2 + 2 (1 - cos s)(Re k +
    |x|^2) + 2 sin(s) Im k for y = w - a x, k = conj(y) a x; with C, P, Q
    the differences (i minus j) of these, t = tan(s/2) solves
    (C + 4P) t^2 + 4Q t + C = 0, and e^(is) = ((1 + it) / |1 + it|)^2.
    Nothing of order 1 cancels, so nearby points get a distance right to
    a few ulps.  Each of these d + d(d - 1) candidates is one elementwise
    pass; a spare one (u = 1 for an undefined phase, a crossing that does
    not exist) is a unit too, so it cannot undercut the minimum.
    """
    if not (field.kind == "complex" or np.iscomplexobj(W) or np.iscomplexobj(x)):
        plus, minus = np.abs(W - x).max(axis=1), np.abs(W + x).max(axis=1)
        return np.minimum(plus, minus), np.where(plus <= minus, 1.0, -1.0)
    WT = np.ascontiguousarray(W.T, dtype=complex)  # one coordinate per row
    x = np.asarray(x, dtype=complex)[:, None]
    best, units = np.full(len(W), np.inf), np.ones(len(W), dtype=complex)

    def fold(u):
        d = np.abs(WT - u * x).max(axis=0)
        np.copyto(units, u, where=d < best)
        np.minimum(best, d, out=best)

    def unit(w):  # w / |w| (1 at 0) by real divisions: numpy's complex one
        # overflows on a subnormal |w|
        r = np.abs(w)
        return np.divide(w.real, r, where=r > 0, out=np.ones_like(r)) + 1j * (
            np.divide(w.imag, r, where=r > 0, out=np.zeros_like(r)))

    z = WT * x.conj()
    B, phases, x2 = np.abs(z), unit(z), np.abs(x) ** 2
    for a in phases:
        fold(a)
    for i, j in combinations(range(len(x)), 2):
        a = np.where(B[i] >= B[j], phases[i], phases[j])
        yi, yj = WT[i] - a * x[i], WT[j] - a * x[j]
        ki, kj = yi.conj() * a * x[i], yj.conj() * a * x[j]
        C = np.abs(yi) ** 2 - np.abs(yj) ** 2
        P = (ki.real + x2[i]) - (kj.real + x2[j])
        Q = ki.imag - kj.imag
        A = C + 4 * P
        q = -2 * Q - np.copysign(np.sqrt(np.maximum(4 * Q * Q - A * C, 0)), Q)
        fold(a * unit(A + 1j * q) ** 2)  # t = q / A
        fold(a * unit(q + 1j * C) ** 2)  # t = C / q
    return best, units


def _gaussian_ints(values):
    """Gaussian integers (a, b) and the least d > 0 with (a + ib) / d the
    given scalars (a float converts without rounding, an element of
    Q(sqrt r) as its float)."""
    zs = [(Fraction(x.real), Fraction(x.imag))
          if isinstance(x, (complex, np.complexfloating)) else
          (Fraction(x if isinstance(x, (int, float, Fraction)) else float(x)), 0)
          for x in values]
    d = math.lcm(*(Fraction(c).denominator for z in zs for c in z))
    return [(int(a * d), int(b * d)) for a, b in zs], d


def _phase(u):
    """(a, b, c) with a + ib next to 2^_BITS u / |u| and c >= |a + ib|, so
    that Re(conj(a + ib) z) / c <= |z| for every z."""
    if not u:
        return 0, 0, 1
    a, b = (round(t / abs(u) * (1 << _BITS)) for t in (u.real, u.imag))
    return a, b, math.isqrt(a * a + b * b - 1) + 1


# A form is an affine function of the box coordinates y with integer
# coefficients: (constant, coefficients), or centred on a box C / Q with
# radii R / Q: (Q times its value at the centre, coefficients).


def _at(form, C, Q):
    return form[0] * Q + sum(map(mul, form[1], C)), form[1]


def _comb(pairs):
    """The form sum k f over the pairs (k, f)."""
    ks = [k for k, _ in pairs]
    return (sum(k * f[0] for k, f in pairs),
            [sum(map(mul, ks, col)) for col in zip(*(f[1] for _, f in pairs))])


def _cdot(pairs):
    """The Gaussian form sum (a + ib) z over pairs ((a, b), z), z a pair
    of (re, im) forms."""
    return (_comb([p for (a, b), (zr, zi) in pairs for p in ((a, zr), (-b, zi))]),
            _comb([p for (a, b), (zr, zi) in pairs for p in ((a, zi), (b, zr))]))


def _dev(form, R):
    """Q times the largest change of a centred form over its box."""
    return sum(map(mul, map(abs, form[1]), R))


def _sq_range(z, R):
    """Q^2 times bounds lo <= |z|^2 <= hi over the box of a Gaussian form."""
    return (sum(max(abs(f[0]) - _dev(f, R), 0) ** 2 for f in z),
            sum((abs(f[0]) + _dev(f, R)) ** 2 for f in z))


def _low_quad(terms, R):
    """Q^2 times a lower bound over the box of sum k f g, over the terms
    (k, f, g) of centred forms: the value at the centre, the linear part
    at its worst corner and the quadratic rest by its size (none for k f
    f with k > 0, a square)."""
    grad, value, rest = [0] * len(R), 0, 0
    for k, f, g in terms:
        value += k * f[0] * g[0]
        grad = [s + k * (f[0] * b + g[0] * a) for s, a, b in zip(grad, f[1], g[1])]
        if k < 0 or f is not g:
            rest += abs(k) * _dev(f, R) * _dev(g, R)
    return value - _dev((0, grad), R) - rest


def _box_holds(w, R, X, D, E, field):
    """Whether d([w], x) <= eps on the whole box, for the centred Gaussian
    forms w of the image, x = X / D and eps = E / D.

    Fix L next to the unit nearest at the centre (a float search; a sign
    over R) and let z = conj(L) w.  Coordinate i holds iff P(M) = -c M^2 + 2 r M - |z_i|^2
    >= 0 at M = max |z_l|, with r = Re(conj(z_i) x_i) and c = |x_i|^2 -
    eps^2; so P(|z_l|) >= 0 is shown for every l that can be largest on
    the box, from an anchor a_l = Re(conj(phi_l) z_l) / |phi_l| <= |z_l|,
    phi_l next to the phase of z_l at the centre.  If c > 0, i holds only
    where r >= 0, and there P(|z_l|) >= 2 r a_l - |z_i|^2 - c |z_l|^2; if
    c <= 0, P is convex and P(|z_l|) >= P(a_l) where P'(a_l) >= 0.  Each
    bound is scaled to integers by D and |phi_l|."""
    top = max(abs(c) for z in w for c in (z[0][0], z[1][0]))
    v = np.array([complex(re[0] / top, im[0] / top) for re, im in w])
    x = np.array([complex(a / D, b / D) for a, b in X])
    if field.kind != "complex":  # over R the unit is a sign
        v, x = v.real, x.real
    unit = _row_distances((v / np.abs(v).max())[None], x, field)[1][0]
    lr, li, _ = _phase(unit)
    z = [_cdot([((lr, -li), zw)]) for zw in w]
    anchors = [(_comb([(a, zr), (b, zi)]), c)
               for (zr, zi), (a, b, c) in zip(z, map(_phase, np.conj(unit) * v))]
    k = int(np.abs(v).argmax())
    floor = _sq_range(z[k], R)[0]
    rivals = [l for l in range(len(z)) if _sq_range(z[l], R)[1] >= floor]
    for (zr, zi), (xr, xi) in zip(z, X):
        r = _comb([(xr, zr), (xi, zi)])
        c = xr * xr + xi * xi - E * E
        for l in rivals:
            a, q = anchors[l]
            slope = _comb([(D * q, r), (-min(c, 0), a)])
            square = [(-c * q * q, y, y) for y in z[l]] if c > 0 else [(-c, a, a)]
            if slope[0] < _dev(slope, R) or _low_quad(
                    [(2 * D * q, r, a), (-(q * D) ** 2, zr, zr), (-(q * D) ** 2, zi, zi),
                     *square], R) < 0:
                return False
    return True


def _point_holds(w, X, D, E, field):
    """Whether d([w], x) <= eps, exactly, for Gaussian integers w, x = X /
    D and eps = E / D.  With |u|^2 = M^2 = max |w_i|^2, |w_i - u x_i| <=
    eps M is the half-plane 2 Re(conj(w_i) x_i u) >= |w_i|^2 + M^2 (|x_i|^2
    - eps^2).  Over R u = +-M.  Over C the convex polygon they cut meets
    the circle |u| = M iff it has a point with |u| <= M (its point nearest
    0 is 0, a foot of a perpendicular or a corner) and a corner or an end
    at infinity with |u| >= M.  Points are integer (x, y, d) for (x, y) /
    d, ends (x, y, 0)."""
    M2 = max(a * a + b * b for a, b in w)
    lines = [((2 * D * (a * xa + b * xb), 2 * D * (b * xa - a * xb)),
              D * D * (a * a + b * b) + M2 * (xa * xa + xb * xb - E * E))
             for (a, b), (xa, xb) in zip(w, X)]

    def inside(u):
        return all(n[0] * u[0] + n[1] * u[1] >= h * u[2] for n, h in lines)

    if field.kind != "complex":
        return inside((math.isqrt(M2), 0, 1)) or inside((-math.isqrt(M2), 0, 1))
    corners = []
    for (n, h), (m, j) in combinations(lines, 2):
        d = n[0] * m[1] - n[1] * m[0]
        if d:
            s = 1 if d > 0 else -1
            corners.append((s * (h * m[1] - j * n[1]), s * (n[0] * j - m[0] * h), s * d))
    feet = [(h * n[0], h * n[1], n[0] ** 2 + n[1] ** 2) for n, h in lines if n != (0, 0)]
    ends = [(s * n[1], -s * n[0], 0) for n, _ in [((0, 1), 0), *lines] if n != (0, 0)
            for s in (1, -1)]
    return (any(inside(u) and u[0] ** 2 + u[1] ** 2 <= M2 * u[2] ** 2
                for u in [(0, 0, 1), *feet, *corners])
            and any(inside(u) and u[0] ** 2 + u[1] ** 2 >= M2 * u[2] ** 2
                    for u in corners + ends))


def _box_contraction_witness(g, pd, eps):
    """None when condition (2) holds over R/C, else a failure witness: a
    float vector u with d([u], X-) >= eps and d([g u], x+) > eps.

    It is decided for the float x+ and functional of X-, read with eps and
    g as Gaussian integers: F, x = X / D and eps = E / D.  With S <=
    2^_BITS ||F||_1 <= S' (S = S' over R), each eps-far point has one
    representative u with F.u = E S and ||u|| <= nu = D 2^_BITS, and for
    the largest |F_m|, |F_m|^2 u is an integer form of the real (over C
    also imaginary) parts y of the u_i, i != m.  So the eps-far set lies
    in the box |y_j| <= nu cut by ||u|| <= nu.

    Boxes are searched breadth first.  A box closes when it lies outside
    the cut or ``_box_holds`` shows that it passes.  Else its centre is
    returned if it is eps-far (against S') and ``_point_holds`` says it
    fails, or the box is halved along the coordinate that moves g u
    most.  More than ``_BOX_BUDGET`` boxes raise IndeterminateError.  A g
    that sends a point off X- to zero is refused, as over Q_p.
    """
    field = pd.attracting.field
    F = _gaussian_ints(pd.repelling.functional)[0]
    X, D = _gaussian_ints([*pd.attracting.vec, eps])
    E, n = X.pop()[0], len(F)
    G = _gaussian_ints([c for row in (g.matrix if isinstance(g, GroupElement) else g)
                        for c in row])[0]
    G = [G[i * n:i * n + n] for i in range(n)]
    real = [[c for a, b in row for c in (a, -b)] for row in G]
    real += [[c for a, b in row for c in (b, a)] for row in G]
    if solve(tuple(zip(*real)), [c for a, b in F for c in (a, -b)]) is None:
        raise PreconditionError("matrix sends a point off X- to zero")
    m = max(range(n), key=lambda i: F[i][0] ** 2 + F[i][1] ** 2)
    mods = [(a * a + b * b) << 2 * _BITS for a, b in F]
    s_lo, s_hi = sum(map(math.isqrt, mods)), sum(math.isqrt(q - 1) + 1 for q in mods if q)
    parts = 2 if field.kind == "complex" else 1
    free = [(i, q) for i in range(n) if i != m for q in range(parts)]
    Y = [[(int(i == m and q == 0), [int(f == (i, q)) for f in free]) for q in (0, 1)]
         for i in range(n)]  # u_i, and 1 at m
    (a, b), c, nm = F[m], E * s_lo, F[m][0] ** 2 + F[m][1] ** 2
    U = [_cdot([((nm, 0), y)]) if i != m else _cdot(  # u_m = conj(F_m) (E S - ...) / nm
        [((a * c, -b * c), y)] + [((-a * p - b * q, b * p - a * q), Y[j])
                                  for j, (p, q) in enumerate(F) if j != m])
         for i, y in enumerate(Y)]
    W = [_cdot(list(zip(row, U))) for row in G]
    k, nu = len(free), D << _BITS
    moves = [sum(abs(f[1][j]) for z in W for f in z) for j in range(k)]
    queue, boxes = collections.deque([([0] * k, [nu] * k, 1)]), 0
    while queue:
        if boxes == _BOX_BUDGET:
            raise IndeterminateError(
                f"the box search left a box open after {boxes} boxes")
        boxes += 1
        C, R, Q = queue.popleft()
        u = [[_at(f, C, Q) for f in z] for z in U]
        if any(_sq_range(z, R)[0] > (Q * nm * nu) ** 2 for z in u):
            continue  # outside the cut
        w = [[_at(f, C, Q) for f in z] for z in W]
        if _box_holds(w, R, X, D, E, field):
            continue
        point, top = [(re[0], im[0]) for re, im in u], Q * nm * nu
        if (max(a * a + b * b for a, b in point) * s_hi ** 2 <= (top * s_lo) ** 2
                and not _point_holds([(re[0], im[0]) for re, im in w], X, D, E, field)):
            vec = np.array([complex(a / top, b / top) for a, b in point])
            return vec if field.kind == "complex" else vec.real
        j = max(range(k), key=lambda j: (R[j] * moves[j], R[j]))
        if R[j] % 2:
            C, R, Q = [2 * c for c in C], [2 * r for r in R], 2 * Q
        for c in (C[j] + R[j] // 2, C[j] - R[j] // 2):
            queue.append((C[:j] + [c] + C[j + 1:], R[:j] + [R[j] // 2] + R[j + 1:], Q))
    return None
