"""Deformation stability of Cartan projections and properness margins.

Given a presentation, a reference homomorphism, and a deformation, the
scan records per-element deviations ||mu(phi(g)) - mu(phi_ref(g))|| over
a word ball and fits the affine envelope

    deviation <= eps_hat * ||mu(g)|| + C_hat

with a canonical policy: C_hat is the max deviation over short elements
(||mu|| <= rho0), eps_hat the worst residual slope over the rest.  The
envelope is valid on every row by construction.  ``stability_scans``
runs several deformations over one ball: the reference relator check,
the reference ball, its Cartan projections and their norms are computed
once, and each deformation's float images, one stack from
``BallResult.image_stack``, go straight into ``cartan._svd_rows``.  The
seminorm defect of a factorization is a separate pass over the same ball
(``seminorm_defects``).  Every pass takes the projections of a ball as
one array, one row per element, and builds no ``CartanVector``; the
norms of its rows are one stacked product (``_row_norms``), which keeps
the bits of a 1-D ``np.linalg.norm`` per row.

The properness side compares sampled Cartan projections against the
cone swept by a subgroup's Cartan image; a strictly positive fitted
lower-envelope slope at a given ball radius is a finite-radius
properness certificate (explicitly non-asymptotic).

Chamber bookkeeping: "simple root" functionals are x_i - x_{i+1}
(plus x_rank for the folded SO/U cone), "coroots" their dual basis
vectors, and the weight functionals are the partial sums; these cut out
exactly the chamber conventions of the cartan module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cartan import (CartanVector, GroupDesc, GroupElement, _mu_rows, _svd_rows,
                     cartan, mu_norm)
from .errors import PreconditionError
from .wordgroups import (BallResult, Homomorphism, Presentation, check_relators,
                         evaluate, word_ball)

_RAY_TOL = 1e-8
_COMPACT_TOL = 1e-9  # a mu-norm at most this is a compact direction of a cone
_ENVELOPE_SLACK = 1e-9  # rounding an envelope may show on its own rows
_AXIS_POWERS = (1, 2, 3)  # powers of an axis generator whose ratios must agree
RELATOR_TOL = 1e-9  # max entry deviation a relator may show under either homomorphism


def simple_root_values(v, family: str) -> list:
    """Pairings of v with the simple-root functionals of its chamber."""
    x = list(v.coords) if isinstance(v, CartanVector) else list(v)
    vals = [x[i] - x[i + 1] for i in range(len(x) - 1)]
    if family != "SL":
        vals.append(x[-1])
    return vals


def coroot_basis(family: str, length: int) -> np.ndarray:
    """Columns span the chamber's coroot directions (see module docs):
    e_i - e_(i+1), and e_length for the folded SO/U cone."""
    B = np.eye(length) - np.eye(length, k=-1)
    return B[:, :-1] if family == "SL" else B


def weight_values(v, indices) -> list:
    """Partial-sum weight functionals <chi_i, v> for i in indices (1-based)."""
    x = list(v.coords) if isinstance(v, CartanVector) else list(v)
    return [sum(x[:i]) for i in indices]


@dataclass
class DeltaLData:
    """Restricted-root data of a rank-one subgroup's Cartan axis.

    delta_indices are 1-based simple-root indices with both half-line
    constants positive; projection is the orthogonal projection onto the
    span of their coroots; c satisfies the two-sided seminorm
    equivalence on that subspace.
    """

    group: GroupDesc
    delta_indices: tuple
    t_plus: dict
    t_minus: dict
    projection: np.ndarray
    c: float


def delta_l_constants(
    axis_generator: GroupElement,
    group: GroupDesc,
    tol: float = 1e-8,
) -> DeltaLData:
    """Half-line pairing constants of the subgroup axis through the
    generator, verified constant over the powers ``_AXIS_POWERS``."""
    family = group.family
    plus_ratios = []
    minus_ratios = []
    g = axis_generator
    ginv = axis_generator.inv()
    for k in _AXIS_POWERS:
        acc_p, acc_m = g, ginv
        for _ in range(k - 1):
            acc_p = acc_p @ g
            acc_m = acc_m @ ginv
        mu_p = cartan(acc_p)
        mu_m = cartan(acc_m)
        np_, nm = mu_norm(mu_p), mu_norm(mu_m)
        if np_ < tol or nm < tol:
            raise PreconditionError("axis sample has vanishing Cartan projection")
        plus_ratios.append([a / np_ for a in simple_root_values(mu_p, family)])
        minus_ratios.append([a / nm for a in simple_root_values(mu_m, family)])

    def collapse(rows, side):
        first = rows[0]
        for row in rows[1:]:
            spread = max(abs(a - b) for a, b in zip(first, row))
            if spread > tol:
                raise PreconditionError(
                    f"inconsistent {side} half-line ratios (spread {spread:.2e}); "
                    "embedding is not axis-aligned"
                )
        return first

    tp = collapse(plus_ratios, "positive")
    tm = collapse(minus_ratios, "negative")
    delta = []
    t_plus, t_minus = {}, {}
    for i, (a, b) in enumerate(zip(tp, tm), start=1):
        pos_a, pos_b = a > tol, b > tol
        if pos_a != pos_b:
            raise PreconditionError(
                f"root {i} pairs with only one half-line (t+ = {a:.3e}, "
                f"t- = {b:.3e}); the seminorm machinery needs a clean split"
            )
        t_plus[i], t_minus[i] = max(a, 0.0), max(b, 0.0)
        if pos_a:
            delta.append(i)
    if not delta:
        raise PreconditionError("no simple root restricts nontrivially to the axis")
    length = group.mu_length
    B = coroot_basis(family, length)[:, [i - 1 for i in delta]]
    q, _ = np.linalg.qr(B)
    projection = q @ q.T
    # chi functionals restricted to the subspace, in the orthonormal frame
    chi_rows = np.array([
        [1.0] * i + [0.0] * (length - i) for i in delta
    ])
    T = chi_rows @ q
    sv = np.linalg.svd(T, compute_uv=False)
    k = len(delta)
    c = max(1.0, 1.0 / float(sv[-1]), math.sqrt(k) * float(sv[0]))
    return DeltaLData(group, tuple(delta), t_plus, t_minus, projection, c)


def seminorm(v, data: DeltaLData) -> float:
    """Euclidean norm of the orthogonal projection onto the coroot span."""
    x = np.asarray(v.coords if isinstance(v, CartanVector) else v, dtype=float)
    if x.shape[0] != data.projection.shape[0]:
        raise PreconditionError("dimension mismatch")
    return float(np.linalg.norm(data.projection @ x))


def seminorm_bounds_check(v, data: DeltaLData):
    """The two-sided equivalence c^-1 * sum|chi| <= |v| <= c * sum|chi|.

    Meaningful for v in the coroot span (the seminorm's natural domain);
    returns (lower, value, upper).
    """
    s = sum(abs(t) for t in weight_values(v, data.delta_indices))
    val = seminorm(v, data)
    return s / data.c, val, s * data.c


@dataclass
class ConeGapResult:
    in_class: bool
    bound: float | None


def cone_gap(x, x_prime, e1_basis, delta: float, c_second: float) -> ConeGapResult:
    """Membership and normalized-gap bound of the Euclidean cone lemma.

    in_class requires x in the subspace, the projected deviation within
    2*delta*||x|| + C'', and ||x'|| within (1+delta)*||x|| + C''; the
    bound (||x' - x|| - 4 C''/delta) / ||x|| tends to 0 with delta over
    in-class pairs.
    """
    if delta <= 0:
        raise PreconditionError("delta must be positive")
    if c_second < 0:
        raise PreconditionError("C'' must be nonnegative")
    x = np.asarray(x, dtype=float)
    xp = np.asarray(x_prime, dtype=float)
    B = np.asarray(e1_basis, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    elif B.shape[0] != x.shape[0]:
        B = B.T
    q, _ = np.linalg.qr(B)
    proj = q @ q.T
    nx = float(np.linalg.norm(x))
    in_sub = float(np.linalg.norm(x - proj @ x)) <= 1e-9 * max(1.0, nx)
    dev1 = float(np.linalg.norm(proj @ (xp - x)))
    cond2 = dev1 <= 2 * delta * nx + c_second + 1e-12
    cond3 = float(np.linalg.norm(xp)) <= (1 + delta) * nx + c_second + 1e-12
    in_class = bool(in_sub and cond2 and cond3)
    if nx == 0:
        raise PreconditionError("bound undefined for x = 0")
    bound = (float(np.linalg.norm(xp - x)) - 4 * c_second / delta) / nx
    return ConeGapResult(in_class, bound)


# ---------------------------------------------------------------------------
# stability scans


@dataclass
class StabilityRow:
    word: object
    length: int
    mu_norm: float
    deviation: float


@dataclass
class StabilityReport:
    rows: list
    eps_hat: float
    c_hat: float
    rho0: float
    radius: int
    policy: str = "split-envelope"
    ball: BallResult | None = None  # rows[k] is the word of ball.entries[k]

    def envelope_valid(self) -> bool:
        return all(
            r.deviation <= self.eps_hat * r.mu_norm + self.c_hat + _ENVELOPE_SLACK
            for r in self.rows
        )


def fit_envelope(rows, rho0: float):
    """(eps_hat, c_hat) of the canonical split envelope."""
    c_hat = max([0.0] + [r.deviation for r in rows if r.mu_norm <= rho0])
    eps_hat = max([0.0] + [(r.deviation - c_hat) / r.mu_norm
                           for r in rows if r.mu_norm > rho0])
    return eps_hat, c_hat


def _row_norms(X) -> list:
    """``float(np.linalg.norm(row))`` of each row of a 2-D float array, bit
    for bit, by one stacked product (a row sum of squares is not)."""
    return np.sqrt(np.matmul(X[:, None, :], X[:, :, None])).reshape(-1).tolist()


def _check_rho0(rho0):
    """Refuse a NaN or negative rho0; None (the default) and math.inf pass."""
    if rho0 is not None and not rho0 >= 0:
        raise PreconditionError(f"rho0 must be a nonnegative number, got {rho0!r}")


def _require_relators(P: Presentation, name: str, phi: Homomorphism):
    rep = check_relators(P, phi, tol=RELATOR_TOL)
    if not rep.ok:
        raise PreconditionError(f"{name} homomorphism fails relators: {rep.failures}")


def _image_mus(ball: BallResult, phi: Homomorphism) -> np.ndarray:
    """mu of phi's image of every ball word, float rows: a float image
    stack straight into ``_svd_rows``, exact images by ``_mu_rows``."""
    stack = ball.image_stack(phi)
    if stack is None:
        return np.asarray(_mu_rows(ball.images(phi), phi.group), dtype=float)
    return _svd_rows(stack, phi.group)


def stability_scans(
    P: Presentation,
    phi_ref: Homomorphism,
    phis,
    radius: int,
    rho0: float | None = None,
) -> list:
    """One ``StabilityReport`` per deformation in phis, over one ball.

    The reference relators, the reference ball and the reference Cartan
    projections are computed once; each deformation then costs its
    relator check and one image pass with its projections
    (``_image_mus``); one with the reference's own exact images reuses
    the reference's.  Each report equals ``stability_scan`` of it.
    """
    _check_rho0(rho0)
    phis = list(phis)
    _require_relators(P, "reference", phi_ref)
    for phi in phis:
        _require_relators(P, "deformed", phi)
        if phi.group != phi_ref.group:
            raise PreconditionError("a deformation must map into the reference group")
    ball = word_ball(P, phi_ref, radius).require_complete()
    if rho0 is None:
        rho0 = max(
            (mu_norm(cartan(g)) for g in phi_ref.images), default=0.0
        ) + 1.0
    group = phi_ref.group
    mus_ref = np.asarray(_mu_rows(ball.elements(), group), dtype=float)
    norms = _row_norms(mus_ref)
    reports = []
    for phi in phis:
        same = phi.images == phi_ref.images and all(g.is_exact for g in phi.images)
        devs = (mus_ref if same else _image_mus(ball, phi)) - mus_ref
        rows = [StabilityRow(e.word, len(e.word), n, dev)
                for e, n, dev in zip(ball.entries, norms, _row_norms(devs))]
        eps_hat, c_hat = fit_envelope(rows, rho0)
        report = StabilityReport(rows, eps_hat, c_hat, rho0, radius, ball=ball)
        if not report.envelope_valid():
            raise PreconditionError("internal: fitted envelope violates its own rows")
        reports.append(report)
    return reports


def stability_scan(
    P: Presentation,
    phi_ref: Homomorphism,
    phi: Homomorphism,
    radius: int,
    rho0: float | None = None,
) -> StabilityReport:
    """Deviation scan of a deformation over a word ball.

    Refuses to run if either homomorphism fails the presentation's
    relators, and refuses a ball that ``word_ball`` cut short of the
    radius.  rho0 defaults to (max generator ||mu||) + 1; passing
    math.inf makes the fit a uniform constant (eps_hat = 0), realizing
    conjugation-type bounds.  The one-deformation case of
    ``stability_scans``.
    """
    return stability_scans(P, phi_ref, [phi], radius, rho0)[0]


def seminorm_defects(ball: BallResult, phi: Homomorphism, delta_l: DeltaLData,
                     factorizer) -> list:
    """Per ball entry, the seminorm defect
    |mu(phi(g)) - sum_i mu(phi(g_i))|_{coroot span} of its word g over the
    factor words g_i = factorizer(g), or None where factorizer gives none.

    The ball's projections come from one image pass (``_image_mus``); a
    factor word outside the ball is evaluated where it occurs.
    """
    index = ball.word_index()
    mus = _image_mus(ball, phi)

    def mu_of(w):
        k = index.get(w)
        if k is None:
            return np.asarray(cartan(evaluate(w, phi)).coords, dtype=float)
        return mus[k]

    defects = []
    for mu, e in zip(mus, ball.entries):
        fs = factorizer(e.word)
        defects.append(None if not fs else seminorm(
            mu - sum((mu_of(w) for w in fs), np.zeros_like(mu)), delta_l))
    return defects


# ---------------------------------------------------------------------------
# properness margins


@dataclass
class ConeModel:
    """Finite union of chamber rays approximating a subgroup's mu-image."""

    rays: list  # unit numpy vectors in the chamber
    length: int

    @property
    def is_origin(self) -> bool:
        return not self.rays


def _projections(samples) -> np.ndarray:
    """The Cartan projections of samples as the float rows of one array: a
    CartanVector's coordinates as given, and the group elements, which
    must share one group, by one ``_mu_rows``."""
    samples = list(samples)
    elements = [s for s in samples if not isinstance(s, CartanVector)]
    mus = _mu_rows(elements, elements[0].group) if elements else np.empty((0, 0))
    if len(elements) == len(samples):
        return np.asarray(mus, dtype=float)
    rows = iter(mus.tolist())
    return np.array([s.coords if isinstance(s, CartanVector) else next(rows)
                     for s in samples], dtype=float)


def mu_cone(samples, group: GroupDesc) -> ConeModel:
    """Cone swept by the sampled Cartan projections.

    The samples must lie on a common chamber ray per half-line (their
    chamber images under the Weyl symmetry); leaving a single face is an
    error.  Compact subgroups (all projections vanishing) give the
    origin cone.
    """
    if not samples:
        raise PreconditionError("no axis samples")
    mus = _projections(samples)
    length = mus.shape[1]
    norms = [float(np.linalg.norm(m)) for m in mus]
    if max(norms) <= _COMPACT_TOL:
        return ConeModel([], length)
    rays = []
    for m, n in zip(mus, norms):
        if n <= _COMPACT_TOL:
            continue
        u = m / n
        for r in rays:
            if float(np.linalg.norm(u - r)) <= _RAY_TOL:
                break
        else:
            rays.append(u)
    if len(rays) > 2:
        raise PreconditionError(
            f"axis samples span {len(rays)} distinct rays; they must stay on "
            "a single chamber face per half-line"
        )
    if len(rays) == 2:
        # the second ray must be the chamber image of the negated axis
        mirrored = np.sort(-rays[0])[::-1]
        if float(np.linalg.norm(rays[1] - mirrored)) > _RAY_TOL:
            raise PreconditionError(
                "axis samples leave a single face: the two mu-directions are "
                "not opposite half-lines of one axis"
            )
    return ConeModel(rays, length)


def cone_distance(v, cone: ConeModel) -> float:
    """Euclidean distance to the ray union (exact projection per ray)."""
    x = np.asarray(v.coords if isinstance(v, CartanVector) else v, dtype=float)
    nx = float(np.linalg.norm(x))
    if cone.is_origin:
        return nx
    best = math.inf
    for u in cone.rays:
        t = max(0.0, float(np.dot(x, u)))
        best = min(best, math.sqrt(max(nx * nx - t * t, 0.0)))
    return best


@dataclass
class PropernessRow:
    mu_norm: float
    margin: float


@dataclass
class PropernessReport:
    rows: list
    slope: float
    intercept: float
    rho0: float
    radius: int | None = None
    note: str = "finite-radius certificate, not an asymptotic statement"

    def lower_envelope_valid(self) -> bool:
        return all(
            r.margin >= self.slope * r.mu_norm - self.intercept - _ENVELOPE_SLACK
            for r in self.rows
        )


def properness_margin(
    samples,
    cone: ConeModel,
    rho0: float | None = None,
    radius: int | None = None,
) -> PropernessReport:
    """Distance-to-cone margins with a fitted lower envelope.

    The envelope mirrors the stability policy: rows with ||mu|| <= rho0
    are absorbed into the intercept, and the slope is the worst
    margin / (||mu|| - rho0) over the rest, so margin >= slope * ||mu||
    - intercept holds on every row.  Slopes are nonnegative by
    construction; a strictly positive slope is the desk-scale
    properness signal, slope 0 the containment pattern.
    """
    _check_rho0(rho0)
    if not samples:
        raise PreconditionError("no samples")
    mus = _projections(samples)
    rows = [PropernessRow(n, cone_distance(mu, cone))
            for n, mu in zip(_row_norms(mus), mus)]
    if rho0 is None:
        positive = [r.mu_norm for r in rows if r.mu_norm > 1e-12]
        rho0 = (min(positive) if positive else 0.0) + 1.0
    slope = min([r.margin / (r.mu_norm - rho0) for r in rows if r.mu_norm > rho0],
                default=0.0)
    intercept = slope * rho0 if slope else 0.0  # not 0 * inf = NaN
    report = PropernessReport(rows, slope, intercept, rho0, radius)
    if not report.lower_envelope_valid():
        raise PreconditionError("internal: lower envelope violates its own rows")
    return report
