"""Rank-one geometry and constructive transverse decompositions.

A rank-one model is one of

* the hyperboloid {B(x,x) = -1, last coordinate positive} of a diagonal
  form of signature (m, 1), acted on by its orthogonal group,
* the hyperbolic plane acted on by SL_2(R) (realized on the hyperboloid
  of the symmetric-square form, so displacements are exact group theory
  plus one arccosh),
* the Bruhat-Tits tree of SL_2(Q_p).  For g = N / d (N an integer
  matrix, d > 0) the invariant factors of N over Z_p are p^m and
  p^(2 v_p(d) - m), m = min_ij v_p(N_ij), because det N = d^2; so the
  Cartan projection is (v_p(d) - m, m - v_p(d)) and
  d(x0, g.x0) = mu_1 - mu_2 = 2 (v_p(d) - min_ij v_p(N_ij)), an even
  integer read off the entries with no Smith form.  A canonical (N, d)
  has m = 0 (``cartan._padic_mu``), so an element's distance is
  2 v_p(d); the content form ``cartan._sl2_padic_mu1`` serves the
  unreduced products of two forms in ``_tree_row``.

Displacement of g is d(x0, g.x0); the transversality gap of a pair is
|mu(gh)| - |mu(g)| - |mu(h)| <= 0, and a gap bounded below by -D is the
operational transversality certificate used throughout.

`decompose` cuts the geodesic from x0' to gamma^-1.x0' at arclength
multiples of R and snaps each cut point to the nearest orbit point over
a word ball (the fundamental-domain lookup of the convex-cocompactness
argument, with measured constants instead of the non-constructive
shadow-lemma constant).  All reported postconditions are measured, not
assumed.

An `OrbitData` is built once per ball and shared by every `decompose`
over it.  One stacked pass over the ball gives its orbit points and the
displacement of every ball word (on the tree, distances and integer
forms); any other factor word's displacement is computed once.  On an
exact ball gamma^-1.x0' is the orbit point of gamma's inverse word; a
float ball, or a relator that keeps that word out of the ball, inverts
phi(gamma) instead.  A word's cut points are snapped in one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .cartan import GroupElement, _float_stack, _sl2_padic_mu1, to_float_array
from .errors import PreconditionError, UnsupportedFieldError
from .fields import int_valuation
from .wordgroups import (BallResult, Homomorphism, Presentation, Word, evaluate,
                         inclusion, word_ball)

_SHEET_TOL = 1e-8  # max deviation of <x, x> from -1 on the hyperboloid sheet


def sl2_to_so21(matrix) -> np.ndarray:
    """Image of an SL_2(R) matrix (or GroupElement) under the
    symmetric-square action (see ``_sym2_columns``)."""
    return _sym2_stack(to_float_array(matrix)[None])[0]


def _sym2_stack(stack) -> np.ndarray:
    """``sl2_to_so21`` of every matrix of a float stack, each image laid out
    in memory column by column (a matrix-vector product's bits depend on
    the layout; this is the layout the orbit points were first built in)."""
    columns = np.array(_sym2_columns(stack.transpose(1, 2, 0)))  # (column, row, element)
    return np.ascontiguousarray(columns.transpose(2, 0, 1)).transpose(0, 2, 1)


def _sym2_columns(g):
    """The columns of the symmetric-square image of the 2x2 matrix g, in
    the scalars of g (floats, Fractions, or arrays of either, entrywise).
    Coordinates (x1, x2, x3) with form x1^2 + x2^2 - x3^2; the base point
    (0,0,1) corresponds to i in the upper half-plane, and diag(e^t, e^-t)
    maps to the boost of parameter 2t."""
    ((p, q), (r, s)) = g
    cols = []
    # symmetric matrix coords: S = [[u, w], [w, v]], x1=(u-v)/2, x2=w, x3=(u+v)/2
    for (u, v, w) in ((1, -1, 0), (0, 0, 1), (1, 1, 0)):
        u2 = p * p * u + 2 * p * q * w + q * q * v
        v2 = r * r * u + 2 * r * s * w + s * s * v
        w2 = p * r * u + (p * s + q * r) * w + q * s * v
        cols.append(((u2 - v2) / 2, w2, (u2 + v2) / 2))
    return cols


@dataclass
class RankOneModel:
    """Hyperboloid, SL_2(R) plane, or SL_2(Q_p) tree; see module docs."""

    kind: str
    form: tuple = ()
    p: int | None = None
    base_point: np.ndarray | None = None
    coeffs: np.ndarray = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.coeffs = np.array([float(c) for c in self.form])  # built once

    @staticmethod
    def hyperboloid(form) -> "RankOneModel":
        form = tuple(form)
        coeffs = [float(c) for c in form]
        if sum(1 for c in coeffs if c < 0) != 1 or coeffs[-1] >= 0:
            raise PreconditionError(
                "hyperboloid form must have signature (m,1) with the "
                "negative coefficient last"
            )
        x0 = np.zeros(len(coeffs))
        x0[-1] = 1.0 / math.sqrt(-coeffs[-1])
        return RankOneModel("hyperboloid", form=form, base_point=x0)

    @staticmethod
    def sl2_real() -> "RankOneModel":
        return RankOneModel(
            "sl2_real",
            form=(1.0, 1.0, -1.0),
            base_point=np.array([0.0, 0.0, 1.0]),
        )

    @staticmethod
    def sl2_tree(p: int) -> "RankOneModel":
        return RankOneModel("sl2_tree", p=p)

    def matrix_action(self, g: GroupElement) -> np.ndarray:
        if self.kind == "hyperboloid":
            return to_float_array(g)
        if self.kind == "sl2_real":
            return sl2_to_so21(g)
        raise UnsupportedFieldError("tree model has no matrix action on points")

    def pairing(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.sum(self.coeffs * x * y))

    def check_on_model(self, x: np.ndarray):
        if abs(self.pairing(x, x) + 1.0) > _SHEET_TOL or x[-1] <= 0:
            raise PreconditionError("point is off the model sheet")

    def point_distance(self, x: np.ndarray, y: np.ndarray) -> float:
        c = -self.pairing(x, y)
        return math.acosh(max(c, 1.0))


def _tree_form(g: GroupElement, model: RankOneModel):
    """The entries of N, row by row, and v_p(d) of g = N / d; refuses
    anything but an exact element of SL_2 over the tree's Q_p."""
    grp = g.group
    if grp.field.kind != "padic" or grp.field.p != model.p:
        raise PreconditionError("element field does not match the tree model")
    if grp.family != "SL" or grp.size != 2:
        raise PreconditionError("the tree model needs an element of SL_2(Q_p)")
    if g.ratio is None:
        raise PreconditionError("the tree model needs exact rational entries")
    ((a, b), (c, d)), den = g.ratio
    return (a, b, c, d), int_valuation(den, model.p)


def displacement(g: GroupElement, model: RankOneModel) -> float:
    """d(x0, g.x0) in the model; exact even integer on the tree."""
    if model.kind == "sl2_tree":
        return 2 * _tree_form(g, model)[1]  # = sqrt(2) * ||mu||
    model.check_on_model(model.base_point)
    return float(_distances((model.matrix_action(g) @ model.base_point)[None], model)[0])


def displacement_scale(model: RankOneModel) -> float:
    """Constant c with d(x0, g.x0) = c * ||mu(g)|| on the model.

    1 for orthogonal hyperboloids (SO-convention mu), sqrt(2) for the
    SL_2 plane and tree (length-2 SL chamber coordinates).
    """
    if model.kind == "hyperboloid":
        return 1.0
    return math.sqrt(2.0)


def transversality_gap(g: GroupElement, h: GroupElement, model: RankOneModel) -> float:
    """|mu(gh)| - |mu(g)| - |mu(h)|; always <= 0 by subadditivity."""
    return displacement(g @ h, model) - displacement(g, model) - displacement(h, model)


@dataclass
class TransverseDecomposition:
    factors: list  # Words
    displacements: list
    gap_defects: list
    d_achieved: float
    snap_distances: list
    predicted_ceiling: float
    segment_length: float
    accepted: bool = True
    diagnostics: str = ""

    @property
    def n(self) -> int:
        return len(self.factors) - 1


@dataclass
class OrbitData:
    """The word ball of phi and the orbit of a base point x0' over it.

    Building this once and passing it to repeated `decompose` calls
    avoids re-enumerating the ball per input word; a report over the
    ball's words iterates ``ball.entries`` rather than building the
    ball again.  It also keeps a memo of factor displacements: every
    ball word starts with its entry of ``distances``, any other word is
    evaluated, and its displacement computed once for all the
    decompositions that share it.
    """

    ball: BallResult
    phi: Homomorphism
    model: RankOneModel
    points: np.ndarray | None = None  # hyperboloid orbit points w.x0'
    x0_prime: np.ndarray | None = None  # the x0' of ``points``
    distances: np.ndarray | None = None  # displacements d(x0, w.x0)
    # on the tree, (entries of N, v_p(d)) of each phi(w) = N / d
    forms: list | None = None
    _index: dict = dc_field(init=False, repr=False)  # word -> entry index
    _displacements: dict = dc_field(init=False, repr=False)

    def __post_init__(self):
        self._index = self.ball.word_index()
        self._displacements = {} if self.distances is None else dict(
            zip(self._index, self.distances.tolist()))  # in entry order

    def element(self, w: Word) -> GroupElement:
        """phi(w): the ball's entry for a ball word, else ``evaluate``."""
        k = self._index.get(w)
        return evaluate(w, self.phi) if k is None else self.ball.entries[k].element

    def displacement(self, w: Word) -> float:
        """displacement(phi(w), model), computed once per word."""
        d = self._displacements.get(w)
        if d is None:
            d = self._displacements[w] = float(
                displacement(self.element(w), self.model))
        return d


def orbit_data(P: Presentation, phi: Homomorphism, model: RankOneModel,
               radius: int, x0_prime=None) -> OrbitData:
    ball = word_ball(P, phi, radius).require_complete()
    elements = ball.elements()
    if model.kind == "sl2_tree":
        forms = [_tree_form(e, model) for e in elements]
        dists = np.array([2 * v for _, v in forms], dtype=float)
        return OrbitData(ball, phi, model, distances=dists, forms=forms)
    x0p = model.base_point if x0_prime is None else np.asarray(x0_prime, float)
    model.check_on_model(x0p)
    stack = _float_stack(elements)  # matrix_action of every element, stacked
    actions = stack if model.kind == "hyperboloid" else _sym2_stack(stack)
    return OrbitData(ball, phi, model, points=actions @ x0p, x0_prime=x0p,
                     distances=_distances(actions @ model.base_point, model))


def _distances(ys, model: RankOneModel) -> np.ndarray:
    """d(x0, y) of every row y = g.x0 of ys: -B(x0, y) (rows summed as
    ``pairing`` sums one, bit for bit) through ``math.acosh``.  Refuses a y
    off the sheet, an element that does not preserve the model."""
    c = model.coeffs
    sheet = np.abs(np.sum(c * ys * ys, axis=1) + 1.0)
    if (sheet > 1e-6 * np.maximum(1.0, np.abs(ys).max(axis=1) ** 2)).any():
        raise PreconditionError("element does not preserve the model")
    brackets = (-np.sum(c * model.base_point * ys, axis=1)).tolist()
    return np.array([math.acosh(max(b, 1.0)) for b in brackets])


def decompose(
    gamma: Word,
    P: Presentation,
    model: RankOneModel,
    R: float,
    phi: Homomorphism | None = None,
    snap_radius: int | None = None,
    snap_budget: float | None = None,
    x0_prime: np.ndarray | None = None,
    orbit: OrbitData | None = None,
) -> TransverseDecomposition:
    """Cut gamma into word factors of displacement about R.

    Subdivision points of the geodesic [x0', gamma^-1 x0'] at arclength
    multiples of R are snapped to nearest orbit points over a word ball
    of radius ``snap_radius`` (default: len(gamma)); the factor words are
    gamma_0 = gamma * l_n and gamma_i = l_{n-i+1}^-1 l_{n-i}.  Reported:
    per-factor displacements, adjacent gap defects, the measured
    constant D_achieved (smallest D making all reported conditions
    hold), and the predicted ceiling 6*max_snap + 6*d(x0, x0').  A snap
    distance above ``snap_budget`` (default 3*R) rejects the run.  On
    the tree x0' = x0, and every distance is exact.  A shared ``orbit``
    from ``orbit_data`` must come with the very model (and phi and x0',
    which default to the orbit's) it was built for.
    """
    if not 0 < R < math.inf:  # refuses NaN too
        raise PreconditionError(f"R must be positive and finite, not {R!r}")
    if orbit is not None:
        phi = phi or orbit.phi
        if phi is not orbit.phi or model is not orbit.model:
            raise PreconditionError(
                "orbit was built for another homomorphism or model")
        if x0_prime is not None and orbit.x0_prime is not None and not (
                np.array_equal(np.asarray(x0_prime, float), orbit.x0_prime)):
            raise PreconditionError("orbit was built at another base point x0'")
    phi = phi or inclusion(P)
    if snap_radius is None:
        snap_radius = max(len(gamma), 1)
    if snap_budget is None:
        snap_budget = 3.0 * R

    if orbit is None:
        orbit = orbit_data(P, phi, model, snap_radius, x0_prime)
    g = orbit.element(gamma)
    if model.kind == "sl2_tree":
        # With a = x0, b = gamma^-1 x0, c = w x0 and (b|c)_a the Gromov
        # product, the point at arclength s on [a, b] lies at distance
        # |s - (b|c)_a| + d(a, c) - (b|c)_a from c.
        base_offset = 0.0
        d_ab = orbit.displacement(gamma)  # d(x0, g^-1 x0) = d(x0, g x0)
        total = d_ab
        ac = orbit.distances
        bc = _tree_row(g, orbit)  # d(gamma^-1 x0, w x0) = d(x0, gamma w x0)
        gromov = 0.5 * (d_ab + ac - bc)

        def snap(s):
            dists = np.abs(s[:, None] - gromov) + ac - gromov
            j = np.argmin(dists, axis=1)
            return j.tolist(), dists[np.arange(len(s)), j].tolist()
    else:
        x0p = orbit.x0_prime
        base_offset = model.point_distance(model.base_point, x0p)
        # on an exact ball the entry of gamma^-1 is g.inv() itself
        k = orbit._index.get(gamma.inverse()) if orbit.ball.stack is None else None
        end = orbit.points[k] if k is not None else model.matrix_action(g.inv()) @ x0p
        total = model.point_distance(x0p, end)

        def snap(s):  # the points at arclength s on [x0', end], one bracket array
            u = (end - math.cosh(total) * x0p) / math.sinh(total)
            ch, sh = np.array([(math.cosh(t), math.sinh(t)) for t in s]).T[:, :, None]
            targets = ch * x0p + sh * u
            brackets = -(orbit.points * model.coeffs * targets[:, None]).sum(axis=2)
            j = np.argmin(np.maximum(brackets, 1.0), axis=1)
            return j.tolist(), [math.acosh(max(b, 1.0))
                                for b in brackets[np.arange(len(s)), j].tolist()]
    n = int(total // R)
    if n > 0 and n * R > total:  # guard against float boundary
        n -= 1

    lambdas = [Word()]  # lambda_0 = 1
    snap_dists = []
    js, dists = snap(np.array([i * R for i in range(1, n + 1)])) if n else ((), ())
    for i, (j, dist) in enumerate(zip(js, dists), 1):
        if dist > snap_budget:
            return TransverseDecomposition(
                [], [], [], math.inf, [dist], math.inf, total, accepted=False,
                diagnostics=(
                    f"snap distance {dist:.3f} at cut {i} exceeds budget "
                    f"{snap_budget:.3f}; orbit sample too sparse"
                ),
            )
        lambdas.append(orbit.ball.entries[j].word)
        snap_dists.append(dist)

    factors = [gamma * lambdas[n]]
    for i in range(1, n + 1):
        factors.append(lambdas[n - i + 1].inverse() * lambdas[n - i])
    factors, disps, gaps, d_ach = _measure_factors(factors, orbit, R)
    ceiling = 6.0 * max(snap_dists, default=0.0) + 6.0 * base_offset
    return TransverseDecomposition(
        factors, disps, gaps, d_ach, snap_dists, ceiling, total
    )


def _tree_row(g: GroupElement, orbit: OrbitData) -> np.ndarray:
    """d(x0, g w x0) for every ball word w, in entry order: the tree
    distance of the integer product of g's form and w's, whose
    denominator has valuation v_p(d_g) + v_p(d_w)."""
    p = orbit.model.p
    (a, b, c, d), vg = _tree_form(g, orbit.model)
    return np.array([
        2 * _sl2_padic_mu1(vg + vw, (a * e + b * h, a * f + b * k,
                                     c * e + d * h, c * f + d * k), p)
        for (e, f, h, k), vw in orbit.forms], dtype=float)


def _measure_factors(factors, orbit: OrbitData, R):
    """Displacements, gap defects, and the measured constant D_achieved.

    The remainder factor (first in the list) only carries the one-sided
    bound |mu| <= R + D; gap defects are measured on adjacent pairs of
    full-size factors, matching the decomposition's contract.  When the
    geodesic length is an exact multiple of R the remainder is the empty
    word and is dropped.
    """
    has_remainder = True
    if len(factors) > 1 and len(factors[0]) == 0:
        factors = factors[1:]
        has_remainder = False
    disps = [orbit.displacement(w) for w in factors]
    start = 1 if (has_remainder and len(factors) > 1) else 0
    gaps = []
    for i in range(start, len(factors) - 1):
        pair = factors[i] * factors[i + 1]
        gaps.append(orbit.displacement(pair) - disps[i] - disps[i + 1])
    if has_remainder:
        d_ach = max(0.0, disps[0] - R)
        rest = disps[1:]
    else:
        d_ach = 0.0
        rest = disps
    for d in rest:
        d_ach = max(d_ach, abs(d - R))
    for gap in gaps:
        d_ach = max(d_ach, -gap)
    return factors, disps, gaps, d_ach

