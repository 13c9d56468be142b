import itertools
import math
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from cartanlab import (
    COMPLEX,
    REAL,
    GroupElement,
    IndeterminateError,
    PreconditionError,
    ProjHyperplane,
    ProjPoint,
    chi_mu_gap,
    newton_polygon,
    padic,
    product_sandwich_check,
    proj_distance,
    proximal_analyze,
    r_eps,
    special_linear,
)
from cartanlab import archimedean
from cartanlab.cartan import invariant_factor_valuations, to_float_array
from cartanlab.exact import det as exact_det
from cartanlab.exact import inverse as exact_inverse
from cartanlab.exact import mat_from_rows, mat_mul, ratio_form
from cartanlab.fields import rational_valuation
from cartanlab.archimedean import _box_contraction_witness, _point_holds, _row_distances
from cartanlab.projective import (
    ProximalData,
    _apply_to_point,
    _hyperplane_foot,
    _padic_contraction_witness,
    _padic_eps_exponents,
    eps_proximal_check,
    point_hyperplane_distance,
    root_valuations,
    sup_operator_norm,
)

Q3 = padic(3)


# -- distance ---------------------------------------------------------------


def test_distance_trivial_and_axes():
    x = ProjPoint([1.0, 0.3], REAL)
    assert proj_distance(x, x) == 0
    e1 = ProjPoint([1.0, 0.0], REAL)
    e2 = ProjPoint([0.0, 1.0], REAL)
    assert proj_distance(e1, e2) == 1.0
    p1 = ProjPoint([F(1), F(0)], Q3)
    p2 = ProjPoint([F(0), F(1)], Q3)
    assert proj_distance(p1, p2) == 1


def test_distance_small_parameter_monotone():
    e1 = ProjPoint([1.0, 0.0], REAL)
    last = 0.0
    for t in (0.01, 0.05, 0.2, 0.8):
        d = proj_distance(e1, ProjPoint([1.0, t], REAL))
        # oracle: brute 1-parameter minimization over the sign choice
        vals = []
        for s in (1.0, -1.0):
            w = np.array([1.0, t]) / max(1.0, abs(t))
            vals.append(np.abs(np.array([1.0, 0.0]) - s * w).max())
        assert d == pytest.approx(min(vals), abs=1e-12)
        assert d > last
        last = d


def test_padic_distance_beats_residue_enumeration():
    # v = (1+p, p^3), w = (1, 0): true infimum 1/27 at the unit 1+p,
    # while lifts of residues mod p would give only 1/3
    v = ProjPoint([F(4), F(27)], Q3)
    w = ProjPoint([F(1), F(0)], Q3)
    assert proj_distance(v, w) == F(1, 27)


def test_padic_distance_is_exact_infimum_on_candidates():
    # oracle: evaluate the defining infimum on a candidate set of units
    rng = np.random.default_rng(3)
    for _ in range(25):
        v = [F(int(rng.integers(-20, 21))), F(int(rng.integers(-20, 21)))]
        w = [F(int(rng.integers(-20, 21))), F(int(rng.integers(-20, 21)))]
        if all(x == 0 for x in v) or all(x == 0 for x in w):
            continue
        x, y = ProjPoint(v, Q3), ProjPoint(w, Q3)
        d = proj_distance(x, y)
        cands = [F(a) for a in range(1, 30) if a % 3 != 0]
        cands += [F(a, b) for a in range(1, 10) for b in range(1, 10)
                  if a % 3 and b % 3]
        best = min(
            _padic_sup([a - u * b for a, b in zip(x.vec, y.vec)])
            for u in cands
        )
        assert d <= best  # formula is a lower bound for every candidate
        # and it is attained at u = v_j / w_j for a unit coordinate j
        j = next(i for i, c in enumerate(y.vec) if _val3(c) == 0)
        if _val3(x.vec[j]) == 0:
            u = x.vec[j] / y.vec[j]
            attained = _padic_sup([a - u * b for a, b in zip(x.vec, y.vec)])
            assert d == attained


def _val3(x):
    from cartanlab.fields import rational_valuation

    return rational_valuation(x, 3)


def _padic_sup(vec):
    from cartanlab.fields import rational_valuation

    vals = [rational_valuation(x, 3) for x in vec if x != 0]
    if not vals:
        return F(0)
    return F(3) ** (-min(vals))


def test_metric_properties_real():
    rng = np.random.default_rng(11)
    pts = [ProjPoint(rng.standard_normal(4), REAL) for _ in range(12)]
    for i in range(len(pts)):
        for j in range(len(pts)):
            dij = proj_distance(pts[i], pts[j])
            assert dij == pytest.approx(proj_distance(pts[j], pts[i]), abs=1e-12)
            # over R the sharp bound for unit sup-norm reps is 2
            # (attained, e.g., by the lines (1,-1) and (1,1))
            assert dij <= 2.0 + 1e-12
    for _ in range(100):
        a, b, c = (pts[k] for k in rng.integers(0, len(pts), 3))
        assert proj_distance(a, c) <= (
            proj_distance(a, b) + proj_distance(b, c) + 1e-9
        )
    far = proj_distance(ProjPoint([1.0, -1.0], REAL), ProjPoint([1.0, 1.0], REAL))
    assert far == pytest.approx(2.0)


def test_metric_properties_padic_bounded_by_one():
    rng = np.random.default_rng(29)
    pts = []
    for _ in range(10):
        v = [F(int(rng.integers(-20, 21))) for _ in range(3)]
        if any(x != 0 for x in v):
            pts.append(ProjPoint(v, Q3))
    for x in pts:
        for y in pts:
            d = proj_distance(x, y)
            assert d <= 1  # ultrametric: unit reps differ by at most a unit
            assert d == proj_distance(y, x)
    for _ in range(60):
        a, b, c = (pts[k] for k in rng.integers(0, len(pts), 3))
        assert proj_distance(a, c) <= max(
            proj_distance(a, b), proj_distance(b, c)
        )


def test_isometry_invariance():
    rng = np.random.default_rng(13)
    k = np.zeros((3, 3))
    k[0, 1], k[1, 0], k[2, 2] = 1.0, -1.0, 1.0  # signed permutation
    for _ in range(25):
        x = ProjPoint(rng.standard_normal(3), REAL)
        y = ProjPoint(rng.standard_normal(3), REAL)
        dx = proj_distance(x, y)
        dk = proj_distance(
            ProjPoint(k @ np.asarray(x.vec), REAL),
            ProjPoint(k @ np.asarray(y.vec), REAL),
        )
        assert dk == pytest.approx(dx, abs=1e-9)


def test_complex_phase_distance():
    e1 = ProjPoint([1.0 + 0j, 0.0], COMPLEX)
    rot = ProjPoint([1j, 0.0], COMPLEX)
    assert proj_distance(e1, rot) == pytest.approx(0.0, abs=1e-9)
    z = ProjPoint([1.0 + 0j, 0.5j], COMPLEX)
    d1 = proj_distance(e1, z)
    assert 0 < d1 <= 0.5 + 1e-9


_GRID_STEP = 2 * math.pi / 2 ** 16
_GRID_UNITS = np.exp(1j * _GRID_STEP * np.arange(2 ** 16))


def _grid_phase_min(v, x):
    """min of max|v - e^(i theta) x| over the phases theta = k h, with
    h = 2 pi / 2^16."""
    diff = np.asarray(v) - _GRID_UNITS[:, None] * np.asarray(x)
    return math.sqrt((diff.real ** 2 + diff.imag ** 2).max(axis=1).min())


def _within_grid_bound(d, grid):
    """The phase objective is 1-Lipschitz when max|x| = 1, so the grid
    minimum lies at most h/2 above the true minimum, and never below it."""
    return bool(np.all(grid - _GRID_STEP / 2 - 1e-12 <= d)
                and np.all(d <= grid + 1e-12))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_complex_distance_is_the_phase_minimum(data):
    dim = data.draw(st.integers(2, 6))
    v = ProjPoint(data.draw(_vectors(COMPLEX, dim)), COMPLEX)
    x = ProjPoint(data.draw(_vectors(COMPLEX, dim)), COMPLEX)
    assert _within_grid_bound(proj_distance(v, x), _grid_phase_min(v.vec, x.vec))


def _mp_phase_min(v, x):
    """min over theta of max|v - e^(i theta) x| at 40 digits, over the
    phases arg(v_i conj(x_i)) and the crossings
    atan2(b, a) +- arccos(c / hypot(a, b)) of each pair of terms."""
    with mpmath.workdps(40):
        v, x = [mpmath.mpc(c) for c in v], [mpmath.mpc(c) for c in x]
        z = [2 * a * mpmath.conj(b) for a, b in zip(v, x)]
        A = [abs(a) ** 2 + abs(b) ** 2 for a, b in zip(v, x)]
        thetas = [mpmath.arg(c) for c in z]
        for i, j in itertools.combinations(range(len(v)), 2):
            w, c = z[j] - z[i], A[j] - A[i]
            if abs(c) < abs(w):
                beta = mpmath.acos(c / abs(w))
                thetas += [mpmath.arg(w) + beta, mpmath.arg(w) - beta]
        return float(min(max(abs(a - mpmath.expj(t) * b) for a, b in zip(v, x))
                         for t in thetas))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_complex_distance_of_nearby_points_keeps_its_precision(data):
    # y = c x + delta e lies at a distance of order delta from x, which
    # the float kernel must give to a few ulps, not to sqrt(ulp)
    dim = data.draw(st.integers(2, 6))
    x = ProjPoint(data.draw(_vectors(COMPLEX, dim)), COMPLEX)
    e = np.array(data.draw(_vectors(COMPLEX, dim))) / 10
    delta = 10.0 ** -data.draw(st.integers(3, 12))
    y = ProjPoint(data.draw(_scalars(COMPLEX)) * x.vec + delta * e, COMPLEX)
    assert proj_distance(x, y) == pytest.approx(_mp_phase_min(x.vec, y.vec),
                                                abs=2e-15)


def test_complex_distance_with_a_subnormal_phase_keeps_its_precision():
    # the third coordinates multiply to a subnormal, and the phase taken
    # from its few bits was off the unit circle: it undercut the distance
    # (9.899889913e-05)
    x = ProjPoint([0j, 3.5j, 1.2722224847430986e-156j, 1j], COMPLEX)
    e = np.array([0j, 0j, 1.2722224847430986e-156j, 1j]) / 10
    c = -0.9899924966004454 + 0.1411200080598672j
    y = ProjPoint(c * x.vec + 1e-3 * e, COMPLEX)
    assert proj_distance(x, y) == pytest.approx(_mp_phase_min(x.vec, y.vec),
                                                abs=2e-15)


@pytest.mark.parametrize("v, x, want", [
    ([-0.613505 + 0.789691j, 0.521183 - 0.401508j],
     [0.916196 + 0.400731j, 0.614051 + 0.486443j], 1.1697782),
    ([0.628198 + 0.655295j, -0.246398 - 0.799207j, -0.199253 + 0.979948j],
     [0.228518 - 0.219861j, 0.919439 + 0.393234j, 0.322936 + 0.409745j],
     1.1983408),
], ids=["d2", "d3"])
def test_complex_distance_finds_the_global_phase(v, x, want):
    # a 720-phase scan with golden-section refinement settled in the
    # wrong basin here (1.1718491 and 1.1985890); grids of 4e6 phases
    # give 1.1697784 and 1.1983409
    assert proj_distance(ProjPoint(v, COMPLEX), ProjPoint(x, COMPLEX)) == (
        pytest.approx(want, abs=1e-7))


def test_float_points_on_different_axes_differ():
    for field in (REAL, COMPLEX):
        assert ProjPoint([1, 0], field) != ProjPoint([0, 1], field)
        assert ProjPoint([1, 1], field) != ProjPoint([1, -1], field)


def _vectors(field, dim):
    if field.kind == "padic":
        entries = st.integers(-30, 30).map(F)
    elif field.kind == "complex":
        entries = st.builds(complex, st.floats(-10, 10), st.floats(-10, 10))
    else:
        entries = st.floats(-10, 10)
    return st.lists(entries, min_size=dim, max_size=dim).filter(
        lambda v: max(abs(x) for x in v) > 1e-3)


def _scalars(field):
    """A sign over R, a phase over C, a unit times a power of p over Q_p."""
    if field.kind == "padic":
        unit = st.integers(-50, 50).filter(lambda u: u % field.p)
        return st.builds(lambda a, b, k: F(a, abs(b)) * F(field.p) ** k,
                         unit, unit, st.integers(-4, 4))
    if field.kind == "complex":
        return st.floats(0, 2 * math.pi).map(lambda t: complex(math.cos(t),
                                                               math.sin(t)))
    return st.sampled_from([1.0, -1.0])


@pytest.mark.parametrize("field", [REAL, COMPLEX, Q3], ids=["R", "C", "Q3"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_point_equality_is_projective(field, data):
    dim = data.draw(st.integers(2, 4))
    x = ProjPoint(data.draw(_vectors(field, dim)), field)
    c = data.draw(_scalars(field))
    assert x == ProjPoint([c * v for v in x.vec], field)
    y = ProjPoint(data.draw(_vectors(field, dim)), field)
    if proj_distance(x, y) > 1e-6:
        assert x != y


# -- proximality ------------------------------------------------------------


def test_proximal_diagonal():
    pd = proximal_analyze(np.diag([4.0, 1.0, 1.0]), REAL)
    assert pd is not None
    assert pd.eigenvalue == pytest.approx(4.0)
    assert pd.attracting == ProjPoint([1.0, 0.0, 0.0], REAL)
    assert pd.repelling.contains(ProjPoint([0.0, 1.0, 0.0], REAL))
    assert pd.repelling.contains(ProjPoint([0.0, 0.0, 1.0], REAL))
    assert pd.gap_ratio == pytest.approx(0.25)


def test_rotation_not_proximal():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert proximal_analyze(rot, REAL) is None


def test_small_gap_indeterminate():
    with pytest.raises(IndeterminateError):
        proximal_analyze(np.diag([1.0 + 1e-9, 1.0]), REAL)
    # lowering the certification threshold resolves it
    pd = proximal_analyze(np.diag([1.0 + 1e-9, 1.0]), REAL, gap_tol=1e-12)
    assert pd is not None


def test_padic_proximal_companions():
    # X^2 - p^-1 X + 1: root valuations -1 and +1 (Newton polygon oracle)
    comp = [[F(0), F(-1)], [F(1), F(1, 3)]]
    assert root_valuations([F(1), F(-1, 3), F(1)], 3) == [-1, 1]
    pd = proximal_analyze(comp, Q3)
    assert pd is not None
    assert pd.gap_ratio == pytest.approx(1.0 / 9.0)
    # the lifted eigenvalue satisfies the polynomial to high p-adic order
    lam = pd.eigenvalue
    resid = F(1) - F(1, 3) * lam + lam * lam
    from cartanlab.fields import rational_valuation

    assert rational_valuation(resid, 3) >= 50
    # X^2 - pX - p: single segment of length 2, slope 1/2
    comp2 = [[F(0), F(3)], [F(1), F(3)]]
    assert root_valuations([F(-3), F(-3), F(1)], 3) == [F(1, 2), F(1, 2)]
    assert proximal_analyze(comp2, Q3) is None


def test_padic_proximal_exact_rational_root():
    # eigenvalues 9 and 1/9; the 3-adically dominant one is 1/9 (|1/9| = 9)
    g = [[F(9), F(1)], [F(0), F(1, 9)]]
    pd = proximal_analyze(g, Q3)
    assert pd is not None and pd.eigenvalue_exact
    assert pd.eigenvalue == F(1, 9)
    assert pd.gap_ratio == pytest.approx(1.0 / 81.0)


def test_newton_polygon_hull():
    hull = newton_polygon([(0, 0), (1, -1), (2, 0)])
    assert hull == [(0, 0), (1, -1), (2, 0)]
    hull = newton_polygon([(0, 1), (1, 5), (2, 0)])
    assert hull == [(0, 1), (2, 0)]


def test_archimedean_padic_classifier_agreement():
    # diagonally dominant integer examples classify identically
    mats = [
        [[F(9), F(0)], [F(0), F(1)]],
        [[F(1), F(0)], [F(0), F(1)]],
        [[F(2), F(1)], [F(0), F(2)]],  # repeated eigenvalue: not proximal
    ]
    for m in mats:
        arch = _arch_proximal(m)
        pad = proximal_analyze(m, Q3) is not None
        assert arch == pad


def _arch_proximal(m):
    a = np.array([[float(x) for x in row] for row in m])
    try:
        return proximal_analyze(a, REAL) is not None
    except IndeterminateError:
        return False


# -- epsilon-proximality and r_eps -------------------------------------------


def test_eps_proximal_strong_diagonal():
    g = np.diag([500.0, 1.0, 1.0])
    v = eps_proximal_check(g, 0.1, REAL, gap_tol=1e-12)
    assert v.ok and v.certified


def test_eps_proximal_takes_a_group_element():
    sl2 = special_linear(2, REAL)
    g = GroupElement([[F(4), F(1)], [F(0), F(1, 4)]], sl2)
    for eps in (0.05, 0.3):
        assert eps_proximal_check(g, eps, REAL) == eps_proximal_check(g.matrix, eps, REAL)


def test_eps_proximal_identity_false():
    v = eps_proximal_check(np.eye(3), 0.1, REAL)
    assert not v.ok
    assert v.reason == "not proximal"


def test_eps_proximal_tiny_gap_false():
    g = np.diag([1.0 + 1e-9, 1.0])
    pd = proximal_analyze(g, REAL, gap_tol=1e-12)
    v = eps_proximal_check(g, 0.1, REAL, pd=pd)
    assert not v.ok and v.certified  # contraction far too weak


def test_r_eps_closed_forms():
    x0 = ProjPoint([1.0, 0.0, 0.0], REAL)
    X0 = ProjHyperplane([1.0, 0.0, 0.0], REAL)
    est = r_eps(x0, X0, 0.1)
    assert est.value == pytest.approx(-2 * math.log(0.1))
    assert est.padic_k is None
    x0p = ProjPoint([F(1), F(0)], Q3)
    X0p = ProjHyperplane([F(1), F(0)], Q3)
    est = r_eps(x0p, X0p, 0.1)
    assert est.padic_k == 2  # 1/9 >= 0.1 > 1/27
    assert est.value == pytest.approx(4 * math.log(3))
    assert est.contraction_factor(3) == F(1, 3 ** 8)


def test_r_eps_monotone_and_generic():
    x0 = ProjPoint([1.0, 0.0, 0.0], REAL)
    X0 = ProjHyperplane([1.0, 0.0, 0.0], REAL)
    vals = [r_eps(x0, X0, e).value for e in (0.05, 0.1, 0.2, 0.4)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    # oblique attracting point over the coordinate hyperplane {x_1 = 0}:
    # f.x = ||f||_1 = 1, so |t_v| runs over [eps, 1] on the eps-far set and
    # the closed form is exactly the aligned one, which a seeded sample of
    # 4000 points only approaches from below
    x0g = ProjPoint([1.0, 0.3, 0.2], REAL)
    X0g = ProjHyperplane([1.0, 0.0, 0.0], REAL)
    assert r_eps(x0g, X0g, 0.25).value == -2 * math.log(0.25)
    assert 0 < _per_point_r_eps(x0g, X0g, 0.25, 4000, 1)[1] < -2 * math.log(0.25)


def _far_boundary_point(x, f, k, rho):
    """x + s k with ||x + s k|| = rho (k in ker f, s > 0), by bisection."""
    lo, hi = 0.0, 1.0
    while np.abs(x + hi * k).max() < rho:
        hi *= 2
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if np.abs(x + mid * k).max() < rho else (lo, mid)
    return x + hi * k


@pytest.mark.parametrize("field", [REAL, COMPLEX], ids=["R", "C"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_r_eps_closed_form_is_attained(field, data):
    """Explicit eps-far points attain both ends of the closed form's |t|
    range: v = (f.x / ||f||_1) conj(f_i) / |f_i| has the least norm on f.v
    = f.x, and x + s k, k in ker f, is eps-far exactly at ||x + s k|| =
    |f.x| / (eps ||f||_1)."""
    n = data.draw(st.integers(2, 4))
    coords = st.floats(-1, 1, allow_nan=False).filter(lambda c: abs(c) > 1e-3)
    parts = (lambda: np.array(data.draw(st.lists(coords, min_size=n, max_size=n))))
    x, f, k = (parts() + (1j * parts() if field.kind == "complex" else 0)
               for _ in range(3))
    x0, X0 = ProjPoint(x, field), ProjHyperplane(f, field)
    x, f = np.asarray(x0.vec), np.asarray(X0.functional)
    fx, f1 = complex(f @ x), float(np.abs(f).sum())
    eps = data.draw(st.floats(0.01, 0.45)) * abs(fx) / f1
    assume(abs(fx) / f1 >= 2 * eps > 0.002)
    k = k - (f @ k) / (f @ f.conj()) * f.conj()  # into ker f
    assume(np.abs(k).max() > 1e-3)
    v_least = fx / f1 * f.conj() / np.abs(f)
    v_far = _far_boundary_point(x, f, k, abs(fx) / (eps * f1))
    logs = []
    for v in (v_least, v_far):
        y = ProjPoint(v, field)
        assert point_hyperplane_distance(y, X0).lower >= eps * (1 - 1e-9)
        logs.append(abs(math.log(abs(X0.pair(y) / X0.pair(x0)))))
    assert r_eps(x0, X0, eps).value == pytest.approx(2 * max(logs), rel=1e-9)


def test_precondition_r_eps():
    x0 = ProjPoint([1.0, 0.0], REAL)
    X0 = ProjHyperplane([1.0, 0.0], REAL)
    with pytest.raises(PreconditionError):
        r_eps(x0, X0, 0.6)  # 2*eps > 1 = d(x0+, X0-)


def test_eps_must_be_positive_and_finite():
    x0 = ProjPoint([1.0, 0.0], REAL)
    X0 = ProjHyperplane([1.0, 0.0], REAL)
    g = np.diag([8.0, 0.5])
    z = _aligned_real_instance(3, 100.0, 0.2)
    e1 = ProjPoint([1.0, 0.0, 0.0], REAL)
    H1 = ProjHyperplane([1.0, 0.0, 0.0], REAL)
    for eps in (0, 0.0, -0.1, math.nan, math.inf):
        with pytest.raises(PreconditionError):
            eps_proximal_check(g, eps, REAL)
        with pytest.raises(PreconditionError):
            r_eps(x0, X0, eps)
        with pytest.raises(PreconditionError):
            product_sandwich_check([z], [], eps, REAL, attracting=e1,
                                   repelling=H1)
    # over Q_p a zero eps used to loop forever in the aligned bound
    with pytest.raises(PreconditionError):
        eps_proximal_check([[F(4), 0], [0, F(1, 4)]], 0, padic(2))


# -- exact verdicts against the seeded sampler, kept here as an oracle ---------


def _sample_rows(dim, field, count, seed):
    """The seeded sample that once decided condition (2) over R/C: one
    (count, dim) array of sup-normalised rows of standard normals (complex
    rows take their real and imaginary parts from consecutive draws)."""
    rng = np.random.default_rng(seed)
    if field.kind == "complex":
        parts = rng.standard_normal((count, 2, dim))
        V = parts[:, 0] + 1j * parts[:, 1]
    else:
        V = rng.standard_normal((count, dim))
    return V / np.abs(V).max(axis=1)[:, None]


def _sampled_failures(g, pd, eps, V):
    """The rows of V that are eps-far from X- and whose images lie
    farther than eps from x+, as point_hyperplane_distance and
    proj_distance measure them, in one batch."""
    f = np.asarray(pd.repelling.functional)
    far = V[~(np.abs(V @ f) / np.abs(f).sum() < eps)]
    GX = far @ to_float_array(g).T
    W = GX / np.abs(GX).max(axis=1)[:, None]
    return far[_row_distances(W, np.asarray(pd.attracting.vec),
                              pd.attracting.field)[0] > eps]


def _far_measure(x, H):
    """What the eps-far set of condition (2) compares with eps: over R/C
    the lower bound |f.v| / ||f||_1 of d([v], H) (the exact distance in
    P^1, where H is a point, may exceed it), over Q_p the distance."""
    if x.field.kind == "padic":
        return point_hyperplane_distance(x, H).lower
    f = np.asarray(H.functional)
    return abs(H.pair(x)) / float(np.abs(f).sum())


def _fails_directly(g, pd, eps, u):
    """Whether [u] is eps-far from X- and g moves it farther than eps
    from x+, through ProjPoint, ``_far_measure`` and proj_distance (up to
    a relative 1e-12 of float rounding)."""
    x = ProjPoint(u, pd.attracting.field)
    return (_far_measure(x, pd.repelling) >= eps * (1 - 1e-12)
            and float(proj_distance(_apply_to_point(g, x), pd.attracting))
            > eps * (1 - 1e-12))


def _per_point_samples(dim, field, count, seed):
    """The sample as one ProjPoint per draw, from the same seeded stream."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(count):
        if field.kind == "padic":
            p = field.p
            digits = rng.integers(0, p, size=(dim, 3))
            vec = [F(int(sum(int(digits[i, k]) * p ** k for k in range(3))))
                   for i in range(dim)]
            if all(x % p == 0 for x in vec):
                vec[int(rng.integers(0, dim))] += 1
        else:
            vec = rng.standard_normal(dim)
            if field.kind == "complex":
                vec = vec + 1j * rng.standard_normal(dim)
        points.append(ProjPoint(vec, field))
    return points


def _per_point_eps_check(g, eps, field, samples, seed):
    """eps-proximality with condition (2) checked one sample point at a
    time through ProjPoint, ``_far_measure`` and proj_distance; condition
    (1) is certified where the distance is exact or its upper bound is
    below 2 eps."""
    try:
        pd = proximal_analyze(g, field)
    except IndeterminateError:
        return False, False, "indeterminate proximality", 0
    if pd is None:
        return False, True, "not proximal", 0
    d1 = point_hyperplane_distance(pd.attracting, pd.repelling)
    if d1.lower < 2 * eps:
        return (False, d1.exact or d1.upper < 2 * eps,
                "condition (1) fails: attracting point too close to hyperplane",
                0)
    checked = 0
    for x in _per_point_samples(pd.attracting.dim, field, samples, seed):
        if _far_measure(x, pd.repelling) < eps:
            continue
        checked += 1
        if float(proj_distance(_apply_to_point(g, x), pd.attracting)) > eps:
            return False, False, "condition (2) fails on a sample", checked
    return True, False, "sampled", checked


def _per_point_r_eps(x0, X0, eps, samples, seed):
    """(samples_used, value) of the sampled r_eps, one point at a time."""
    best, used = 0.0, 0
    for x in _per_point_samples(x0.dim, x0.field, samples, seed):
        if _far_measure(x, X0) < eps:
            continue
        used += 1
        t = X0.pair(x) / X0.pair(x0)
        if t == 0:
            continue
        if x0.field.kind == "padic":
            p = x0.field.p
            mag = float(F(p) ** -rational_valuation(t, p))
        else:
            mag = abs(t)
        best = max(best, abs(math.log(mag)))
    return used, 2 * best


def _verdict(v):
    return v.ok, v.certified, v.reason, v.samples_checked


@st.composite
def _eps_cases(draw, field):
    """(g, eps, samples, seed) over the field: g a random rational matrix,
    or (more often) a conjugate P D P^-1 of a diagonal D whose first entry
    dominates for the field, by P = L C U with L, U unitriangular integer
    and C diagonal in {1, 2, 3}; so g is proximal with eigendata usually
    off the coordinate axes, and x+, X- are not always transverse mod p.
    Over C, g is then twisted by diag(1, i, -1, -i) to complex entries."""
    n = draw(st.integers(2, 4))
    small = st.integers(-3, 3)
    if draw(st.integers(0, 3)) == 0:
        g = [[F(draw(small)) for _ in range(n)] for _ in range(n)]
    else:
        tilt = st.integers(-1, 1)
        L = [[F(int(i == j)) if i <= j else F(draw(tilt)) for j in range(n)]
             for i in range(n)]
        C = [[F(draw(st.integers(1, 3))) if i == j else F(0) for j in range(n)]
             for i in range(n)]
        U = [[F(int(i == j)) if i >= j else F(draw(tilt)) for j in range(n)]
             for i in range(n)]
        P = mat_mul(mat_mul(L, C), U)
        units = st.sampled_from([1, -1, 5, -5, 7])
        if field.kind == "padic":
            p = field.p
            diag = [F(1, p ** draw(st.integers(1, 8)))] + [
                F(p) ** draw(st.integers(0, 2)) * draw(units)
                for _ in range(n - 1)]
        else:
            diag = [2 * F(draw(units))] + [
                F(draw(st.integers(-60, 60)) or 1, 64) / 8 ** draw(st.integers(0, 3))
                for _ in range(n - 1)]
        D = [[diag[i] if i == j else F(0) for j in range(n)] for i in range(n)]
        g = mat_mul(mat_mul(P, D), exact_inverse(P))
    if field.kind == "complex":
        g = [[complex(x) * 1j ** (i - j) for j, x in enumerate(row)]
             for i, row in enumerate(g)]
    eps = draw(st.floats(0.01, 0.2))
    samples = 12 if field.kind == "complex" else 200
    return g, eps, samples, draw(st.integers(0, 2 ** 16))


@pytest.mark.parametrize("field", [REAL, COMPLEX, padic(2), padic(3)],
                         ids=["R", "C", "Q2", "Q3"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_batched_eps_sampler_matches_per_point_loop(field, data):
    """Every exact verdict against the seeded per-point sampler, kept here
    as an oracle.  Over R/C a certified pass never meets a failing sample
    (nor, over R with d = 2, a failing point of a fine grid) and every
    witness fails when it is evaluated directly; over Q_p the digit tree
    against the per-point loop, the witness and, where it is small enough,
    the exhaustive enumeration.  r_eps is never below the sampled value."""
    g, eps, samples, seed = data.draw(_eps_cases(field))
    if field.kind != "padic" and all(x == 0 for row in g for x in row):
        return  # a zero matrix is refused before any search
    if field.kind == "padic" and exact_det(mat_from_rows(g)) == 0:
        return  # not invertible: refused before any search
    try:
        v = eps_proximal_check(g, eps, field)
    except PreconditionError as e:
        assert "off X- to zero" in str(e)  # a kernel off X-, refused
        return
    event(f"{field.kind}: {v.reason.split(':')[0]}")
    event(f"{field.kind} indeterminate: {v.reason.startswith('indeterminate:')}")
    oracle = _per_point_eps_check(g, eps, field, samples, seed)
    if field.kind == "padic":
        _assert_exact_padic_verdict(g, eps, field, v, oracle)
    else:
        _assert_box_verdict(g, eps, field, v, oracle)
    try:
        pd = proximal_analyze(g, field)
    except IndeterminateError:
        return
    if pd is None:
        return
    d = point_hyperplane_distance(pd.attracting, pd.repelling).lower
    if d < 2 * eps:
        return
    if field.kind == "padic":
        _assert_padic_r_eps(pd.attracting, pd.repelling, eps, samples, seed)
        return
    est = r_eps(pd.attracting, pd.repelling, eps)
    value = _per_point_r_eps(pd.attracting, pd.repelling, eps, samples, seed)[1]
    assert est.value >= value - 1e-9


def _assert_box_verdict(g, eps, field, v, oracle):
    """The box verdict over R/C against the per-point loop: the same
    verdict wherever condition (2) is not reached, else certified or
    indeterminate; a pass that meets no failing sample (over R with d = 2
    not on a grid of 2^14 points of P^1 either) and a witness that
    fails."""
    ok, _, reason, _ = oracle
    assert v.samples_checked == 0
    if reason not in ("sampled", "condition (2) fails on a sample"):
        assert (v.ok, v.certified, v.reason) == oracle[:3]
        return
    if v.reason.startswith("indeterminate:"):
        assert not v.ok and not v.certified
        return
    assert v.certified
    pd = proximal_analyze(g, field)
    witness = _box_contraction_witness(g, pd, eps)
    assert (witness is None) == v.ok
    if v.ok:
        assert ok
    else:
        assert _fails_directly(g, pd, eps, witness)
    if field.kind == "real" and len(g) == 2 and v.ok:
        theta = np.linspace(0, math.pi, 1 << 14)
        grid = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        assert not len(_sampled_failures(g, pd, eps, grid))


# -- the exact eps-proximality route over Q_p ----------------------------------


# the most points of P^{d-1}(Z/p^M) a test enumerates
_ENUMERATION_BUDGET = 1500


def _exponents(eps, p):
    """(e, k): the largest e with p^-e >= eps and the least k with
    p^-k <= eps, compared as Fractions."""
    e = 0
    while F(1, p ** (e + 1)) >= F(eps):
        e += 1
    k = 0
    while F(1, p ** k) > F(eps):
        k += 1
    return e, k


def _fails_condition_2(g, pd, eps, u):
    """Whether the point [u] is eps-far from X- and g moves it farther
    than eps from x+, evaluated through ProjPoint and the distances."""
    x = ProjPoint([F(c) for c in u], pd.attracting.field)
    return (point_hyperplane_distance(x, pd.repelling).lower >= eps
            and proj_distance(_apply_to_point(g, x), pd.attracting) > eps)


def _chart_points(n, p, M):
    """Representatives of P^{n-1}(Z/p^M): the vectors with u_j = 1,
    u_i in pZ for i < j, and coordinates in 0..p^M - 1."""
    for j in range(n):
        yield from itertools.product(*[
            range(0, p ** M, p) if i < j else (1,) if i == j else range(p ** M)
            for i in range(n)])


def _chart_point_count(n, p, M):
    return sum(p ** ((M - 1) * j + M * (n - 1 - j)) for j in range(n))


def _enumeration_depth(g, eps, p):
    """A digit depth M at which every point of P^{d-1}(Z_p) fails or
    passes condition (2) with its residue mod p^M: the content of g u is
    at most the largest invariant factor of g, read off the Smith form."""
    e, k = _exponents(eps, p)
    G = ratio_form(mat_from_rows(g))[0]
    return max(e + 1, k + max(invariant_factor_valuations(G, p)) + 1)


def _assert_witness_semantics(g, pd, eps):
    """The tree's verdict for condition (2), with every witness failing
    when it is evaluated directly."""
    p = pd.attracting.field.p
    witness = _padic_contraction_witness(g, pd, eps, p)
    if witness is not None:
        assert _fails_condition_2(g, pd, eps, witness)
    return witness is None


def _assert_exact_padic_verdict(g, eps, field, v, oracle):
    """The exact verdict against the per-point loop: the same verdict
    wherever no sample is involved, certified everywhere, a sampled
    failure implies a certified failure, and an enumeration of
    P^{d-1}(Z/p^M) agrees where it is small enough to run."""
    ok, _, reason, _ = oracle
    assert v.certified and v.samples_checked == 0
    if reason not in ("sampled", "condition (2) fails on a sample"):
        assert (v.ok, v.reason) == (ok, reason)
        return
    if not ok:
        assert not v.ok
    pd = proximal_analyze(g, field)
    holds = _assert_witness_semantics(g, pd, eps)
    assert holds == v.ok
    M = _enumeration_depth(g, eps, field.p)
    if _chart_point_count(len(g), field.p, M) <= _ENUMERATION_BUDGET:
        event("enumerated")
        assert holds == (not any(_fails_condition_2(g, pd, eps, u)
                                 for u in _chart_points(len(g), field.p, M)))


def _assert_padic_r_eps(x0, X0, eps, samples, seed):
    """r_eps over Q_p is the closed form 2 max(v0, e - v0) log p and at
    least the value on the seeded sample."""
    p = x0.field.p
    est = r_eps(x0, X0, eps)
    v0 = rational_valuation(X0.pair(x0), p)
    e, _ = _exponents(eps, p)
    assert est.padic_k == max(v0, e - v0)
    assert est.value == pytest.approx(2 * max(v0, e - v0) * math.log(p))
    assert est.value >= _per_point_r_eps(x0, X0, eps, samples, seed)[1] - 1e-12


@st.composite
def _contraction_cases(draw, p):
    """(g, pd, eps) over Q_p, d in {2, 3}: g = lam A F^T + p^s H with A,
    F and H small integer and pd the data (x+ = [A], X- = ker F), so
    that condition (2) holds or fails depending on s, H and eps; and
    small enough for an enumeration of P^{d-1}(Z/p^M) to decide it."""
    n = draw(st.integers(2, 3))
    small = st.integers(-2, 2)
    nonzero = st.lists(small, min_size=n, max_size=n).filter(any)
    A, Fn = draw(nonzero), draw(nonzero)
    lam = draw(st.sampled_from([1, -1, 2, 3]))
    s = draw(st.integers(0, 3))
    H = [[draw(small) for _ in range(n)] for _ in range(n)]
    g = [[F(lam * a * f + p ** s * h) for f, h in zip(Fn, row)]
         for a, row in zip(A, H)]
    assume(exact_det(g) != 0)
    # the larger p, the fewer eps values keep the enumeration small
    eps = draw(st.sampled_from(
        [0.9, 0.5, 1 / 3, 0.3, 0.25, 0.2, 0.125, 0.1][:{2: 8, 3: 6, 5: 4}[p]]))
    assume(_chart_point_count(n, p, _enumeration_depth(g, eps, p))
           <= _ENUMERATION_BUDGET)
    field = padic(p)
    pd = ProximalData(None, ProjPoint([F(a) for a in A], field),
                      ProjHyperplane([F(f) for f in Fn], field), 0.0)
    return g, pd, eps


@pytest.mark.parametrize("p", [2, 3, 5])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_padic_digit_tree_matches_enumeration(p, data):
    g, pd, eps = data.draw(_contraction_cases(p))
    holds = _assert_witness_semantics(g, pd, eps)
    event(f"holds: {holds}")
    M = _enumeration_depth(g, eps, p)
    assert holds == (not any(_fails_condition_2(g, pd, eps, u)
                             for u in _chart_points(len(g), p, M)))


def test_padic_eps_exponents_compare_exactly():
    # the float 1/3 lies below 1/3, so distance exactly 1/3 is farther
    # than eps: k = 2 (a float comparison gives 1)
    assert _padic_eps_exponents(1 / 3, 3) == (1, 2)
    assert _padic_eps_exponents(0.125, 2) == (3, 3)
    assert _padic_eps_exponents(0.1, 3) == (2, 3)
    assert _padic_eps_exponents(1, 5) == (0, 0)
    # diag(1/9, 1) moves [3 : 1], at distance 1/3 > eps from X-, to
    # distance exactly 1/3 from x+ = [1 : 0]
    g = [[F(1, 9), F(0)], [F(0), F(1)]]
    v = eps_proximal_check(g, 1 / 3, Q3)
    assert (v.ok, v.certified) == (False, True)
    assert eps_proximal_check(g, 0.34, Q3).ok


# the set a box-search pass holds on when X- is off the coordinate axes
OFF_AXIS_SET = "holds on {|f.v| >= eps ||f||_1 ||v||}, a subset of the eps-far set"


def _conjugated(diagonal):
    P = ((F(1), F(1)), (F(1), F(2)))
    D = tuple(tuple(diagonal[i] if i == j else F(0) for j in range(2))
              for i in range(2))
    return mat_mul(mat_mul(P, D), exact_inverse(P))


def test_box_pass_names_the_set_it_holds_on():
    # on the axes {|f.v| >= eps ||f||_1 ||v||} is the eps-far set; off them
    # it is a strict subset, and the pass says so
    on = eps_proximal_check(np.diag([16.0, 1 / 16]), 0.1, REAL)
    assert _verdict(on) == (True, True, "exact box search", 0)
    g = to_float_array(_conjugated((F(16), F(1, 16))))
    pd = proximal_analyze(g, REAL)
    assert pd.repelling.aligned_axis() is None
    off = eps_proximal_check(g, 0.1, REAL, pd=pd)
    assert _verdict(off) == (True, True, "exact box search: " + OFF_AXIS_SET, 0)


def test_sampled_failure_at_known_index():
    # eigenvalue ratio 1/12 with x+ = [1 : 1] and X- = {2x - y = 0}: too
    # weak for eps = 0.1; the 36th point of the seeded sample at distance
    # >= eps from X- is the first whose image lies farther than eps from
    # x+, and the box search certifies the failure with its own witness
    g = _conjugated((F(1), F(1, 12)))
    v = eps_proximal_check(g, 0.1, REAL)
    assert _verdict(v) == (False, True, "condition (2) fails at a box witness", 0)
    assert _per_point_eps_check(g, 0.1, REAL, 2000, 0) == (
        False, False, "condition (2) fails on a sample", 36)
    pd = proximal_analyze(g, REAL)
    assert _fails_directly(g, pd, 0.1, _box_contraction_witness(g, pd, 0.1))


def test_box_search_refutes_a_sampled_pass():
    # diag(10) + a 2x2 block of spectral radius 1/64 at eps = 0.09: the
    # seeded sample of 10 000 points passed it, but far points near
    # [0.0914 : 1 : 0.984] land farther than eps from x+ = e1
    g = [[F(10), 0, 0], [0, F(43, 4096), F(171, 16384)],
         [0, F(-171, 4096), F(-683, 16384)]]
    pd = proximal_analyze(g, REAL)
    assert not len(_sampled_failures(g, pd, 0.09, _sample_rows(3, REAL, 10_000, 0)))
    v = eps_proximal_check(g, 0.09, REAL)
    assert _verdict(v) == (False, True, "condition (2) fails at a box witness", 0)
    assert _fails_directly(g, pd, 0.09, _box_contraction_witness(g, pd, 0.09))


def test_box_verdict_does_not_depend_on_a_seed():
    # the seeded sample failed this g at seed 0 and passed it at seed 1;
    # the box search gives one certified verdict
    g = [[F(14), 0, 0], [F(-53, 512), F(-13, 256), F(53, 512)],
         [F(7141, 512), 0, F(27, 512)]]
    eps = 0.10509164455683852
    pd = proximal_analyze(g, REAL)
    assert [len(_sampled_failures(g, pd, eps, _sample_rows(3, REAL, 10_000, seed))) > 0
            for seed in (0, 1)] == [True, False]
    v = eps_proximal_check(g, eps, REAL)
    assert _verdict(v) == (False, True, "condition (2) fails at a box witness", 0)
    assert _fails_directly(g, pd, eps, _box_contraction_witness(g, pd, eps))


def test_coordinate_hyperplane_distance_is_exact_over_c():
    # {x_1 = 0} is at distance |v_1| from a sup-normalised v over C as over
    # R, so a condition (1) failure against it is certified over both
    g = [[2, 0], [1, 1.5]]
    for field, m in ((REAL, g), (COMPLEX, [[complex(x) for x in row] for row in g])):
        pd = proximal_analyze(m, field)
        assert point_hyperplane_distance(pd.attracting, pd.repelling).exact
        v = eps_proximal_check(m, 0.3, field)
        assert (v.ok, v.certified) == (False, True)
        assert v.reason.startswith("condition (1) fails")


def _random_vector(rng, d, field):
    v = rng.standard_normal(d)
    return v + 1j * rng.standard_normal(d) if field is COMPLEX else v


@pytest.mark.parametrize("field", [REAL, COMPLEX], ids=["R", "C"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_hyperplane_bounds_bracket_the_distance(field, d):
    # H = {w : f.w = 0} is bilinear in f: the foot of v lies on it, lower is
    # below the distance to every point of H, and for d = 2, where H is
    # the point [(-f_2, f_1)], the distance is exact
    rng = np.random.default_rng(d)
    for _ in range(40):
        x = ProjPoint(_random_vector(rng, d, field), field)
        H = ProjHyperplane(_random_vector(rng, d, field), field)
        f, v = np.asarray(H.functional), np.asarray(x.vec)
        foot = _hyperplane_foot(f, v)
        assert abs(np.dot(f, foot)) <= 1e-12 * np.abs(f).sum() * np.abs(foot).max()
        hd = point_hyperplane_distance(x, H)
        assert hd.lower <= hd.upper
        if d == 2:
            point = ProjPoint(np.array([-f[1], f[0]]), field)
            assert hd.exact and hd.lower == hd.upper == proj_distance(x, point)
        else:
            assert not hd.exact
            assert hd.upper == max(proj_distance(x, ProjPoint(foot, field)), hd.lower)
        kernel = np.linalg.svd(f[None])[2][1:].conj()  # rows span H
        for c in rng.standard_normal((20, d - 1)):
            w = ProjPoint(c @ kernel, field)
            assert abs(H.pair(w)) < 1e-12
            assert hd.lower <= proj_distance(x, w) * (1 + 1e-12)


def test_complex_hyperplane_upper_bound_is_on_the_hyperplane():
    # the snap used conj(f).v, which is off H over C: at seed 0 (d = 2) it
    # reported 0.5539 for a distance of 0.6981, and condition (1) at eps
    # 0.3 failed uncertified; now seed 0 passes (1) and the box search, and
    # seeds 2 and 4 (upper < 0.6) are certified failures of (1)
    verdicts = {}
    for seed in (0, 2, 4):
        g = _complex_proximal(seed)
        pd = proximal_analyze(g, COMPLEX)
        if seed == 0:
            hd = point_hyperplane_distance(pd.attracting, pd.repelling)
            assert hd.exact and hd.lower == pytest.approx(0.6980527699871845, rel=1e-12)
        else:
            assert point_hyperplane_distance(pd.attracting, pd.repelling).upper < 0.6
        v = eps_proximal_check(g, 0.3, COMPLEX, pd=pd)
        verdicts[seed] = (v.ok, v.certified, v.reason.split(":")[0])
    assert verdicts == {0: (True, True, "exact box search"),
                        2: (False, True, "condition (1) fails"),
                        4: (False, True, "condition (1) fails")}


@pytest.mark.parametrize("field", [REAL, COMPLEX], ids=["R", "C"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_exact_point_test_matches_the_float_distance(field, data):
    """``_point_holds`` (the exact test d([w], x) <= eps over Gaussian
    integers) against proj_distance wherever the float distance is not
    within 1e-9 of eps."""
    n = data.draw(st.integers(2, 4))
    parts = 2 if field.kind == "complex" else 1
    ints = st.one_of(st.just((0, 0)), st.tuples(
        st.integers(-40, 40), st.integers(-40, 40) if parts == 2 else st.just(0)))
    w = [data.draw(ints) for _ in range(n)]
    assume(any(w[i] != (0, 0) for i in range(n)))
    top = data.draw(st.integers(0, n - 1))
    X = [data.draw(ints) for _ in range(n)]
    X[top] = (40, 0)  # x = X / 40 is sup-normalised
    assume(all(a * a + b * b <= 1600 for a, b in X))
    E = data.draw(st.integers(1, 30))
    x = ProjPoint([complex(a, b) / 40 if parts == 2 else a / 40 for a, b in X], field)
    y = ProjPoint([complex(a, b) if parts == 2 else float(a) for a, b in w], field)
    d = float(proj_distance(y, x))
    assume(abs(d - E / 40) > 1e-9)
    event(f"within: {d <= E / 40}")
    assert _point_holds(w, X, 40, E, field) == (d <= E / 40)


def test_open_box_search_is_indeterminate(monkeypatch):
    # a search still open at the budget ends as an indeterminate verdict,
    # never a sampled one
    g = _conjugated((F(1), F(1, 2 ** 8)))
    assert eps_proximal_check(g, 0.1, REAL).certified
    monkeypatch.setattr(archimedean, "_BOX_BUDGET", 0)
    v = eps_proximal_check(g, 0.1, REAL)
    assert (v.ok, v.certified, v.samples_checked) == (False, False, 0)
    assert v.reason.startswith("indeterminate: ")


def test_real_box_search_fixes_only_signs(monkeypatch):
    # a complex unit can bring real points nearer than any sign does, so a
    # box over R must be certified with u = +-1 only
    units = []

    def spy(W, x, field):
        d, u = _row_distances(W, x, field)
        units.extend(u.tolist())
        return d, u

    monkeypatch.setattr(archimedean, "_row_distances", spy)
    # at some box centres of these searches the nearest complex unit is not
    # real
    for g, eps in (([[F(0), F(-1)], [F(-3), F(-3)]], 0.1153829445620877),
                   ([[F(2), F(2), F(3)], [F(0), F(-2), F(2)], [F(-3), F(2), F(-1)]],
                    0.05350424034595446)):
        eps_proximal_check(g, eps, REAL)
    assert units and {complex(u) for u in units} <= {1, -1}


def test_box_search_with_a_singular_matrix():
    # as over Q_p: the kernel of diag(1, 0) lies in X- = {x_1 = 0}, so the
    # search decides condition (2); a kernel off X- is refused
    for field in (REAL, COMPLEX):
        pd = ProximalData(1.0, ProjPoint([1.0, 0.0], field),
                          ProjHyperplane([1.0, 0.0], field), 0.0)
        v = eps_proximal_check([[1.0, 0.0], [0.0, 0.0]], 0.1, field, pd=pd)
        assert (v.ok, v.certified) == (True, True)
        with pytest.raises(PreconditionError, match="off X- to zero"):
            eps_proximal_check([[1.0, 1.0], [1.0, 1.0]], 0.1, field, pd=pd)


def test_padic_sampled_pass_off_the_axes():
    # |lambda_2 / lambda_1|_2 = 2^-8 contracts every point at distance
    # >= 1/8 from X- to within 2^-5 < 0.1 of x+ = [1 : 1]
    Q2 = padic(2)
    g = _conjugated((F(1, 2 ** 8), F(1)))
    pd = proximal_analyze(g, Q2)
    assert pd.repelling.aligned_axis() is None
    v = eps_proximal_check(g, 0.1, Q2)
    assert _verdict(v) == (True, True, "exact digit-tree search", 0)
    assert _per_point_eps_check(g, 0.1, Q2, 500, 0)[0]
    _assert_padic_r_eps(pd.attracting, pd.repelling, 0.1, 500, 0)


def test_padic_sample_at_distance_exactly_eps_passes():
    # |lambda_2 / lambda_1|_2 = 2^-6: a point at distance 1/8 from X-
    # with a unit second coordinate lands at distance exactly 1/8 from x+,
    # which is <= eps = 1/8; the condition is not strict
    Q2 = padic(2)
    g = _conjugated((F(1, 2 ** 6), F(1)))
    v = eps_proximal_check(g, 0.125, Q2)
    assert _verdict(v) == (True, True, "exact digit-tree search", 0)
    assert _per_point_eps_check(g, 0.125, Q2, 500, 0)[0]
    v = eps_proximal_check(g, 0.124, Q2)
    assert not v.ok and v.certified
    assert not _per_point_eps_check(g, 0.124, Q2, 500, 0)[0]
    assert _assert_witness_semantics(g, proximal_analyze(g, Q2), 0.124) is False


def test_padic_r_eps_with_non_unit_pairing():
    # <X0-, x0+> = 2: d(x0+, X0-) = 1/2 and |t|_2 is relative to it
    Q2 = padic(2)
    x0 = ProjPoint([F(1), F(1)], Q2)
    X0 = ProjHyperplane([F(1), F(1)], Q2)
    est = r_eps(x0, X0, 0.25)
    assert est.value == pytest.approx(2 * math.log(2))
    _assert_padic_r_eps(x0, X0, 0.25, 300, 5)
    # <X0-, [1 : 3]> = 4 and e = 3 at eps = 0.1: the far point with
    # v(F.u) = 0 has |t|_2 = 4, so r_eps = 2 * 2 log 2, not 2 * (3 - 2) log 2
    x1 = ProjPoint([F(1), F(3)], Q2)
    assert r_eps(x1, X0, 0.1).value == pytest.approx(4 * math.log(2))
    _assert_padic_r_eps(x1, X0, 0.1, 300, 5)


# -- the product sandwich -----------------------------------------------------


def _aligned_real_instance(dim, lam, eps, seed=0):
    rng = np.random.default_rng(seed)
    z = np.zeros((dim, dim))
    z[0, 0] = lam
    block = rng.standard_normal((dim - 1, dim - 1))
    block *= (lam * eps * eps * 0.2) / np.abs(block).sum(axis=1).max()
    z[1:, 1:] = block
    return z


def test_sandwich_single_factor():
    x0 = ProjPoint([1.0, 0.0, 0.0], REAL)
    X0 = ProjHyperplane([1.0, 0.0, 0.0], REAL)
    z = _aligned_real_instance(3, 100.0, 0.2)
    rep = product_sandwich_check([z], [], 0.2, REAL, attracting=x0, repelling=X0)
    assert rep.passed
    assert rep.lower <= rep.value <= rep.upper
    assert rep.value == pytest.approx(sup_operator_norm(z, REAL))


def test_sandwich_diag8_signed_permutations():
    x0 = ProjPoint([1.0, 0.0, 0.0], REAL)
    X0 = ProjHyperplane([1.0, 0.0, 0.0], REAL)
    eps = 0.33
    z = np.diag([8.0, 0.2, 0.2])
    k = np.array([[1.0, 0, 0], [0, 0, -1.0], [0, 1.0, 0]])
    rep = product_sandwich_check(
        [z] * 4, [k] * 3, eps, REAL, attracting=x0, repelling=X0
    )
    assert rep.passed
    assert rep.value / rep.upper <= 1 + 1e-12
    assert rep.lower / rep.value <= 1 + 1e-12


def test_sandwich_padic_exact():
    x0 = ProjPoint([F(1), F(0), F(0)], Q3)
    X0 = ProjHyperplane([F(1), F(0), F(0)], Q3)
    lam = F(1, 3 ** 6)
    z = [[lam, 0, 0], [0, F(1), 0], [0, 0, F(3)]]
    k = [[F(1), 0, 0], [0, F(1), F(2)], [0, F(1), F(1)]]  # integral, det unit
    rep = product_sandwich_check(
        [z, z, z], [k, k], 0.1, Q3, attracting=x0, repelling=X0
    )
    assert rep.passed
    assert isinstance(rep.value, F)  # exact arithmetic end to end


def test_sandwich_padic_off_the_axes_draws_no_sample(monkeypatch):
    # x+ = [1 : 1] and X- = {2x = y}: r_eps and both factor verdicts are
    # exact over Q_2 off the coordinate axes, as are the verdicts for the
    # same eigendata over R and C, and no random number is drawn
    def no_sample(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(np.random, "default_rng", no_sample)
    Q2 = padic(2)
    z = _conjugated((F(1, 2 ** 8), F(1)))
    pd = proximal_analyze(z, Q2)
    assert pd.repelling.aligned_axis() is None
    rep = product_sandwich_check([z, z], [[[F(1), F(0)], [F(0), F(1)]]],
                                 0.1, Q2)
    assert rep.passed and rep.r_eps.padic_k is not None
    assert [(v.ok, v.certified, v.samples_checked)
            for v in rep.eps_verdicts] == [(True, True, 0)] * 2
    z = _conjugated((F(1), F(1, 2 ** 8)))
    for g in (z, [[complex(x) for x in row] for row in z]):
        field = COMPLEX if isinstance(g[0][0], complex) else REAL
        v = eps_proximal_check(g, 0.1, field)
        assert _verdict(v) == (True, True, "exact box search: " + OFF_AXIS_SET, 0)


def test_padic_search_with_a_singular_matrix():
    # the kernel of diag(1, 0) lies in X- = {x_1 = 0}: every eps-far
    # point has an image, so the search decides condition (2); a kernel
    # off X- (that of [[1, 1], [1, 1]]) is refused
    Q3 = padic(3)
    pd = ProximalData(F(1), ProjPoint([F(1), F(0)], Q3),
                      ProjHyperplane([F(1), F(0)], Q3), 0.0)
    assert _padic_contraction_witness([[F(1), F(0)], [F(0), F(0)]], pd,
                                      0.1, 3) is None
    v = eps_proximal_check([[F(1), F(0)], [F(0), F(0)]], 0.1, Q3, pd=pd)
    assert (v.ok, v.certified) == (True, True)
    with pytest.raises(PreconditionError, match="off X- to zero"):
        _padic_contraction_witness([[F(1), F(1)], [F(1), F(1)]], pd, 0.1, 3)


def test_sandwich_guard_violation():
    x0 = ProjPoint([1.0, 0.0, 0.0], REAL)
    X0 = ProjHyperplane([1.0, 0.0, 0.0], REAL)
    z = _aligned_real_instance(3, 100.0, 0.2)
    kbad = np.zeros((3, 3))
    kbad[1, 0], kbad[0, 1], kbad[2, 2] = 1.0, 1.0, 1.0  # sends x0+ into X0-
    with pytest.raises(PreconditionError) as err:
        product_sandwich_check(
            [z, z], [kbad], 0.2, REAL, attracting=x0, repelling=X0
        )
    assert err.value.index == 0


def test_sandwich_refuses_a_factor_that_moves_the_attracting_line():
    z1 = np.diag([100.0, 1 / 100])
    z2 = np.array([[100.0, 0.0], [1.0, 1 / 100]])
    with pytest.raises(PreconditionError, match="does not fix the attracting") as err:
        product_sandwich_check([z1, z2], [np.eye(2)], 0.1, REAL)
    assert err.value.index == 1


def test_sandwich_rejects_non_isometry():
    x0 = ProjPoint([1.0, 0.0, 0.0], REAL)
    X0 = ProjHyperplane([1.0, 0.0, 0.0], REAL)
    z = _aligned_real_instance(3, 100.0, 0.2)
    knot = np.diag([2.0, 0.5, 1.0])
    with pytest.raises(PreconditionError):
        product_sandwich_check(
            [z, z], [knot], 0.2, REAL, attracting=x0, repelling=X0
        )


# -- weight-pairing defect ----------------------------------------------------


def test_chi_mu_gap_cases():
    sl2 = special_linear(2, REAL)
    g = GroupElement([[F(4), 0], [0, F(1, 4)]], sl2)
    assert chi_mu_gap([g], 1) == pytest.approx(0.0, abs=1e-12)
    sl3 = special_linear(3, REAL)
    d1 = GroupElement([[F(4), 0, 0], [0, F(1), 0], [0, 0, F(1, 4)]], sl3)
    d2 = GroupElement([[F(2), 0, 0], [0, F(2), 0], [0, 0, F(1, 4)]], sl3)
    for i0 in (1, 2):
        assert chi_mu_gap([d1, d2], i0) == pytest.approx(0.0, abs=1e-10)
    # g, g^-1: defect is 2 * weight_pairing for SL_2
    from cartanlab import cartan, weight_pairing

    gap = chi_mu_gap([g, g.inv()], 1)
    assert gap == pytest.approx(2 * weight_pairing(1, cartan(g)), abs=1e-10)


def test_chi_mu_gap_bounded_linearly_for_transverse_products():
    # the weight-pairing gap bound through the wedge representation: for
    # diagonal factors with a strong simple-root gap, interleaved with
    # compact permutations fixing the relevant wedge line, the defect is
    # at most n * r_eps (the contraction lemma applied to the compound
    # matrices, which are aligned eps-proximal by construction)
    rng = np.random.default_rng(31)
    sl3 = special_linear(3, REAL)
    eps = 0.45
    r_alpha = -2 * math.log(eps)
    # i0 = 1: permutations fixing e1; i0 = 2: fixing the e1^e2 line
    w1 = GroupElement([[F(1), 0, 0], [0, 0, F(-1)], [0, F(1), 0]], sl3)
    w2 = GroupElement([[F(0), F(-1), 0], [F(1), 0, 0], [0, 0, F(1)]], sl3)
    for i0, w in ((1, w1), (2, w2)):
        for n in (2, 4, 6, 8):
            gs = []
            for _ in range(n):
                # both simple-root gaps large, so the relevant compound
                # matrices contract strongly enough for eps = 0.45
                s = float(rng.uniform(2.0, 3.0))
                t = float(rng.uniform(2 * s + 1.5, 2 * s + 3.0))
                a = np.diag([math.exp(t), math.exp(s - t / 2),
                             math.exp(-s - t / 2)])
                a /= np.linalg.det(a) ** (1 / 3)
                gs.append(GroupElement(a, sl3, check=False) @ w)
            gap = chi_mu_gap(gs, i0)
            assert gap <= n * r_alpha + 1e-9


def test_chi_mu_gap_one_sided():
    # submultiplicativity: the product side never exceeds the sum side
    import numpy as np

    from cartanlab import cartan, weight_pairing
    from util import random_sl_element

    rng = np.random.default_rng(23)
    sl3 = special_linear(3, REAL)
    for _ in range(50):
        gs = [random_sl_element(rng, 3, sl3) for _ in range(3)]
        prod = gs[0] @ gs[1] @ gs[2]
        for i0 in (1, 2):
            total = sum(weight_pairing(i0, cartan(g)) for g in gs)
            assert weight_pairing(i0, cartan(prod)) <= total + 1e-9


# -- the row-batched complex distance against the per-row loop ------------


def _complex_proximal(seed):
    """A seeded complex P diag(1, z_2, ...) P^-1 with 1e-3 < |z_i| < 0.1:
    at eps 0.05, 0.1 and 0.3 seeds 0-5 give certified passes and
    certified failures of condition (2)."""
    rng = np.random.default_rng(seed)
    n = 2 + seed % 3
    P = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    z = 10.0 ** -rng.uniform(1, 3, n) * np.exp(2j * math.pi * rng.uniform(size=n))
    z[0] = 1.0
    return (P @ np.diag(z) @ np.linalg.inv(P)).tolist()


def test_batched_phase_min_matches_the_per_row_loop():
    verdicts = set()
    for seed in range(6):
        g = _complex_proximal(seed)
        pd = proximal_analyze(g, COMPLEX)
        V = _sample_rows(pd.attracting.dim, COMPLEX, 20, seed)
        GX = V @ np.array(g).T
        W_all = GX / np.abs(GX).max(axis=1)[:, None]
        x = pd.attracting.vec
        got_all, units = _row_distances(W_all, x, COMPLEX)
        grid = np.array([_grid_phase_min(w, x) for w in W_all])
        assert _within_grid_bound(got_all, grid)
        # the unit it reports attains the distance
        assert (np.abs(W_all - units[:, None] * x).max(axis=1) == got_all).all()
        for eps in (0.05, 0.1, 0.3):
            v = eps_proximal_check(g, eps, COMPLEX, pd=pd)
            verdicts.add((v.ok, v.certified))
            if v.ok:
                assert not len(_sampled_failures(g, pd, eps, V))
            elif v.reason.startswith("condition (2)"):
                witness = _box_contraction_witness(g, pd, eps)
                assert _fails_directly(g, pd, eps, witness)
        # proj_distance takes the same path one row at a time
        ys = [ProjPoint(w, COMPLEX) for w in W_all]
        batched = _row_distances(np.array([y.vec for y in ys]), x, COMPLEX)[0]
        assert [proj_distance(y, pd.attracting) for y in ys] == batched.tolist()
    assert {(True, True), (False, True)} <= verdicts
