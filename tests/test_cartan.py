import math
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanlab import (
    COMPLEX,
    REAL,
    BendingFamily,
    CartanVector,
    GroupElement,
    NumericalError,
    Presentation,
    PreconditionError,
    QuadElement,
    bend,
    cartan,
    cartan_batch,
    inclusion,
    indefinite_orthogonal,
    indefinite_unitary,
    mu_norm,
    padic,
    quadratic,
    special_linear,
    wedge_norm_log,
    weight_pairing,
    word_ball,
)
from cartanlab.cartan import (_float_stack, invariant_factor_valuations,
                              max_compact_element, to_float_array)

from util import (boost_Y_so22, random_sl_element, random_sl2_padic,
                  schottky_sl2_presentation, schottky_so22_presentation)

SL2R = special_linear(2, REAL)
SL3R = special_linear(3, REAL)
SL2Q3 = special_linear(2, padic(3))

# oracle: eigenvalues of [[1,1],[1,2]] are (3 +- sqrt 5)/2; half-logs
LOG_PHI = 0.5 * math.log((3 + math.sqrt(5)) / 2)


def test_identity_projects_to_zero():
    g = GroupElement([[F(1), 0], [0, F(1)]], SL2R)
    assert cartan(g).coords == (0.0, 0.0)


def test_diagonal_already_in_chamber():
    g = GroupElement([[F(2), 0], [0, F(1, 2)]], SL2R)
    mu = cartan(g)
    assert mu.coords[0] == pytest.approx(math.log(2), abs=1e-12)
    assert mu.coords[1] == pytest.approx(-math.log(2), abs=1e-12)


def test_unipotent_closed_form():
    g = GroupElement([[F(1), F(1)], [0, F(1)]], SL2R)
    mu = cartan(g)
    assert mu.coords[0] == pytest.approx(LOG_PHI, abs=1e-12)
    assert mu.coords[1] == pytest.approx(-LOG_PHI, abs=1e-12)
    assert LOG_PHI == pytest.approx(math.log((1 + math.sqrt(5)) / 2), abs=1e-15)


def test_so22_boost_top_two_log_singular_values():
    so22 = indefinite_orthogonal(2, 2, REAL)
    t = 1.0
    m = np.eye(4)
    m[0, 0] = m[2, 2] = np.cosh(t)
    m[0, 2] = m[2, 0] = np.sinh(t)
    mu = cartan(GroupElement(m, so22))
    assert mu.coords[0] == pytest.approx(1.0, abs=1e-12)
    assert mu.coords[1] == pytest.approx(0.0, abs=1e-12)


def test_padic_examples():
    g = GroupElement([[F(1), 0], [0, F(1)]], SL2Q3)
    assert cartan(g).coords == (0, 0)
    g = GroupElement([[F(3), 0], [0, F(1, 3)]], SL2Q3)
    assert cartan(g).coords == (1, -1)
    g = GroupElement([[F(1), F(1)], [F(3), F(4)]], SL2Q3)
    assert cartan(g).coords == (0, 0)


def test_padic_smith_oracle():
    # diag(9, 1): invariant factors 1 | 9 over Z_(3)
    assert invariant_factor_valuations([[F(9), 0], [0, F(1)]], 3) == [0, 2]
    assert invariant_factor_valuations([[F(1), F(1)], [F(3), F(4)]], 3) == [0, 0]
    # tree displacement cross-check: ||mu(diag(3,1/3))|| ~ distance 2 / sqrt 2
    mu = cartan(GroupElement([[F(3), 0], [0, F(1, 3)]], SL2Q3))
    assert mu_norm(mu) == pytest.approx(2 / math.sqrt(2), abs=1e-12)


def test_mu_norm_values():
    assert mu_norm(CartanVector((0.0, 0.0, 0.0), "SL")) == 0
    assert mu_norm(CartanVector((1, -1), "SL", exact=True)) == pytest.approx(
        math.sqrt(2)
    )
    v = CartanVector((math.log(2), 0.0, -math.log(2)), "SL")
    assert mu_norm(v) == pytest.approx(0.9802581434685472, abs=1e-12)


def test_weight_pairing():
    assert weight_pairing(1, CartanVector((math.log(2), -math.log(2)), "SL")) == (
        pytest.approx(math.log(2))
    )
    v = CartanVector((0.5, 0.2, -0.7), "SL")
    assert weight_pairing(2, v) == pytest.approx(0.7)
    g = GroupElement([[F(1), F(1)], [0, F(1)]], SL2R)
    assert weight_pairing(1, cartan(g)) == pytest.approx(LOG_PHI, abs=1e-12)
    with pytest.raises(PreconditionError):
        weight_pairing(3, CartanVector((0.0, 0.0, 0.0), "SL"))


def test_wedge_norm_log_examples():
    g = GroupElement([[F(1), 0, 0], [0, F(1), 0], [0, 0, F(1)]], SL3R)
    assert wedge_norm_log(g, 1) == pytest.approx(0.0, abs=1e-12)
    g = GroupElement([[F(4), 0, 0], [0, F(1), 0], [0, 0, F(1, 4)]], SL3R)
    assert wedge_norm_log(g, 2) == pytest.approx(math.log(4), abs=1e-12)
    g = GroupElement([[F(1), F(1)], [0, F(1)]], SL2R)
    assert wedge_norm_log(g, 1) == pytest.approx(LOG_PHI, abs=1e-12)


def test_wedge_norm_log_is_right_at_length():
    # w^20 for w = ab in SL_3(Z): minors of the float matrix cancelled to a
    # relative error of 5.5e-7 here (6.7e-12 already at w^10)
    a = GroupElement([[2, 1, 0], [1, 1, 0], [0, 0, 1]], SL3R)
    b = GroupElement([[1, 0, 0], [0, 3, 2], [0, 1, 1]], SL3R)
    w = a @ b
    g = w
    for _ in range(19):
        g = g @ w
    N, d = g.ratio
    with mpmath.workdps(120):
        s = sorted(mpmath.svd_r(mpmath.matrix(N) / d, compute_uv=False), reverse=True)
        want = [float(mpmath.log(s[0])), float(mpmath.log(s[0] * s[1]))]
    for i0 in (1, 2):
        assert wedge_norm_log(g, i0) == pytest.approx(want[i0 - 1], rel=1e-14)


def test_wedge_norm_log_is_right_at_length_over_q_sqrt2():
    # the minors of an exact element over Q(sqrt 2) come from its field
    # entries; from its float entries they cancelled to a relative error
    # of 6.9e-6 on w^20
    G = special_linear(3, quadratic(2))
    s, one, zero = QuadElement(0, 1, 2), QuadElement(1, 0, 2), QuadElement(0, 0, 2)
    a = GroupElement([[one + s, one, zero], [s, one, zero], [zero, zero, one]], G)
    b = GroupElement([[one, zero, zero], [zero, one + s, s], [zero, one, one]], G)
    w = a @ b
    g = w
    for _ in range(19):
        g = g @ w
    with mpmath.workdps(120):
        r = mpmath.sqrt(2)
        M = mpmath.matrix([[mpmath.mpf(x.a.numerator) / x.a.denominator
                            + mpmath.mpf(x.b.numerator) / x.b.denominator * r
                            for x in row] for row in g.matrix])
        sv = sorted(mpmath.svd_r(M, compute_uv=False), reverse=True)
        want = [float(mpmath.log(sv[0])), float(mpmath.log(sv[0] * sv[1]))]
    for i0 in (1, 2):
        assert wedge_norm_log(g, i0) == pytest.approx(want[i0 - 1], rel=1e-12)


_SL_WORD_LETTERS = {
    2: list(schottky_sl2_presentation().generators),
    3: [GroupElement([[2, 1, 0], [1, 1, 0], [0, 0, 1]], SL3R),
        GroupElement([[1, 0, 0], [0, 3, 2], [0, 1, 1]], SL3R)],
}


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([2, 3]), word=st.lists(st.integers(0, 3), max_size=40))
def test_sl_cartan_of_long_words_against_mpmath(n, word):
    # the old recentring by the mean spread the error of the smallest
    # singular value into every coordinate: on (ab)^15 of the SL_2
    # Schottky pair it reported mu_1 = 20.03 for 51.20
    a, b = _SL_WORD_LETTERS[n]
    g = GroupElement([[int(i == j) for j in range(n)] for i in range(n)], a.group)
    for k in word:
        g = g @ (a, b, a.inv(), b.inv())[k]
    got = cartan(g).coords
    N, d = g.ratio
    with mpmath.workdps(150):
        sv = sorted(mpmath.svd_r(mpmath.matrix(N) / d, compute_uv=False),
                    reverse=True)
        want = [float(mpmath.log(s)) for s in sv]
    # a backward-stable SVD moves s_k by about n u s_1 at most (Weyl), so
    # log s_k is right to that over s_k; the last coordinate is minus the
    # sum of the others
    tols = [1e-14 * max(1.0, abs(want[k]))
            + 16 * n * 2.0 ** -52 * math.exp(want[0] - want[k]) for k in range(n - 1)]
    tols.append(sum(tols))
    for k in range(n):
        assert abs(got[k] - want[k]) <= tols[k]


def test_wedge_identity_complex_float():
    sl3c = special_linear(3, COMPLEX)
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        g = GroupElement(m / np.linalg.det(m) ** (1 / 3), sl3c)
        mu = cartan(g)
        for i0 in (1, 2):
            assert abs(wedge_norm_log(g, i0) - weight_pairing(i0, mu)) <= 1e-8


def test_wedge_identity_padic_exact():
    sl3q3 = special_linear(3, padic(3))
    g = GroupElement([[F(9), 0, 0], [0, F(1), 0], [0, 0, F(1, 9)]], sl3q3)
    mu = cartan(g)
    assert wedge_norm_log(g, 2) == weight_pairing(2, mu) == 2
    rng = np.random.default_rng(5)
    for _ in range(25):
        h = _sl3_padic(rng)
        mu = cartan(h)
        for i0 in (1, 2):
            assert wedge_norm_log(h, i0) == weight_pairing(i0, mu)


def _sl3_padic(rng, p=3):
    import cartanlab.exact as ex

    m = ex.identity(3)
    for _ in range(4):
        i, j = rng.integers(0, 3, size=2)
        if i == j:
            continue
        e = [[F(1) if r == c else F(0) for c in range(3)] for r in range(3)]
        e[i][j] = F(int(rng.integers(-6, 7)), int(rng.integers(1, 4)))
        m = ex.mat_mul(m, ex.mat_from_rows(e))
    k = int(rng.integers(-1, 2))
    d = ex.mat_from_rows(
        [[F(p) ** k, 0, 0], [0, F(1), 0], [0, 0, F(p) ** (-k)]]
    )
    return GroupElement(ex.mat_mul(m, d), special_linear(3, padic(p)), check=False)


def test_subadditivity_and_lipschitz_real():
    rng = np.random.default_rng(7)
    for _ in range(200):
        g = random_sl_element(rng, 3, SL3R)
        h = random_sl_element(rng, 3, SL3R)
        mg = np.array(cartan(g).coords)
        mh = np.array(cartan(h).coords)
        mgh = np.array(cartan(g @ h).coords)
        ng, nh = np.linalg.norm(mg), np.linalg.norm(mh)
        assert np.linalg.norm(mgh) <= ng + nh + 1e-9
        assert np.linalg.norm(mgh - mh) <= ng + 1e-9
        assert np.linalg.norm(mgh - mg) <= nh + 1e-9


def test_subadditivity_padic_exact():
    rng = np.random.default_rng(11)
    for _ in range(100):
        g = random_sl2_padic(rng, 3, SL2Q3)
        h = random_sl2_padic(rng, 3, SL2Q3)
        a = cartan(g).coords
        b = cartan(h).coords
        c = cartan(g @ h).coords
        # integer coordinates: compare squared norms exactly
        assert _sq(c) <= _sq(a) + _sq(b) + 2 * math.isqrt(_sq(a) * _sq(b)) + 1
        assert _sq(tuple(x - y for x, y in zip(c, b))) <= _sq(a)
        assert _sq(tuple(x - y for x, y in zip(c, a))) <= _sq(b)


def _sq(v):
    return sum(x * x for x in v)


def test_bi_invariance_real_orthogonal():
    rng = np.random.default_rng(13)
    g = random_sl_element(rng, 3, SL3R)
    mu = np.array(cartan(g).coords)
    for _ in range(20):
        q1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(q1) < 0:
            q1[:, 0] *= -1
        if np.linalg.det(q2) < 0:
            q2[:, 0] *= -1
        k1 = GroupElement(q1, SL3R, check=False)
        k2 = GroupElement(q2, SL3R, check=False)
        mu2 = np.array(cartan(k1 @ g @ k2).coords)
        assert np.abs(mu - mu2).max() < 1e-9


def test_bi_invariance_padic_integral():
    rng = np.random.default_rng(17)
    g = GroupElement([[F(9), F(1)], [F(2), F(1, 3)]], SL2Q3, check=False)
    mu = cartan(g).coords
    for _ in range(20):
        k1 = _integral_sl2(rng)
        k2 = _integral_sl2(rng)
        assert max_compact_element(SL2Q3, k1)
        assert cartan(k1 @ g @ k2).coords == mu


def _integral_sl2(rng):
    import cartanlab.exact as ex

    m = ex.identity(2)
    for _ in range(3):
        x = F(int(rng.integers(-5, 6)))
        if rng.integers(0, 2):
            e = ex.mat_from_rows([[1, x], [0, 1]])
        else:
            e = ex.mat_from_rows([[1, 0], [x, 1]])
        m = ex.mat_mul(m, e)
    return GroupElement(m, SL2Q3, check=False)


def test_inverse_symmetry():
    rng = np.random.default_rng(19)
    for _ in range(20):
        g = random_sl_element(rng, 3, SL3R)
        mu = np.array(cartan(g).coords)
        mu_inv = np.array(cartan(g.inv()).coords)
        assert np.abs(mu_inv - (-mu[::-1])).max() < 1e-9
    for _ in range(20):
        g = random_sl2_padic(rng, 3, SL2Q3)
        mu = cartan(g).coords
        assert cartan(g.inv()).coords == tuple(-x for x in reversed(mu))


def test_complex_field_unitary_case():
    sl2c = special_linear(2, COMPLEX)
    g = GroupElement(np.array([[2j, 0], [0, -0.5j]]), sl2c, check=False)
    mu = cartan(g)
    assert mu.coords[0] == pytest.approx(math.log(2), abs=1e-12)


def test_unitary_group_descriptor():
    u11 = indefinite_unitary(1, 1, COMPLEX)
    m = np.array([[np.cosh(1.0), np.sinh(1.0)], [np.sinh(1.0), np.cosh(1.0)]],
                 dtype=complex)
    mu = cartan(GroupElement(m, u11))
    assert mu.coords == (pytest.approx(1.0, abs=1e-12),)


def test_group_element_validation():
    with pytest.raises(PreconditionError):
        GroupElement([[F(2), 0], [0, F(1)]], SL2R)  # det 2
    so21 = indefinite_orthogonal(2, 1, REAL)
    with pytest.raises(PreconditionError):
        GroupElement([[F(1), 0, 0], [0, F(1), F(1)], [0, 0, F(1)]], so21)
    # det 1 and every column of the right form norm, but N^T J N has
    # nonzero (0, 1) and (1, 2) entries
    with pytest.raises(PreconditionError, match="preserve the form"):
        GroupElement([[-1, -1, 0], [0, 1, 0], [0, 1, -1]], so21)


def test_chamber_validation():
    with pytest.raises(PreconditionError):
        CartanVector((0.0, 1.0), "SL")
    with pytest.raises(PreconditionError):
        CartanVector((1.0, 0.5), "SL")  # sum nonzero
    with pytest.raises(PreconditionError):
        CartanVector((1.0, -0.5), "SO")


# ---------------------------------------------------------------------------
# cartan_batch: one stacked SVD, bit for bit the per-element projections


def _one_svd_mu(g):
    """The Cartan coordinates of one element from its own SVD, the
    per-matrix recipe that ``cartan_batch`` stacks (as a float array)."""
    grp = g.group
    a = to_float_array(g)
    if grp.family != "SL":
        d = np.sqrt(np.abs([float(c) for c in grp.form]))
        a = np.diag(d) @ a @ np.diag(1.0 / d)
    logs = np.log(np.linalg.svd(a, compute_uv=False))
    if grp.family == "SL":  # det 1 completes the top n-1
        return np.append(logs[:-1], 0.0 - logs[:-1].sum())
    top = np.sort(logs)[::-1][:grp.rank]
    return np.where(top > -1e-9, np.maximum(top, 0.0), top)


def _assert_batch_is_bitwise(elements, group):
    got = cartan_batch(elements, group)
    want = [cartan(g) for g in elements]
    assert len(got) == len(want)
    for a, b, g in zip(got, want, elements):
        assert (a.family, a.exact) == (b.family, b.exact)
        assert np.array(a.coords).tobytes() == np.array(b.coords).tobytes()
        assert np.array(a.coords).tobytes() == _one_svd_mu(g).tobytes()


def _ball_elements(P, radius):
    return [e.element for e in word_ball(P, inclusion(P), radius).entries]


def test_cartan_batch_matches_cartan_on_reference_balls():
    P = schottky_sl2_presentation()
    _assert_batch_is_bitwise(_ball_elements(P, 4), P.group)
    a = [[F(2), F(1), 0], [F(1), F(1), 0], [0, 0, F(1)]]
    b = [[F(1), 0, 0], [0, F(3), F(1)], [0, F(2), F(1)]]
    P3 = Presentation(("a", "b"), (a, b), SL3R)
    _assert_batch_is_bitwise(_ball_elements(P3, 3), SL3R)
    Pso = schottky_so22_presentation()
    _assert_batch_is_bitwise(_ball_elements(Pso, 3), Pso.group)


def test_cartan_batch_matches_cartan_on_a_bent_float_ball():
    P = schottky_so22_presentation()
    phi = bend(BendingFamily(P, boost_Y_so22()), 0.3)
    images = word_ball(P, inclusion(P), 3).images(phi)
    assert not images[-1].is_exact
    _assert_batch_is_bitwise(images, P.group)


def test_float_stack_is_int_division_on_each_side_of_2_53():
    # below 2**53 the stack is one float division; past it (or past the
    # float range) it is x / d per entry
    big = 2 ** 53
    cases = [
        (((big - 1, -(big - 3)), (7, 1 - big)), 3),
        (((big - 1, 2), (3, 4)), big - 1),
        (((big + 1, -(big + 3)), (big * 3, 1)), 3),
        (((1, 2), (3, 4)), big + 1),
        (((10 ** 320, 1), (2, 3)), 10 ** 300),
    ]
    for N, d in cases:
        elements = [GroupElement._ratio(N, d, SL2R), GroupElement._ratio(N, d, SL2R)]
        want = np.array([[[x / d for x in row] for row in N]] * 2)
        assert _float_stack(elements).tobytes() == want.tobytes()
    # past the bound a float division of the rounded N would miss
    assert np.float64(big + 1) / 3 != (big + 1) / 3


def test_cartan_batch_keeps_real_and_complex_stacks_apart():
    # a complex SVD of these real boosts differs in the last bit of s_1
    u11 = indefinite_unitary(1, 1, COMPLEX)
    boosts = [GroupElement(np.array([[np.cosh(t), np.sinh(t)],
                                     [np.sinh(t), np.cosh(t)]]), u11)
              for t in (0.7, 1.5, 2.2)]
    turn = GroupElement(np.diag([np.exp(0.4j), np.exp(-0.4j)]), u11)
    elements = boosts + [turn, boosts[0] @ turn, turn @ boosts[1] @ boosts[2]]
    assert [g._m.dtype.kind for g in elements] == ["f"] * 3 + ["c"] * 3
    _assert_batch_is_bitwise(elements, u11)


def test_cartan_batch_rescales_a_form_over_q_sqrt2():
    # x0^2 + x1^2 - (1 + sqrt 2)^2 x2^2: the boost of the standard form,
    # conjugated by diag(1, 1, 1 + sqrt 2), has entries in Q(sqrt 2)
    q2 = quadratic(2)
    u = QuadElement(1, 1, 2)
    so21 = indefinite_orthogonal(2, 1, q2, form=(F(1), F(1), -u * u))
    assert so21._rescale is not None
    boost = [[F(5, 4), 0, F(3, 4) * u], [0, F(1), 0],
             [F(3, 4) / u, 0, F(5, 4)]]
    turn = [[F(3, 5), F(-4, 5), 0], [F(4, 5), F(3, 5), 0], [0, 0, F(1)]]
    P = Presentation(("a", "b"), (boost, turn), so21)
    _assert_batch_is_bitwise(_ball_elements(P, 3), so21)
    # the conjugated boost keeps the standard boost's mu: cosh t = 5/4
    assert cartan(P.generators[0]).coords == pytest.approx((math.log(2),),
                                                           abs=1e-12)


def test_cartan_batch_padic_empty_and_non_finite():
    P = schottky_sl2_presentation()
    Q2 = special_linear(2, padic(2))
    elements = [GroupElement(g.matrix, Q2) for g in _ball_elements(P, 2)]
    assert cartan_batch(elements, Q2) == [cartan(g) for g in elements]
    assert cartan_batch([], SL2R) == []
    good = GroupElement(np.array([[2.0, 0.0], [0.0, 0.5]]), SL2R)
    bad = GroupElement(np.array([[np.inf, 0.0], [0.0, 0.5]]), SL2R, check=False)
    with pytest.raises(NumericalError, match="non-finite"):
        cartan(bad)
    with pytest.raises(NumericalError, match="non-finite"):
        cartan_batch([good, bad, good], SL2R)
    with pytest.raises(PreconditionError):
        cartan_batch([good], SL3R)
