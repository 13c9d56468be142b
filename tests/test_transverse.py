import functools
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cartanlab.exact as ex
from cartanlab import (
    REAL,
    GroupElement,
    Homomorphism,
    PreconditionError,
    Presentation,
    RankOneModel,
    Word,
    cartan,
    decompose,
    displacement,
    inclusion,
    indefinite_orthogonal,
    padic,
    parse_word,
    special_linear,
    transversality_gap,
    word_ball,
)
from cartanlab.cartan import _sl2_padic_mu1
from cartanlab.fields import int_valuation
from cartanlab.cartan import to_float_array
from cartanlab.transverse import _sym2_columns, displacement_scale, orbit_data, sl2_to_so21
from cartanlab.wordgroups import evaluate

from util import schottky_sl2_presentation

SL2R = special_linear(2, REAL)
SL2Q3 = special_linear(2, padic(3))


def test_displacement_identity_zero():
    M = RankOneModel.sl2_real()
    g = GroupElement([[F(1), 0], [0, F(1)]], SL2R)
    assert displacement(g, M) == 0.0


def test_displacement_diag_boost_doubles_parameter():
    M = RankOneModel.sl2_real()
    t = 0.7
    g = GroupElement(np.array([[math.exp(t), 0.0], [0.0, math.exp(-t)]]), SL2R)
    # oracle: arccosh(cosh(2t)) on the hyperboloid
    assert displacement(g, M) == pytest.approx(2 * t, abs=1e-12)
    from cartanlab import cartan, mu_norm

    assert displacement(g, M) == pytest.approx(
        displacement_scale(M) * mu_norm(cartan(g)), abs=1e-12
    )


def test_displacement_tree():
    M = RankOneModel.sl2_tree(3)
    g = GroupElement([[F(3), 0], [0, F(1, 3)]], SL2Q3)
    assert displacement(g, M) == 2
    from cartanlab import cartan, mu_norm

    assert 2 == pytest.approx(math.sqrt(2) * mu_norm(cartan(g)))


def test_hyperboloid_model_with_orthogonal_matrices():
    from cartanlab import indefinite_orthogonal

    so21 = indefinite_orthogonal(2, 1, REAL)
    M = RankOneModel.hyperboloid((F(1), F(1), F(-1)))
    t = 1.3
    m = np.eye(3)
    m[0, 0] = m[2, 2] = math.cosh(t)
    m[0, 2] = m[2, 0] = math.sinh(t)
    g = GroupElement(m, so21)
    assert displacement(g, M) == pytest.approx(t, abs=1e-12)
    # scale constant is 1 for the SO-convention Cartan coordinates
    from cartanlab import cartan, mu_norm

    assert displacement(g, M) == pytest.approx(mu_norm(cartan(g)), abs=1e-10)


def test_sl2_to_so21_preserves_form():
    rng = np.random.default_rng(5)
    J = np.diag([1.0, 1.0, -1.0])
    for _ in range(20):
        m = rng.standard_normal((2, 2))
        m /= math.sqrt(abs(np.linalg.det(m)))
        if np.linalg.det(m) < 0:
            m[0] *= -1
        R = sl2_to_so21(m)
        assert np.abs(R.T @ J @ R - J).max() < 1e-9


def test_gap_examples():
    M = RankOneModel.sl2_real()
    a = GroupElement([[F(4), 0], [0, F(1, 4)]], SL2R)
    # h = g^-1: gap is -2 |mu(g)|
    assert transversality_gap(a, a.inv(), M) == pytest.approx(
        -2 * displacement(a, M), abs=1e-9
    )
    # same axis, same direction: additive, gap 0
    assert transversality_gap(a, a, M) == pytest.approx(0.0, abs=1e-9)
    # generic Schottky pair: strictly negative
    P = schottky_sl2_presentation()
    b = P.generators[1]
    assert transversality_gap(a, b, M) < -1e-6


def test_decompose_cyclic_exact():
    a = ex.mat_from_rows([[F(4), 0], [0, F(1, 4)]])
    P = Presentation(["a"], [a], SL2R)
    M = RankOneModel.sl2_real()
    R = displacement(evaluate(parse_word("a^2", ["a"]), inclusion(P)), M)
    dec = decompose(parse_word("a^6", ["a"]), P, M, R)
    assert dec.accepted
    assert [w.format(["a"]) for w in dec.factors] == ["a a", "a a", "a a"]
    assert dec.d_achieved == pytest.approx(0.0, abs=1e-9)
    assert all(g == pytest.approx(0.0, abs=1e-9) for g in dec.gap_defects)
    assert all(d == pytest.approx(R, abs=1e-9) for d in dec.displacements)
    assert dec.d_achieved <= dec.predicted_ceiling + 1e-12


@pytest.mark.parametrize("R", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_decompose_refuses_a_subdivision_that_is_not_positive_and_finite(R):
    # inf and nan used to pass the R <= 0 test
    a = ex.mat_from_rows([[F(4), 0], [0, F(1, 4)]])
    P = Presentation(["a"], [a], SL2R)
    with pytest.raises(PreconditionError, match="positive and finite"):
        decompose(parse_word("a^2", ["a"]), P, RankOneModel.sl2_real(), R)


def test_decompose_short_word_single_factor():
    a = ex.mat_from_rows([[F(4), 0], [0, F(1, 4)]])
    P = Presentation(["a"], [a], SL2R)
    M = RankOneModel.sl2_real()
    dec = decompose(parse_word("a", ["a"]), P, M, 10.0)
    assert len(dec.factors) == 1
    assert dec.factors[0] == parse_word("a", ["a"])
    assert dec.gap_defects == []


def test_decompose_reassembly_exact():
    P = schottky_sl2_presentation()
    phi = inclusion(P)
    M = RankOneModel.sl2_real()
    orb = orbit_data(P, phi, M, 4)
    R = 2 * math.log(4)
    ball = word_ball(P, phi, 4)
    for e in ball.entries[1:40]:
        dec = decompose(e.word, P, M, R, phi=phi, orbit=orb)
        assert dec.accepted
        prod = evaluate(Word_concat(dec.factors), phi)
        assert prod == e.element


def Word_concat(words):
    from cartanlab import Word

    out = Word()
    for w in words:
        out = out * w
    return out


def test_decompose_gap_defects_bounded():
    P = schottky_sl2_presentation()
    phi = inclusion(P)
    M = RankOneModel.sl2_real()
    orb = orbit_data(P, phi, M, 5)
    R = 2 * math.log(4)
    ball = word_ball(P, phi, 5)
    for e in ball.entries:
        if len(e.word) == 0:
            continue
        dec = decompose(e.word, P, M, R, phi=phi, orbit=orb)
        assert dec.accepted
        for g in dec.gap_defects:
            assert g <= 1e-9  # subadditivity at factor level
            assert g >= -dec.d_achieved - 1e-9
        assert dec.d_achieved <= dec.predicted_ceiling + 1e-9


def test_decompose_tree():
    a = [[F(3), 0], [0, F(1, 3)]]
    P = Presentation(["a"], [a], SL2Q3)
    M = RankOneModel.sl2_tree(3)
    dec = decompose(parse_word("a^6", ["a"]), P, M, 4.0)
    assert dec.accepted
    assert [w.format(["a"]) for w in dec.factors] == ["a a", "a a", "a a"]
    assert dec.d_achieved == 0.0
    assert dec.segment_length == 12.0


def test_snap_budget_rejection():
    # orbit too sparse: single generator with huge displacement, small R
    a = ex.mat_from_rows([[F(4096), 0], [0, F(1, 4096)]])
    P = Presentation(["a"], [a], SL2R)
    M = RankOneModel.sl2_real()
    dec = decompose(parse_word("a^3", ["a"]), P, M, 1.0, snap_radius=1,
                    snap_budget=0.5)
    assert not dec.accepted
    assert "budget" in dec.diagnostics


def test_distinct_base_point():
    a = ex.mat_from_rows([[F(4), 0], [0, F(1, 4)]])
    P = Presentation(["a"], [a], SL2R)
    M = RankOneModel.sl2_real()
    x0p = np.array([0.3, 0.0, math.sqrt(1.09)])  # on the model sheet
    R = 2 * math.log(4)
    dec = decompose(parse_word("a^4", ["a"]), P, M, R, x0_prime=x0p)
    assert dec.accepted
    # ceiling now carries the 6*d(x0, x0') term
    assert dec.predicted_ceiling >= 6 * math.acosh(math.sqrt(1.09)) - 1e-9


def test_model_validation():
    with pytest.raises(PreconditionError):
        RankOneModel.hyperboloid((F(1), F(-1), F(1)))  # negative not last
    M = RankOneModel.sl2_tree(3)
    g = GroupElement([[F(1), 0], [0, F(1)]], SL2R)
    with pytest.raises(PreconditionError):
        displacement(g, M)  # wrong field
    g = GroupElement([[F(3), 0], [0, F(1, 3)]], special_linear(2, padic(5)))
    with pytest.raises(PreconditionError):
        displacement(g, M)  # another prime


def test_tree_refuses_anything_but_sl2():
    # mu_1 - mu_2 of diag(1/2, 1/2, 4) is 0, which is no tree distance
    M = RankOneModel.sl2_tree(2)
    g = GroupElement([[F(1, 2), 0, 0], [0, F(1, 2), 0], [0, 0, F(4)]],
                     special_linear(3, padic(2)))
    with pytest.raises(PreconditionError, match="SL_2"):
        displacement(g, M)
    so = indefinite_orthogonal(1, 1, padic(2))
    h = GroupElement([[F(5, 4), F(3, 4)], [F(3, 4), F(5, 4)]], so)
    with pytest.raises(PreconditionError, match="SL_2"):
        displacement(h, M)


def _padic_sl2_word(p):
    """Products of elementary matrices of SL_2(Q) whose entries have
    denominators divisible by p, and of diag(p^k, p^-k)."""
    entry = st.builds(lambda n, j, u: F(n, p ** j * u), st.integers(-30, 30),
                      st.integers(0, 3), st.sampled_from([1, 7, 11]))
    letter = st.one_of(
        entry.map(lambda x: [[1, x], [0, 1]]),
        entry.map(lambda x: [[1, 0], [x, 1]]),
        st.integers(-3, 3).map(lambda k: [[F(p) ** k, 0], [0, F(p) ** -k]]),
    )
    return st.lists(letter, min_size=1, max_size=8).map(
        lambda ms: functools.reduce(ex.mat_mul, ms, ex.identity(2)))


@pytest.mark.parametrize("p", [2, 3, 5])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_tree_distance_is_the_cartan_gap(p, data):
    m = data.draw(_padic_sl2_word(p))
    g = GroupElement(m, special_linear(2, padic(p)))
    mu = cartan(g)
    d = displacement(g, RankOneModel.sl2_tree(p))
    assert d == mu.coords[0] - mu.coords[1]
    # the formula needs no canonical form: scaling N and d by c = p^k u
    # leaves it unchanged
    (N, den), c = g.ratio, p ** data.draw(st.integers(0, 3)) * 13
    entries = [c * x for row in N for x in row]
    assert 2 * _sl2_padic_mu1(int_valuation(c * den, p), entries, p) == d


def _cartan_distance(g):
    mu = cartan(g)
    return mu.coords[0] - mu.coords[1]


def _tree_decompose_oracle(gamma, orbit, R):
    """decompose on the tree with every distance from ``cartan``:
    d(x0, gamma^-1 x0) from g^-1, and d(x0, gamma w x0) from g @ phi(w)
    for every ball word w.  Returns the factors and snap distances."""
    entries = orbit.ball.entries
    g = evaluate(gamma, orbit.phi)
    d_ab = _cartan_distance(g.inv())
    ac = np.array([_cartan_distance(e.element) for e in entries], dtype=float)
    bc = np.array([_cartan_distance(g @ e.element) for e in entries], dtype=float)
    gromov = 0.5 * (d_ab + ac - bc)
    lambdas, snaps = [Word()], []
    n = int(d_ab // R)
    for i in range(1, n + 1):
        dists = np.abs(i * R - gromov) + ac - gromov
        j = int(np.argmin(dists))
        lambdas.append(entries[j].word)
        snaps.append(float(dists[j]))
    factors = [gamma * lambdas[n]] + [
        lambdas[n - i + 1].inverse() * lambdas[n - i] for i in range(1, n + 1)]
    if len(factors) > 1 and len(factors[0]) == 0:
        factors = factors[1:]
    return factors, snaps


def test_tree_decompose_equals_the_cartan_oracle():
    from util import schottky_sl2_matrices

    P = Presentation(["a", "b"], list(schottky_sl2_matrices()),
                     special_linear(2, padic(2)))
    M = RankOneModel.sl2_tree(2)
    phi = inclusion(P)
    R = max(_cartan_distance(g) for g in P.generators)
    orbit = orbit_data(P, phi, M, 3)
    for e in orbit.ball.entries[1:]:
        dec = decompose(e.word, P, M, R, phi=phi, orbit=orbit)
        factors, snaps = _tree_decompose_oracle(e.word, orbit, R)
        assert dec.accepted
        assert dec.factors == factors
        assert dec.snap_distances == snaps
        assert dec.displacements == [
            float(_cartan_distance(evaluate(w, phi))) for w in factors]
        # gap defects are those of the last adjacent pairs of factors
        start = len(factors) - 1 - len(dec.gap_defects)
        assert dec.gap_defects == [
            _cartan_distance(evaluate(factors[i] * factors[i + 1], phi))
            - dec.displacements[i] - dec.displacements[i + 1]
            for i in range(start, len(factors) - 1)]


def _float_sl2_presentation():
    """A Schottky pair with decimal float entries, so ball products round."""
    a = np.array([[4.0, 0.0], [0.0, 0.25]])
    c = np.array([[1.0, 0.3], [0.2, 1.06]])
    b = c @ a @ np.linalg.inv(c)
    return Presentation(["a", "b"], [a, b], SL2R)


@pytest.mark.parametrize("case", ["sl2_plane", "q2_tree", "float_sl2_plane"])
def test_shared_orbit_decomposes_as_a_fresh_one(case):
    if case == "q2_tree":
        from util import schottky_sl2_matrices

        P = Presentation(["a", "b"], list(schottky_sl2_matrices()),
                         special_linear(2, padic(2)))
        M = RankOneModel.sl2_tree(2)
    else:
        P = (_float_sl2_presentation() if case == "float_sl2_plane"
             else schottky_sl2_presentation())
        M = RankOneModel.sl2_real()
    phi = inclusion(P)
    R = max(displacement(g, M) for g in P.generators)
    radius = 3
    orbit = orbit_data(P, phi, M, radius)
    for e in orbit.ball.entries[1:]:
        shared = decompose(e.word, P, M, R, phi=phi, orbit=orbit)
        fresh = decompose(e.word, P, M, R, phi=phi, snap_radius=radius)
        assert shared == fresh
        # every factor displacement is the one of the evaluated word
        assert shared.displacements == [
            float(displacement(evaluate(w, phi), M)) for w in shared.factors]


def test_decompose_refuses_an_orbit_of_another_phi_or_model():
    P = schottky_sl2_presentation()
    phi = inclusion(P)
    M = RankOneModel.sl2_real()
    orbit = orbit_data(P, phi, M, 2)
    w = parse_word("a b", ["a", "b"])
    R = 2 * math.log(4)
    # phi defaults to the orbit's own
    assert decompose(w, P, M, R, orbit=orbit).accepted
    swapped = Homomorphism(phi.images[::-1], P.group)
    with pytest.raises(PreconditionError):
        decompose(w, P, M, R, phi=swapped, orbit=orbit)
    H = RankOneModel.hyperboloid((F(1), F(1), F(-1)))
    with pytest.raises(PreconditionError):
        decompose(w, P, H, R, phi=phi, orbit=orbit)


def test_shared_orbit_carries_its_own_base_point():
    a = [[F(4), 0], [0, F(1, 4)]]
    b = [[F(5, 4), F(3, 4)], [F(3, 4), F(5, 4)]]
    P = Presentation(["a", "b"], [a, b], SL2R)
    M = RankOneModel.sl2_real()
    phi = inclusion(P)
    w = parse_word("a^3 b^2 a", ["a", "b"])
    R = 2 * math.log(4)
    x0p = np.array([0.3, 0.0, math.sqrt(1.09)])
    fresh = decompose(w, P, M, R, phi=phi, snap_radius=6, x0_prime=x0p)
    # an orbit built at x0' snaps as a fresh orbit at x0' does ...
    at_x0p = orbit_data(P, phi, M, 6, x0p)
    assert decompose(w, P, M, R, phi=phi, orbit=at_x0p) == fresh
    assert decompose(w, P, M, R, phi=phi, orbit=at_x0p, x0_prime=x0p) == fresh
    # ... and an orbit of the base point refuses another x0'
    with pytest.raises(PreconditionError, match="base point"):
        decompose(w, P, M, R, phi=phi, x0_prime=x0p, orbit=orbit_data(P, phi, M, 6))


def _z4z_presentation():
    """Exact Z/4 * Z in SO(2,1); the relator r^4 keeps the inverses of
    some ball words (r^-1 r^-1 merges into r r) out of the ball."""
    r = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
    s = [[F(257, 32), 0, F(-255, 32)], [0, 1, 0], [F(-255, 32), 0, F(257, 32)]]
    return Presentation(["r", "s"], [r, s], indefinite_orthogonal(2, 1, REAL),
                        relators=[parse_word("r^4", ["r", "s"])])


@pytest.mark.parametrize("case", ["sl2_plane", "float_sl2_plane", "z4z_hyperboloid",
                                  "sl2_plane_at_x0p"])
def test_orbit_points_and_displacements_are_the_per_element_ones(case):
    # the stacked orbit pass against the per-element formulas it replaced:
    # w.x0' = A(w) @ x0' with A the symmetric square laid out column by
    # column, and d(x0, w.x0) = acosh(-B(x0, A(w) @ x0)), bit for bit
    x0p = None
    if case == "z4z_hyperboloid":
        P, M = _z4z_presentation(), RankOneModel.hyperboloid((1, 1, -1))
    else:
        P = _float_sl2_presentation() if case == "float_sl2_plane" else \
            schottky_sl2_presentation()
        M = RankOneModel.sl2_real()
        if case == "sl2_plane_at_x0p":
            x0p = np.array([0.3, 0.0, math.sqrt(1.09)])
    orbit = orbit_data(P, inclusion(P), M, 3, x0p)
    x0 = M.base_point
    for k, e in enumerate(orbit.ball.elements()):
        a = to_float_array(e)
        A = a if case == "z4z_hyperboloid" else np.array(_sym2_columns(a)).T
        assert orbit.points[k].tobytes() == (A @ orbit.x0_prime).tobytes()
        want = math.acosh(max(-float(np.sum(M.coeffs * x0 * (A @ x0))), 1.0))
        assert orbit.distances[k] == want == displacement(e, M)


@pytest.mark.parametrize("make, model, inverses", [
    (schottky_sl2_presentation, RankOneModel.sl2_real(), 0),
    (_z4z_presentation, RankOneModel.hyperboloid((1, 1, -1)), 5),
])
def test_decompose_reads_gamma_inverse_from_the_orbit(monkeypatch, make, model,
                                                      inverses):
    # on a free exact ball every inverse word is a ball word; under r^4 the
    # words whose inverse merged fall back to inverting phi(gamma)
    P = make()
    phi = inclusion(P)
    orbit = orbit_data(P, phi, model, 3)
    R = max(displacement(g, model) for g in P.generators)
    calls = []
    inv = GroupElement.inv
    monkeypatch.setattr(GroupElement, "inv", lambda g: calls.append(g) or inv(g))
    shared = [decompose(e.word, P, model, R, phi=phi, orbit=orbit)
              for e in orbit.ball.entries[1:]]
    assert len(calls) == inverses
    monkeypatch.undo()
    for e, dec in zip(orbit.ball.entries[1:], shared):
        assert dec == decompose(e.word, P, model, R, phi=phi, snap_radius=3)
