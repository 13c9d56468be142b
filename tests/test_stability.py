import math
from fractions import Fraction as F

import numpy as np
import pytest

from cartanlab import (
    REAL,
    ConeModel,
    GroupElement,
    PreconditionError,
    cartan,
    cone_gap,
    delta_l_constants,
    indefinite_orthogonal,
    mu_cone,
    mu_norm,
    properness_margin,
    seminorm,
    seminorm_defects,
    special_linear,
    stability_scan,
    stability_scans,
    inclusion,
    word_ball,
)
from cartanlab.stability import (
    DeltaLData,
    coroot_basis,
    fit_envelope,
    seminorm_bounds_check,
    StabilityRow,
    _row_norms,
)
from cartanlab.wordgroups import Homomorphism, conjugate_homomorphism, evaluate

from util import (
    boost_Y_so22,
    schottky_so22_presentation,
    schottky_sl2_presentation,
    so21_boost,
    u11_boost,
)

SL3R = special_linear(3, REAL)
SO22 = indefinite_orthogonal(2, 2, REAL)


def _sl3_block_generator():
    return GroupElement(np.diag([math.e, 1 / math.e, 1.0]), SL3R)


def test_delta_l_diagonal_block_in_sl3():
    d = delta_l_constants(_sl3_block_generator(), SL3R)
    assert d.delta_indices == (1, 2)
    # mu(l_t) = (t, 0, -t): both simple roots pair with ratio 1/sqrt(2)
    assert d.t_plus[1] == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    assert d.t_plus[2] == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    # principal-type symmetry: t+_1 = t-_2 by chamber symmetry
    assert d.t_plus[1] == pytest.approx(d.t_minus[2], abs=1e-9)
    assert d.c >= 1.0


def test_delta_l_so21_in_so22():
    d = delta_l_constants(so21_boost(1.0), SO22)
    assert d.delta_indices == (1,)
    assert d.t_plus[1] == pytest.approx(1.0, abs=1e-9)
    assert d.t_minus[1] == pytest.approx(1.0, abs=1e-9)
    # the second simple root (folded chamber wall) is excluded
    assert d.t_plus[2] == 0.0 and d.t_minus[2] == 0.0


def test_delta_l_rejects_inconsistent_axis():
    # not an axis: a generic element whose powers change mu-direction
    g = GroupElement(
        np.array([[2.0, 1.0, 0.0], [0.0, 0.5, 0.3], [0.0, 0.0, 1.0]]), SL3R,
        check=False,
    )
    with pytest.raises(PreconditionError):
        delta_l_constants(g, SL3R, tol=1e-10)


def test_seminorm_examples():
    d = delta_l_constants(_sl3_block_generator(), SL3R)
    # Delta_L = {1,2}: projection is the identity on the sum-zero plane
    v = np.array([1.0, -1.0, 0.0])
    assert seminorm(v, d) == pytest.approx(math.sqrt(2), abs=1e-9)
    # vector orthogonal to the coroot span: zero seminorm
    assert seminorm(np.array([1.0, 1.0, 1.0]), d) == pytest.approx(0, abs=1e-9)
    lo, val, hi = seminorm_bounds_check(v, d)
    assert lo <= val + 1e-12 and val <= hi + 1e-12


def test_seminorm_equivalence_on_random_vectors():
    # the two-sided bound with the assembled c, on 1e3 random vectors of
    # the coroot span (the seminorm's natural domain)
    d = delta_l_constants(_sl3_block_generator(), SL3R)
    rng = np.random.default_rng(41)
    for _ in range(1000):
        v = d.projection @ rng.standard_normal(3)
        lo, val, hi = seminorm_bounds_check(v, d)
        assert lo <= val + 1e-9
        assert val <= hi + 1e-9


def test_seminorm_single_root_projection():
    # hand-built data with Delta_L = {alpha_1} in SL_3 coordinates
    B = coroot_basis("SL", 3)[:, [0]]
    q, _ = np.linalg.qr(B)
    d = DeltaLData(SL3R, (1,), {1: 1.0}, {1: 1.0}, q @ q.T, 2.0)
    v = np.array([1.0, -1.0, 0.0])
    assert seminorm(v, d) == pytest.approx(math.sqrt(2), abs=1e-12)
    w = np.array([1.0, 1.0, -2.0])  # orthogonal to alpha_1 coroot
    assert seminorm(w, d) == pytest.approx(0.0, abs=1e-12)


def test_cone_gap_cases():
    e1 = np.array([[1.0, 0.0, 0.0]]).T
    r = cone_gap([1.0, 0, 0], [1.0, 0, 0], e1, 0.1, 0.0)
    assert r.in_class and r.bound == pytest.approx(0.0)
    r = cone_gap([1.0, 0, 0], [1.1, 0, 0], e1, 0.1, 0.0)
    assert r.in_class
    assert r.bound == pytest.approx(0.1)
    r = cone_gap([0.0, 1.0, 0.0], [0.0, 1.0, 0.0], e1, 0.1, 0.0)
    assert not r.in_class
    with pytest.raises(PreconditionError):
        cone_gap([0.0, 0, 0], [0.0, 0, 0], e1, 0.1, 0.0)


def test_cone_gap_lemma_reproduction():
    # sup of the normalized bound over in-class pairs strictly decreases
    # along delta; extremal pairs saturate the norm constraint with an
    # orthogonal deviation (of relative size about sqrt(2*delta))
    e1 = np.eye(3)[:, :1]
    cpp = 0.5
    sups = []
    for delta in (0.3, 0.1, 0.03):
        sup = 0.0
        for mult in (10.0, 100.0, 1000.0):
            scale = (cpp / delta) * mult
            x = np.array([scale, 0.0, 0.0])
            b = math.sqrt(
                max(((1 + delta) * scale + cpp) ** 2 - scale ** 2, 0.0)
            ) * 0.999
            xp = x + np.array([0.0, b, 0.0])
            r = cone_gap(x, xp, e1, delta, cpp)
            assert r.in_class
            sup = max(sup, r.bound)
        sups.append(sup)
    assert sups[0] > sups[1] > sups[2] > 0


def test_stability_scan_identity():
    P = schottky_sl2_presentation()
    phi = inclusion(P)
    rep = stability_scan(P, phi, phi, 3)
    assert rep.eps_hat == 0.0 and rep.c_hat == 0.0
    assert rep.envelope_valid()
    assert len(rep.rows) == 53


def test_stability_scan_conjugation():
    P = schottky_sl2_presentation()
    phi = inclusion(P)
    g = GroupElement([[F(2), F(1)], [F(1), F(1)]],
                     special_linear(2, REAL))
    phig = conjugate_homomorphism(phi, g)
    bound = 2 * mu_norm(cartan(g))
    rep = stability_scan(P, phi, phig, 4, rho0=math.inf)
    assert rep.eps_hat == 0.0
    assert rep.c_hat <= bound + 1e-9
    # row-level consequence of the Lipschitz inequalities
    for r in rep.rows:
        assert r.deviation <= bound + 1e-9


def test_stability_eps_monotone_in_rho0():
    P = schottky_so22_presentation()
    phi = inclusion(P)
    from cartanlab import BendingFamily, bend
    from util import boost_Y_so22

    fam = BendingFamily(P, boost_Y_so22())
    phit = bend(fam, 0.2)
    eps_values = []
    for rho0 in (3.0, 6.0, 9.0, math.inf):
        rep = stability_scan(P, phi, phit, 4, rho0=rho0)
        eps_values.append(rep.eps_hat)
        assert rep.envelope_valid()
    assert all(a >= b - 1e-12 for a, b in zip(eps_values, eps_values[1:]))


def _deformations(kind, P):
    phi = inclusion(P)
    if kind == "bend":
        from cartanlab import BendingFamily, bend
        from cartanlab.bending import so_subalgebra_basis, standard_so_form

        fam = BendingFamily(P, boost_Y_so22(), subalgebra=so_subalgebra_basis(
            standard_so_form(2, 2), 3))
        return [bend(fam, t) for t in (0.0, 0.01, 0.1, 0.3)] + [phi]
    return [phi] + [conjugate_homomorphism(phi, g) for g in (
        u11_boost(0.4), so21_boost(0.7) @ u11_boost(-0.2),
        u11_boost(0.9) @ so21_boost(0.3))]


@pytest.mark.parametrize("kind, rho0", [("bend", None), ("conjugation", math.inf)])
def test_stability_scans_equal_one_scan_per_deformation(kind, rho0):
    P = schottky_so22_presentation()
    phi = inclusion(P)
    phis = _deformations(kind, P)
    reports = stability_scans(P, phi, phis, 4, rho0=rho0)
    assert len(reports) == len(phis)
    for phi_t, rep in zip(phis, reports):
        one = stability_scan(P, phi, phi_t, 4, rho0=rho0)
        assert rep.rows == one.rows  # == on every float
        assert (rep.eps_hat, rep.c_hat, rep.rho0, rep.radius) == (
            one.eps_hat, one.c_hat, one.rho0, one.radius)
        assert [r.word for r in rep.rows] == [e.word for e in rep.ball.entries]
        # each row against its own word's Cartan projections
        for r in rep.rows[::17]:
            mu_ref = np.asarray(cartan(evaluate(r.word, phi)).coords)
            mu_def = np.asarray(cartan(evaluate(r.word, phi_t)).coords)
            assert r.mu_norm == float(np.linalg.norm(mu_ref))
            assert r.deviation == float(np.linalg.norm(mu_def - mu_ref))


def test_stability_scans_refuse_a_bad_deformation():
    P = schottky_so22_presentation()
    phi = inclusion(P)
    good = _deformations("conjugation", P)[1]
    a, b = phi.images
    with pytest.raises(PreconditionError):
        stability_scans(P, phi, [good, Homomorphism([a, b], SL3R)], 2)
    assert stability_scans(P, phi, [], 2) == []


def test_stability_refuses_relator_failure():
    from cartanlab import AmalgamStructure, Homomorphism, Presentation, parse_word
    from util import schottky_sl2_matrices

    a, b = schottky_sl2_matrices()
    P = Presentation(
        ["a", "b"], [a, b], special_linear(2, REAL),
        structure=AmalgamStructure(
            side1=(0,), side2=(1,),
            gamma0_pairs=((parse_word("a", ["a", "b"]),
                           parse_word("a", ["a", "b"])),),
        ),
    )
    bad = Homomorphism([b, a], special_linear(2, REAL))
    # pair (a = a) holds trivially; break it with a genuinely bad pair
    P2 = Presentation(
        ["a", "b"], [a, b], special_linear(2, REAL),
        structure=AmalgamStructure(
            side1=(0,), side2=(1,),
            gamma0_pairs=((parse_word("a", ["a", "b"]),
                           parse_word("b", ["a", "b"])),),
        ),
    )
    with pytest.raises(PreconditionError):
        stability_scan(P2, inclusion(P2), inclusion(P2), 2)


def test_seminorm_defect_column():
    P = schottky_sl2_presentation()
    phi = inclusion(P)
    d = delta_l_constants(
        GroupElement(np.diag([2.0, 0.5]), special_linear(2, REAL)),
        special_linear(2, REAL),
    )

    def crude_factorizer(word):
        if len(word) < 2:
            return None
        half = len(word) // 2
        from cartanlab import Word

        return [Word(word.letters[:half]), Word(word.letters[half:])]

    ball = word_ball(P, phi, 3)
    defects = seminorm_defects(ball, phi, d, crude_factorizer)
    long_rows = [x for e, x in zip(ball.entries, defects) if len(e.word) >= 2]
    assert all(x is not None for x in long_rows)
    assert all(x >= -1e-12 for x in long_rows)


def test_mu_cone_shapes():
    # compact subgroup: origin cone
    rot = GroupElement(
        np.array([
            [0.0, -1.0, 0, 0], [1.0, 0.0, 0, 0],
            [0, 0, 1.0, 0], [0, 0, 0, 1.0],
        ]), SO22)
    cone = mu_cone([rot], SO22)
    assert cone.is_origin
    # U(1,1) ray distinct from the SO(2,1) ray
    coneU = mu_cone([u11_boost(1.0), u11_boost(2.0)], SO22)
    coneL = mu_cone([so21_boost(1.0), so21_boost(2.0)], SO22)
    assert len(coneU.rays) == 1 and len(coneL.rays) == 1
    assert np.abs(coneU.rays[0] - np.array([1, 1]) / math.sqrt(2)).max() < 1e-9
    assert np.abs(coneL.rays[0] - np.array([1.0, 0.0])).max() < 1e-9


def test_mu_cone_sl3_block():
    g = _sl3_block_generator()
    cone = mu_cone([g, g @ g, g.inv()], SL3R)
    assert len(cone.rays) == 1  # principal axis is symmetric
    ray = cone.rays[0]
    assert np.abs(ray - np.array([1, 0, -1]) / math.sqrt(2)).max() < 1e-9


def test_mu_cone_rejects_off_axis():
    g = _sl3_block_generator()
    h = GroupElement(np.diag([4.0, 2.0, 0.125]), SL3R)  # different ray
    with pytest.raises(PreconditionError):
        mu_cone([g, h], SL3R)


def test_properness_margins():
    coneU = mu_cone([u11_boost(1.0), u11_boost(2.0)], SO22)
    samples = [cartan(so21_boost(t)) for t in (1.0, 2.0, 3.0, 4.0)]
    rep = properness_margin(samples, coneU, rho0=1.0)
    assert rep.slope > 0.5
    assert rep.lower_envelope_valid()
    # margins are |mu| * distance of (1,0) from the (1,1)-ray = |mu|/sqrt 2
    for r in rep.rows:
        assert r.margin == pytest.approx(r.mu_norm / math.sqrt(2), abs=1e-9)
    # containment control: samples on the cone itself
    coneL = mu_cone([so21_boost(1.0), so21_boost(2.0)], SO22)
    repc = properness_margin(samples, coneL, rho0=1.0)
    assert repc.slope == pytest.approx(0.0, abs=1e-9)
    assert all(r.margin == pytest.approx(0, abs=1e-9) for r in repc.rows)


def test_properness_takes_elements_projections_or_a_mix():
    # the elements' projections come from one array, a CartanVector's as
    # given: every mix of the two gives the same margins to the bit
    coneU = mu_cone([u11_boost(1.0), cartan(u11_boost(2.0))], SO22)
    assert coneU.rays[0].tolist() == mu_cone([u11_boost(1.0)], SO22).rays[0].tolist()
    gs = [so21_boost(1.0), u11_boost(2.5), so21_boost(3.0) @ u11_boost(0.5)]
    mus = [cartan(g) for g in gs]
    reports = [properness_margin(samples, coneU, rho0=1.0)
               for samples in (gs, mus, [gs[0], mus[1], gs[2]])]
    assert [r.rows for r in reports[1:]] == [reports[0].rows] * 2


def test_properness_origin_cone():
    samples = [cartan(so21_boost(t)) for t in (1.0, 2.0)]
    rep = properness_margin(samples, ConeModel([], 2), rho0=0.5)
    for r in rep.rows:
        assert r.margin == pytest.approx(r.mu_norm)
    assert rep.note.startswith("finite-radius")


def test_fit_envelope_policy():
    rows = [
        StabilityRow(None, 0, 0.5, 0.2),
        StabilityRow(None, 1, 1.0, 0.3),
        StabilityRow(None, 2, 4.0, 1.1),
    ]
    eps, c = fit_envelope(rows, rho0=2.0)
    assert c == 0.3
    assert eps == pytest.approx((1.1 - 0.3) / 4.0)
    eps_inf, c_inf = fit_envelope(rows, rho0=math.inf)
    assert eps_inf == 0.0 and c_inf == 1.1


@pytest.mark.parametrize("rho0", [-1.0, -0.5, math.nan])
def test_negative_or_nan_rho0_is_refused(rho0):
    # rho0 = -1 used to divide by the identity row's ||mu|| = 0, NaN to fail
    # the envelope's own check, and a negative properness rho0 to fit slope 0
    P = schottky_sl2_presentation()
    phi = inclusion(P)
    with pytest.raises(PreconditionError, match="rho0"):
        stability_scans(P, phi, [phi], 2, rho0=rho0)
    with pytest.raises(PreconditionError, match="rho0"):
        stability_scan(P, phi, phi, 2, rho0=rho0)
    samples = [cartan(so21_boost(t)) for t in (1.0, 2.0)]
    with pytest.raises(PreconditionError, match="rho0"):
        properness_margin(samples, ConeModel([], 2), rho0=rho0)
    # rho0 = inf and 0 stay allowed
    assert properness_margin(samples, ConeModel([], 2), rho0=math.inf).slope == 0.0
    assert stability_scan(P, phi, phi, 2, rho0=0.0).c_hat == 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_row_norms_have_the_bits_of_one_norm_per_row(n):
    # a row sum of squares differs from the 1-D norm in its last bit on
    # about a tenth of these rows; the stacked products must not
    rng = np.random.default_rng(n)
    X = rng.standard_normal((20000, n)) * rng.choice([1e-3, 1.0, 1e3], (20000, 1))
    got = _row_norms(X)
    assert all(type(v) is float for v in got)
    assert got == [float(np.linalg.norm(x)) for x in X]
    assert _row_norms(np.empty((0, n))) == []
