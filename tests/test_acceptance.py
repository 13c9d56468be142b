"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the checklist.
Tolerances are fixed here, not calibrated: 1e-9 for floating Cartan
inequalities, 1e-12 for the closed form, 1e-8 for the norm identity,
exact arithmetic wherever the field is non-Archimedean.
"""

import json
import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

import cartanlab.exact as ex
from cartanlab import (
    REAL,
    BendingFamily,
    GroupElement,
    PreconditionError,
    ProjHyperplane,
    ProjPoint,
    RankOneModel,
    bend,
    cartan,
    cone_gap,
    decompose,
    inclusion,
    module_decomposition_check,
    mu_cone,
    mu_norm,
    padic,
    parse_word,
    product_sandwich_check,
    properness_margin,
    special_linear,
    stability_scans,
    wedge_norm_log,
    weight_pairing,
    word_ball,
    zariski_density_witness,
)
from cartanlab.bending import so_subalgebra_basis, standard_so_form
from cartanlab.cli import main as cli_main
from cartanlab.serialize import matrix_to_json
from cartanlab.transverse import displacement, orbit_data
from cartanlab.wordgroups import Presentation, conjugate_homomorphism, evaluate

from util import (
    boost_Y_so22,
    random_sl2_padic,
    random_sl_element,
    schottky_sl2_presentation,
    schottky_so22_presentation,
    so21_boost,
    u11_boost,
)

SL3R = special_linear(3, REAL)
SL2Q3 = special_linear(2, padic(3))


def _report(num, text):
    print(f"\n[criterion {num:02d}] PASS - {text}")


# -- 1: Cartan inequalities ----------------------------------------------------


def _norm_leq_sum_exact(v, a, b):
    """sqrt(V) <= sqrt(A) + sqrt(B) via exact integer arithmetic."""
    V = sum(x * x for x in v)
    A = sum(x * x for x in a)
    B = sum(x * x for x in b)
    if V <= A + B:
        return True
    return (V - A - B) ** 2 <= 4 * A * B


def test_criterion_01_cartan_inequalities():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        g = random_sl_element(rng, 3, SL3R)
        h = random_sl_element(rng, 3, SL3R)
        mg = np.asarray(cartan(g).coords)
        mh = np.asarray(cartan(h).coords)
        mgh = np.asarray(cartan(g @ h).coords)
        ng, nh = np.linalg.norm(mg), np.linalg.norm(mh)
        assert np.linalg.norm(mgh) <= ng + nh + 1e-9
        assert np.linalg.norm(mgh - mh) <= ng + 1e-9
        assert np.linalg.norm(mgh - mg) <= nh + 1e-9
    for _ in range(1_000):
        g = random_sl2_padic(rng, 3, SL2Q3)
        h = random_sl2_padic(rng, 3, SL2Q3)
        a = cartan(g).coords
        b = cartan(h).coords
        c = cartan(g @ h).coords
        assert _norm_leq_sum_exact(c, a, b)
        diff_b = tuple(x - y for x, y in zip(c, b))
        diff_a = tuple(x - y for x, y in zip(c, a))
        assert sum(x * x for x in diff_b) <= sum(x * x for x in a)
        assert sum(x * x for x in diff_a) <= sum(x * x for x in b)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(1, f"subadditivity + Lipschitz bounds on 1e4 real and 1e3 "
               f"exact padic pairs in {elapsed:.1f}s")


# -- 2: closed forms ------------------------------------------------------------


def test_criterion_02_closed_forms():
    g = GroupElement([[F(1), F(1)], [0, F(1)]], special_linear(2, REAL))
    mu = cartan(g)
    # independent oracle: eigenvalues of g^T g = [[1,1],[1,2]]
    eigs = np.linalg.eigvalsh(np.array([[1.0, 1.0], [1.0, 2.0]]))
    oracle = 0.5 * math.log(eigs[-1])
    assert mu.coords[0] == pytest.approx(oracle, abs=1e-12)
    assert mu.coords[0] == pytest.approx(
        math.log((1 + math.sqrt(5)) / 2), abs=1e-12
    )
    assert mu.coords[1] == pytest.approx(-mu.coords[0], abs=1e-12)
    h = GroupElement([[F(3), 0], [0, F(1, 3)]], SL2Q3)
    # independent oracle: Smith form of 3 * g = diag(9, 1) has factors 1 | 9
    from cartanlab.cartan import invariant_factor_valuations

    assert invariant_factor_valuations([[F(9), 0], [0, F(1)]], 3) == [0, 2]
    assert cartan(h).coords == (1, -1)
    _report(2, "unipotent closed form to 1e-12; padic diag exact")


# -- 3: norm identity -----------------------------------------------------------


def test_criterion_03_norm_identity():
    rng = np.random.default_rng(77)
    for _ in range(1_000):
        g = random_sl_element(rng, 3, SL3R)
        mu = cartan(g)
        for i0 in (1, 2):
            assert abs(wedge_norm_log(g, i0) - weight_pairing(i0, mu)) <= 1e-8
    sl3q3 = special_linear(3, padic(3))
    count = 0
    while count < 100:
        g = _random_sl3_padic(rng)
        mu = cartan(g)
        for i0 in (1, 2):
            assert wedge_norm_log(g, i0) == weight_pairing(i0, mu)
        count += 1
    _report(3, "wedge norm = weight pairing: 1e3 real (1e-8), 1e2 padic exact")


def _random_sl3_padic(rng, p=3):
    m = ex.identity(3)
    for _ in range(5):
        i, j = rng.integers(0, 3, size=2)
        if i == j:
            continue
        e = [[F(1) if r == c else F(0) for c in range(3)] for r in range(3)]
        e[i][j] = F(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
        m = ex.mat_mul(m, ex.mat_from_rows(e))
    k1, k2 = int(rng.integers(-2, 3)), int(rng.integers(-2, 3))
    d = ex.mat_from_rows([
        [F(p) ** k1, 0, 0], [0, F(p) ** k2, 0], [0, 0, F(p) ** (-k1 - k2)]
    ])
    return GroupElement(ex.mat_mul(m, d), special_linear(3, padic(p)),
                        check=False)


# -- 4: the contraction sandwich ------------------------------------------------


def _real_instance(rng, dim, n, eps):
    lam = float(rng.uniform(5.0, 50.0))
    zs = []
    for _ in range(n):
        z = np.zeros((dim, dim))
        z[0, 0] = lam * float(rng.uniform(1.0, 1.5))
        block = rng.standard_normal((dim - 1, dim - 1))
        scale = z[0, 0] * eps * eps * 0.2 / np.abs(block).sum(axis=1).max()
        z[1:, 1:] = block * scale
        zs.append(z)
    ks = []
    for _ in range(n - 1):
        perm = rng.permutation(dim - 1) + 1
        k = np.zeros((dim, dim))
        k[0, 0] = rng.choice([-1.0, 1.0])
        for i, j in enumerate(perm, start=1):
            k[i, j] = rng.choice([-1.0, 1.0])
        ks.append(k)
    return zs, ks


def _padic_instance(rng, dim, n):
    p = 3
    zs = []
    for _ in range(n):
        a = int(rng.integers(6, 9))
        z = [[F(0)] * dim for _ in range(dim)]
        z[0][0] = F(1, p ** a)
        for i in range(1, dim):
            for j in range(1, dim):
                z[i][j] = F(int(rng.integers(-4, 5)))
            if all(z[i][j] == 0 for j in range(1, dim)):
                z[i][i] = F(1)
        zs.append(z)
    ks = []
    for _ in range(n - 1):
        u = ex.identity(dim - 1)
        for _ in range(2):
            i, j = rng.integers(0, dim - 1, size=2)
            if i == j:
                continue
            e = [[F(1) if r == c else F(0) for c in range(dim - 1)]
                 for r in range(dim - 1)]
            e[int(i)][int(j)] = F(int(rng.integers(-3, 4)))
            u = ex.mat_mul(u, ex.mat_from_rows(e))
        k = [[F(0)] * dim for _ in range(dim)]
        k[0][0] = F(1)
        for i in range(dim - 1):
            for j in range(dim - 1):
                k[i + 1][j + 1] = u[i][j]
        ks.append(k)
    return zs, ks


def test_criterion_04_sandwich():
    rng = np.random.default_rng(4242)
    eps = 0.3
    x0 = {}
    X0 = {}
    checked = 0
    for dim in (3, 4, 5, 6):
        x0[dim] = ProjPoint([1.0] + [0.0] * (dim - 1), REAL)
        X0[dim] = ProjHyperplane([1.0] + [0.0] * (dim - 1), REAL)
        for n in (2, 3, 5, 8):
            for _ in range(7):
                zs, ks = _real_instance(rng, dim, n, eps)
                rep = product_sandwich_check(
                    zs, ks, eps, REAL,
                    attracting=x0[dim], repelling=X0[dim],
                )
                assert rep.passed, "real sandwich violation"
                checked += 1
    Q3 = padic(3)
    for dim in (3, 4, 5, 6):
        xp = ProjPoint([F(1)] + [F(0)] * (dim - 1), Q3)
        Xp = ProjHyperplane([F(1)] + [F(0)] * (dim - 1), Q3)
        for n in (2, 3, 5, 8):
            for _ in range(7):
                zs, ks = _padic_instance(rng, dim, n)
                rep = product_sandwich_check(
                    zs, ks, 0.1, Q3, attracting=xp, repelling=Xp,
                )
                assert rep.passed, "padic sandwich violation"
                checked += 1
    assert checked >= 200
    # guard tests: violated hypotheses are rejected, not bounded
    zs, ks = _real_instance(rng, 3, 2, eps)
    kbad = np.zeros((3, 3))
    kbad[1, 0], kbad[0, 1], kbad[2, 2] = 1.0, 1.0, 1.0
    with pytest.raises(PreconditionError):
        product_sandwich_check([zs[0], zs[1]], [kbad], eps, REAL,
                               attracting=x0[3], repelling=X0[3])
    knot = np.diag([2.0, 1.0, 0.5])
    with pytest.raises(PreconditionError):
        product_sandwich_check([zs[0], zs[1]], [knot], eps, REAL,
                               attracting=x0[3], repelling=X0[3])
    zbad = zs[0].copy()
    zbad[0, 1] = zbad[0, 0]  # breaks the homothety/norm equality
    with pytest.raises(PreconditionError):
        product_sandwich_check([zbad], [], eps, REAL,
                               attracting=x0[3], repelling=X0[3])
    _report(4, f"{checked} sandwich instances, zero violations; guards reject")


# -- 5: transverse decomposition --------------------------------------------


def test_criterion_05_decomposition():
    # exact cyclic example
    a = ex.mat_from_rows([[F(4), 0], [0, F(1, 4)]])
    P = Presentation(["a"], [a], special_linear(2, REAL))
    M = RankOneModel.sl2_real()
    R = displacement(evaluate(parse_word("a^2", ["a"]), inclusion(P)), M)
    dec = decompose(parse_word("a^6", ["a"]), P, M, R)
    assert dec.accepted
    assert dec.d_achieved == pytest.approx(0.0, abs=1e-9)
    assert len({w.letters for w in dec.factors}) == 1  # equal factors
    # rank-2 exact Schottky group, full ball of radius 6
    P2 = schottky_sl2_presentation()
    phi = inclusion(P2)
    ball = word_ball(P2, phi, 6)
    orbit = orbit_data(P2, phi, M, 6)
    R2 = 2 * math.log(4)
    worst_d = 0.0
    for e in ball.entries:
        if len(e.word) == 0:
            continue
        d2 = decompose(e.word, P2, M, R2, phi=phi, orbit=orbit)
        assert d2.accepted
        for gap in d2.gap_defects:
            assert gap >= -d2.d_achieved - 1e-9
        assert d2.d_achieved <= d2.predicted_ceiling + 1e-9
        worst_d = max(worst_d, d2.d_achieved)
    _report(5, f"cyclic exact (D=0); ball-6 Schottky decomposed, "
               f"max D_achieved {worst_d:.3f} below ceiling")


# -- 6: deformation stability -------------------------------------------------


def test_criterion_06_stability_trend():
    start = time.monotonic()
    P = schottky_so22_presentation()
    phi_ref = inclusion(P)
    fam = BendingFamily(
        P, boost_Y_so22(),
        subalgebra=so_subalgebra_basis(standard_so_form(2, 2), 3),
    )
    # one ball and one reference pass for every t
    reports = stability_scans(
        P, phi_ref, [bend(fam, t) for t in (0.0, 0.01, 0.1, 0.3)], 5)
    eps_hats = [rep.eps_hat for rep in reports]
    assert reports[0].eps_hat == 0.0 and reports[0].c_hat == 0.0
    assert all(a < b for a, b in zip(eps_hats, eps_hats[1:])), eps_hats
    # conjugation deformations: the envelope with the uniform-constant
    # fit (rho0 = inf) realizes the Lipschitz bound dev <= 2||mu(g)||
    rng = np.random.default_rng(66)
    conjugators = [_random_so22(rng) for _ in range(20)]
    reports = stability_scans(
        P, phi_ref, [conjugate_homomorphism(phi_ref, g) for g in conjugators],
        5, rho0=math.inf)
    for g, rep in zip(conjugators, reports):
        bound = 2 * mu_norm(cartan(g))
        assert rep.eps_hat <= 1e-9
        assert rep.c_hat <= bound + 1e-9
        for r in rep.rows:
            assert r.deviation <= bound + 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(6, f"eps_hat strictly increasing {['%.4f' % e for e in eps_hats]}; "
               f"20 conjugations within 2||mu(g)||; {elapsed:.0f}s")


def _random_so22(rng):
    def planar(i, j, boost, t):
        m = np.eye(4)
        if boost:
            m[i, i] = m[j, j] = math.cosh(t)
            m[i, j] = m[j, i] = math.sinh(t)
        else:
            m[i, i] = m[j, j] = math.cos(t)
            m[i, j] = -math.sin(t)
            m[j, i] = math.sin(t)
        return m
    m = (
        planar(0, 2, True, float(rng.uniform(-0.8, 0.8)))
        @ planar(0, 1, False, float(rng.uniform(0, 2 * math.pi)))
        @ planar(1, 3, True, float(rng.uniform(-0.8, 0.8)))
        @ planar(2, 3, False, float(rng.uniform(0, 2 * math.pi)))
    )
    from cartanlab import indefinite_orthogonal

    return GroupElement(m, indefinite_orthogonal(2, 2, REAL))


# -- 7: properness margins ----------------------------------------------------


def test_criterion_07_properness():
    P = schottky_so22_presentation()
    ball = word_ball(P, inclusion(P), 5)
    samples = [cartan(e.element) for e in ball.entries]
    group = P.group
    cone_u = mu_cone([u11_boost(1.0), u11_boost(2.0)], group)
    rep = properness_margin(samples, cone_u, radius=5)
    assert rep.slope > 0.1
    cone_l = mu_cone([so21_boost(1.0), so21_boost(2.0)], group)
    control = properness_margin(samples, cone_l, radius=5)
    assert abs(control.slope) <= 1e-9
    _report(7, f"U(1,1)-cone slope {rep.slope:.3f} > 0; containment control "
               f"slope {control.slope:.1e}")


# -- 8: bending witnesses -----------------------------------------------------


def test_criterion_08_bending_witnesses():
    for m in (2, 3, 4):
        assert module_decomposition_check(m).ok
    for m in (2, 3):
        d = m + 2
        Y = [[F(0)] * d for _ in range(d)]
        Y[0][d - 1] = F(1)
        Y[d - 1][0] = F(1)
        assert not zariski_density_witness(Y, 0.0, m)
        sub = so_subalgebra_basis(standard_so_form(m, 2), d - 1)
        assert not zariski_density_witness(sub.matrices[0], 0.5, m)
        for t in (1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3, 1.0):
            assert zariski_density_witness(Y, t, m)
    P = schottky_so22_presentation()
    fam = BendingFamily(
        P, boost_Y_so22(),
        subalgebra=so_subalgebra_basis(standard_so_form(2, 2), 3),
    )
    for t in (0.0, 1e-3, 0.01, 0.1, 0.3, 1.0):
        bend(fam, t)  # raises if relators fail
    _report(8, "module decomposition m=2,3,4; witnesses and relators as stated")


# -- 9: Euclidean cone lemma ---------------------------------------------------


def test_criterion_09_cone_lemma():
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
            r = cone_gap(x, x + np.array([0.0, b, 0.0]), e1, delta, cpp)
            assert r.in_class
            sup = max(sup, r.bound)
        sups.append(sup)
    assert sups[0] > sups[1] > sups[2]
    _report(9, f"cone-lemma sup strictly decreasing: "
               f"{['%.3f' % s for s in sups]}")


# -- 10: CLI determinism -------------------------------------------------------


def test_criterion_10_cli_determinism(tmp_path):
    P = schottky_so22_presentation()
    doc = {
        "field": {"kind": "real"},
        "group": {"family": "SO", "p": 2, "q": 2},
        "generators": {
            "a": matrix_to_json(P.generators[0].matrix),
            "b": matrix_to_json(P.generators[1].matrix),
        },
        "structure": {"type": "amalgam", "side1": ["a"], "side2": ["b"],
                      "gamma0": []},
        "bending": {"Y": matrix_to_json(boost_Y_so22()), "t": [0.0, 0.1]},
    }
    src = tmp_path / "pres.json"
    src.write_text(json.dumps(doc))
    blobs = []
    for tag in ("x", "y"):
        out = tmp_path / f"{tag}.csv"
        rc = cli_main([
            "stability", "--input", str(src), "--output", str(out),
            "--radius", "4", "--t", "0.0,0.1", "--seed", "0",
        ])
        assert rc == 0
        blobs.append(out.read_bytes())
        rc = cli_main([
            "cartan", "--input", _matrix_file(tmp_path), "--output",
            str(tmp_path / f"{tag}2.csv"),
        ])
        assert rc == 0
        blobs.append((tmp_path / f"{tag}2.csv").read_bytes())
    assert blobs[0] == blobs[2] and blobs[1] == blobs[3]
    _report(10, "two CLI runs byte-identical (stability + cartan)")


def _matrix_file(tmp_path):
    doc = {
        "field": {"kind": "real"},
        "group": {"family": "SL", "n": 2},
        "matrices": [[["1", "1"], ["0", "1"]]],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    return str(path)
