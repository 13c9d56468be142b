import functools
import math
from fractions import Fraction as F

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from sympy.polys.matrices import DomainMatrix
from hypothesis import strategies as st

import cartanlab.exact as ex
from cartanlab import bending
from cartanlab import (
    REAL,
    BendingFamily,
    GroupElement,
    HnnStructure,
    NumericalError,
    PreconditionError,
    Presentation,
    QuadElement,
    QuadFormSpace,
    bend,
    centralizer_in_algebra,
    check_relators,
    indefinite_orthogonal,
    inclusion,
    module_decomposition_check,
    parse_word,
    pick_Y,
    so_form_algebra,
    so_subalgebra_basis,
    u_embed,
    zariski_density_witness,
)
from cartanlab.bending import (
    LieBasis,
    _closure,
    _FloatSpan,
    _span_bracket,
    _span_vectors,
    bracket,
    bracket_closure_exact,
    matrix_exp,
    standard_so_form,
)

from util import boost_Y_so22, schottky_so22_presentation, schottky_sl2_matrices

SO22 = indefinite_orthogonal(2, 2, REAL)


def test_so_algebra_dimensions():
    assert len(so_form_algebra(standard_so_form(2, 2))) == 6
    assert len(so_form_algebra(standard_so_form(2, 1))) == 3
    for m in (2, 3, 4):
        d = m + 2
        assert len(so_form_algebra(standard_so_form(m, 2))) == d * (d - 1) // 2


def test_so_algebra_quadratic_coefficients_exact():
    s2 = QuadElement(0, 1, 2)
    space = QuadFormSpace((F(1), F(1), -s2, F(-1)))
    basis = so_form_algebra(space)
    J = space.form_matrix()
    for X in basis:
        resid = ex.mat_add(ex.mat_mul(ex.transpose(X), J), ex.mat_mul(J, X))
        assert all(x == 0 for row in resid for x in row)
    assert space.signature == (2, 2)


def test_centralizer_of_identity_is_ambient():
    space = standard_so_form(2, 2)
    amb = so_form_algebra(space)
    ident = GroupElement([[F(1) if i == j else F(0) for j in range(4)]
                          for i in range(4)], SO22)
    cent = centralizer_in_algebra([ident], amb)
    assert len(cent) == len(amb)


def test_centralizer_of_so11_block_contains_boost():
    space = standard_so_form(2, 2)
    amb = so_form_algebra(space)
    # SO(1,1) block on coordinates (2,3) (0-indexed 1..2), fixing 1st and 4th
    g = GroupElement(
        [[F(1), 0, 0, 0],
         [0, F(5, 4), F(3, 4), 0],
         [0, F(3, 4), F(5, 4), 0],
         [0, 0, 0, F(1)]], SO22)
    cent = centralizer_in_algebra([g], amb)
    Y = boost_Y_so22()
    from cartanlab.exact import in_span

    flat = [tuple(x for row in M for x in row) for M in cent.matrices]
    assert in_span(flat, tuple(x for row in Y for x in row))


def test_centralizer_of_irreducible_set_is_trivial():
    space = standard_so_form(2, 2)
    amb = so_form_algebra(space)
    g1 = GroupElement(
        [[F(1), 0, 0, 0],
         [0, F(5, 4), F(3, 4), 0],
         [0, F(3, 4), F(5, 4), 0],
         [0, 0, 0, F(1)]], SO22)
    g2 = GroupElement(
        [[F(5, 4), 0, F(3, 4), 0],
         [0, F(1), 0, 0],
         [F(3, 4), 0, F(5, 4), 0],
         [0, 0, 0, F(1)]], SO22)
    g3 = GroupElement(
        [[F(1), 0, 0, 0],
         [0, F(1), 0, 0],
         [0, 0, F(3, 5), F(-4, 5)],
         [0, 0, F(4, 5), F(3, 5)]], SO22)  # rotation in the (3,4) plane
    cent = centralizer_in_algebra([g1, g2, g3], amb)
    assert len(cent) == 0


def test_pick_y_selection_and_guard():
    space = standard_so_form(2, 2)
    sub = so_subalgebra_basis(space, 3)
    amb = so_form_algebra(space)
    Y = pick_Y(amb, sub)
    assert not sub.contains(Y)
    with pytest.raises(PreconditionError):
        pick_Y(sub, sub)  # centralizer inside the subalgebra


def test_matrix_exp_closed_form_matches_series():
    Y = boost_Y_so22()
    t = 0.37
    closed = matrix_exp(Y, t)
    from scipy.linalg import expm

    series = expm(t * np.array([[float(x) for x in row] for row in Y]))
    assert np.abs(closed - series).max() < 1e-12
    c, s = math.cosh(t), math.sinh(t)
    assert closed[0, 0] == pytest.approx(c) and closed[0, 3] == pytest.approx(s)


def test_bend_amalgam():
    P = schottky_so22_presentation()
    fam = BendingFamily(
        P, boost_Y_so22(),
        subalgebra=so_subalgebra_basis(standard_so_form(2, 2), 3),
    )
    phi0 = bend(fam, 0.0)
    for i in range(2):
        assert phi0.images[i] == P.generators[i]
    phi = bend(fam, 0.25)
    assert phi.images[0] == P.generators[0]  # side 1 untouched
    moved = np.abs(
        np.asarray(phi.images[1].matrix)
        - np.array([[float(x) for x in row] for row in P.generators[1].matrix])
    ).max()
    assert moved > 1e-3
    assert check_relators(P, phi).ok


def test_bend_rejects_noncentralizing_y():
    a, b = schottky_sl2_matrices()
    from util import so21_in_so22, sym2_rational
    from cartanlab import AmalgamStructure

    A = so21_in_so22(sym2_rational(a))
    B = so21_in_so22(sym2_rational(b))
    P = Presentation(
        ["a", "b"], [A, B], SO22,
        structure=AmalgamStructure(
            side1=(0,), side2=(1,),
            gamma0_pairs=((parse_word("a", ["a", "b"]),
                           parse_word("a", ["a", "b"])),),
        ),
    )
    with pytest.raises(PreconditionError):
        BendingFamily(P, boost_Y_so22())  # boost does not centralize A


def test_bend_hnn():
    a, b = schottky_sl2_matrices()
    from util import so21_in_so22, sym2_rational

    A = so21_in_so22(sym2_rational(a))
    B = so21_in_so22(sym2_rational(b))
    # HNN with trivial edge subgroup: base <a>, stable letter b
    P = Presentation(
        ["a", "t"], [A, B], SO22,
        structure=HnnStructure(base=(0,), stable=1, pairings=()),
    )
    fam = BendingFamily(P, boost_Y_so22())
    phi = bend(fam, 0.4)
    assert phi.images[0] == P.generators[0]
    # stable letter acquires the twist factor on the right
    expected = np.array(
        [[float(x) for x in row] for row in B]
    ) @ matrix_exp(boost_Y_so22(), 0.4)
    assert np.abs(np.asarray(phi.images[1].matrix) - expected).max() < 1e-12


def test_bend_hnn_with_pairing():
    # base contains an SO(1,1) block h (coords 2,3); stable letter nu = h
    # pairs h with itself; the boost Y centralizes it
    h3 = [[F(1), 0, 0, 0],
          [0, F(5, 4), F(3, 4), 0],
          [0, F(3, 4), F(5, 4), 0],
          [0, 0, 0, F(1)]]
    P = Presentation(
        ["h", "t"], [h3, h3], SO22,
        structure=HnnStructure(
            base=(0,), stable=1,
            pairings=((parse_word("h", ["h", "t"]),
                       parse_word("h", ["h", "t"])),),
        ),
    )
    fam = BendingFamily(P, boost_Y_so22())
    for t in (0.0, 0.1, 0.5):
        phi = bend(fam, t)
        assert check_relators(P, phi, tol=1e-10).ok


def test_matrix_exp_refuses_non_finite_t_and_overflow():
    Y = boost_Y_so22()
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(PreconditionError, match="not finite"):
            matrix_exp(Y, t)
        with pytest.raises(PreconditionError, match="not finite"):
            zariski_density_witness(Y, t, 2)
    for t in (1e308, -800.0):  # the closed form overflows in sinh/cosh
        with pytest.raises(NumericalError, match="overflows"):
            matrix_exp(Y, t)
    # Y^3 != Y takes scipy's expm, which returns inf instead of raising
    with pytest.raises(NumericalError, match="overflows"):
        matrix_exp([[F(2), F(0)], [F(0), F(-2)]], 400.0)
    # at t = 300 so(2,1), its Ad(exp(t*Y)) image and their first bracket
    # fill so(2,2) with finite norms, and the closure stops there (a
    # bracket formed past that point would overflow); at t = 400 exp(t*Y)
    # is finite, but the Gram-Schmidt norms of Ad(exp(t*Y)) are not
    assert zariski_density_witness(Y, 300.0, 2) is True
    with pytest.raises(NumericalError, match="overflows"):
        zariski_density_witness(Y, 400.0, 2)
    assert np.isfinite(matrix_exp(Y, 30.0)).all()
    # a Y whose float form overflows: t is checked first, as before
    huge = ((F(0), F(10**400)), (F(0), F(0)))
    with pytest.raises(PreconditionError, match="not finite"):
        matrix_exp(huge, math.nan)
    with pytest.raises(NumericalError, match="overflows at t = 0.0"):
        matrix_exp(huge, 0.0)
    # a family's exponential refuses as matrix_exp does, exp(t*Y) before
    # exp(-t*Y), in bend and in the witness; 2Y takes scipy's expm
    P = schottky_so22_presentation()
    for Yb, ts in ((Y, (math.nan, math.inf, -math.inf, 1e308, -800.0)),
                   (tuple(tuple(2 * x for x in row) for row in Y),
                    (math.nan, math.inf, 400.0, -400.0))):
        family = BendingFamily(P, Yb)
        for t in ts:
            want = _refusal(lambda: (matrix_exp(Yb, t), matrix_exp(Yb, -t)))
            assert _refusal(lambda: bend(family, t)) == want
            assert _refusal(lambda: zariski_density_witness(family.exp, t, 2)) == want


def _refusal(f):
    with pytest.raises((PreconditionError, NumericalError)) as e:
        f()
    return type(e.value), str(e.value)


def test_module_decomposition():
    for m in (2, 3, 4, 5):
        space = standard_so_form(m, 2)
        # an int m stands for the standard so(m,1) fixing the last coordinate
        for sub in (m, so_subalgebra_basis(space, space.dim - 1)):
            v = module_decomposition_check(sub)
            assert v.ok
            assert v.dim_complement == m + 1
            assert v.dim_sub == (m + 1) * m // 2
            assert v.dim_ambient == (m + 2) * (m + 1) // 2
    # non-standard diagonal forms, one over Q(sqrt 2), fixing coordinate 0:
    # for d >= 4 the complement is the irreducible standard module of the
    # subalgebra
    for coeffs in ((F(1), F(2), F(-1), F(-3)),
                   (F(1), F(1), -QuadElement(0, 1, 2), F(-1))):
        v = module_decomposition_check(so_subalgebra_basis(QuadFormSpace(coeffs), 0))
        assert (v.dim_sub, v.dim_complement, v.dim_ambient) == (3, 3, 6)
        assert v.ok
    with pytest.raises(PreconditionError, match="m must be >= 2"):
        module_decomposition_check(1)


def test_module_decomposition_refuses_a_non_maximal_subalgebra():
    # the rotation of coordinates (0, 1) alone: the boost of coordinates
    # (2, 3) commutes with it, so adjoining that complement vector
    # generates only a plane
    space = standard_so_form(2, 2)
    rotation = so_form_algebra(space).matrices[0]
    v = module_decomposition_check(LieBasis([rotation], space))
    assert (v.dim_sub, v.dim_complement, v.dim_ambient) == (1, 5, 6)
    assert not v.closures_ok and not v.ok


def test_zariski_witness():
    for m in (2, 3):
        space = standard_so_form(m, 2)
        d = space.dim
        Y = [[F(0)] * d for _ in range(d)]
        Y[0][d - 1] = F(1)
        Y[d - 1][0] = F(1)
        assert not zariski_density_witness(Y, 0.0, m)
        for t in (1e-3, 0.01, 0.1, 1.0):
            assert zariski_density_witness(Y, t, m)
        sub = so_subalgebra_basis(space, d - 1)
        Yin = sub.matrices[0]
        assert not zariski_density_witness(Yin, 0.5, m)


def test_int_m_reads_one_standard_subalgebra(monkeypatch):
    # an int m used to rebuild and re-validate so(m,1) on every call, so
    # its float matrices were converted on every witness too
    built = []
    basis = bending.so_subalgebra_basis
    monkeypatch.setattr(bending, "so_subalgebra_basis",
                        lambda *args: built.append(args) or basis(*args))
    bending._standard_so_m1.cache_clear()
    Y = boost_Y_so22()
    verdicts = [zariski_density_witness(Y, 0.3, 2), zariski_density_witness(Y, 0.3, 2),
                module_decomposition_check(2).ok]
    assert verdicts == [True, True, True]
    assert len(built) == 1
    assert bending._standard_subalgebra(2) is bending._standard_subalgebra(2)


def test_u_embed_exact_form_preservation():
    emb = u_embed(1)
    # identity and diag(i, 1)
    ident = emb.realify([[(1, 0), (0, 0)], [(0, 0), (1, 0)]])
    assert ident == tuple(
        tuple(F(1) if i == j else F(0) for j in range(4)) for i in range(4)
    )
    rot = emb.realify([[(0, 1), (0, 0)], [(0, 0), (1, 0)]])
    g = GroupElement(rot, SO22)  # validates det 1 and exact form preservation
    assert g.is_exact
    # homomorphism property on exact samples
    u1 = [[(F(5, 4), 0), (F(3, 4), 0)], [(F(3, 4), 0), (F(5, 4), 0)]]
    u2 = [[(0, 1), (0, 0)], [(0, 0), (1, 0)]]
    lhs = ex.mat_mul(emb.realify(u1), emb.realify(u2))
    prod = [[_cmul(u1[i][0], u2[0][j], u1[i][1], u2[1][j]) for j in range(2)]
            for i in range(2)]
    rhs = emb.realify(prod)
    assert all(all(a == b for a, b in zip(ra, rb)) for ra, rb in zip(lhs, rhs))


def _cmul(x, y, x2, y2):
    # complex product sum x*y + x2*y2 on (re, im) pairs
    def mul(a, b):
        return (
            F(a[0]) * F(b[0]) - F(a[1]) * F(b[1]),
            F(a[0]) * F(b[1]) + F(a[1]) * F(b[0]),
        )

    p1, p2 = mul(x, y), mul(x2, y2)
    return (p1[0] + p2[0], p1[1] + p2[1])


def test_u_embed_base_point_stabilizer():
    emb = u_embed(2)
    # block-diagonal U(2) x 1 elements fix the designated base vector
    u2_block = [
        [(0, 1), (0, 0), (0, 0)],
        [(0, 0), (1, 0), (0, 0)],
        [(0, 0), (0, 0), (1, 0)],
    ]
    assert emb.base_point_fixed(u2_block)
    boost = [
        [(F(5, 4), 0), (0, 0), (F(3, 4), 0)],
        [(0, 0), (1, 0), (0, 0)],
        [(F(3, 4), 0), (0, 0), (F(5, 4), 0)],
    ]
    assert not emb.base_point_fixed(boost)


def test_lie_basis_rejects_non_closed_span():
    space = standard_so_form(2, 2)
    amb = so_form_algebra(space)
    # two boosts whose bracket is a rotation outside their span
    b1 = amb.matrices[1]  # mixes coordinates (0, 2)
    b2 = amb.matrices[2]  # mixes coordinates (0, 3)
    br = bracket(b1, b2)
    assert any(x != 0 for row in br for x in row)
    with pytest.raises(PreconditionError):
        LieBasis([b1, b2], space)


def _naive_closure_basis(mats):
    """Oracle: bracket every pair of the current basis, restarting after
    each full round, until a round adds nothing; independence by the rank
    of a sympy DomainMatrix over QQ, brackets by sympy products."""
    def rank(ms):
        if not ms:
            return 0
        rows = [[sympy.QQ.from_sympy(x) for x in M] for M in ms]
        return DomainMatrix(rows, (len(rows), len(rows[0])), sympy.QQ).rank()

    basis = []
    for M in mats:
        M = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                           for x in row] for row in M])
        if rank(basis + [M]) > len(basis):
            basis.append(M)
    changed = True
    while changed:
        changed = False
        for A in list(basis):
            for B in list(basis):
                br = A * B - B * A
                if rank(basis + [br]) > len(basis):
                    basis.append(br)
                    changed = True
    return basis, rank


_small = st.sampled_from([F(0), F(0), F(0), F(1), F(-1), F(2), F(1, 2),
                          F(-3, 2), F(5, 3)])


@st.composite
def rational_matrices(draw):
    d = draw(st.integers(2, 3))
    k = draw(st.integers(1, 3))
    return [tuple(tuple(draw(_small) for _ in range(d)) for _ in range(d))
            for _ in range(k)]


def _check_closure_against_oracle(mats):
    got = bracket_closure_exact(mats)
    want, rank = _naive_closure_basis(mats)
    assert len(got) == len(want)
    # the same span: adjoining the returned basis adds nothing
    got_sym = [sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                              for x in row] for row in M]) for M in got]
    assert rank(want + got_sym) == len(want)
    return got


@given(mats=rational_matrices())
@settings(max_examples=40, deadline=None)
def test_bracket_closure_matches_restart_loop_oracle(mats):
    _check_closure_against_oracle(mats)


@given(m=st.sampled_from([2, 3]), data=st.data())
@settings(max_examples=40, deadline=None)
def test_closure_from_a_subalgebra_matches_the_full_closure(m, data):
    # _closure never brackets two vectors of the closed subalgebra it
    # starts from; the closure must still be the full one
    space = standard_so_form(m, 2)
    d = space.dim
    ambient = so_form_algebra(space).matrices
    coeffs = data.draw(st.lists(_small, min_size=len(ambient),
                                max_size=len(ambient)))
    W = tuple(tuple(sum(c * B[i][j] for c, B in zip(coeffs, ambient))
                    for j in range(d)) for i in range(d))
    sub = so_subalgebra_basis(space, data.draw(st.integers(0, d - 1)))
    got = _closure(list(sub.vectors), sub.span.copy(), _span_vectors([W]),
                   _span_bracket(d), len(ambient))
    assert len(got) == len(bracket_closure_exact(sub.matrices + (W,)))


# a diagonal form with non-integer rational coefficients
_FORM = QuadFormSpace((F(1, 2), F(3), F(-2, 5)))


@given(coeffs=st.lists(st.lists(_small, min_size=3, max_size=3),
                       min_size=1, max_size=2))
@settings(max_examples=30, deadline=None)
def test_bracket_closure_in_rational_form_algebra(coeffs):
    basis = so_form_algebra(_FORM).matrices
    mats = [ex.mat_from_rows(
        [[sum(c * B[i][j] for c, B in zip(cs, basis)) for j in range(3)]
         for i in range(3)]) for cs in coeffs]
    got = _check_closure_against_oracle(mats)
    if got:
        # the closure lies in so(J) and is a subalgebra: LieBasis checks
        # the form equation, independence and closure
        LieBasis(got, _FORM)


def test_lie_basis_uses_the_form_coefficients():
    basis = so_form_algebra(_FORM)
    assert len(basis) == 3
    # (0,1) entry c_1 = 3 against (1,0) entry -c_0 = -1/2
    assert basis.matrices[0][0][1] == 3 and basis.matrices[0][1][0] == F(-1, 2)
    # in so(2,1) for the standard form, but not in so(J)
    X = ((F(0), F(1), F(0)), (F(-1), F(0), F(0)), (F(0), F(0), F(0)))
    with pytest.raises(PreconditionError, match="form equation"):
        LieBasis([X], _FORM)
    with pytest.raises(PreconditionError, match="dependent"):
        LieBasis([basis.matrices[0], ex.mat_scale(F(-7, 3), basis.matrices[0])],
                 _FORM)


def test_bracket_closure_of_nothing_and_of_zero():
    assert bracket_closure_exact([]) == []
    zero = ((F(0), F(0)), (F(0), F(0)))
    assert bracket_closure_exact([zero]) == []


def _restart_loop_witness(Y, t, m, tol=1e-9):
    """Oracle for the float witness: Gram-Schmidt against the orthonormal
    rows kept so far, False when Ad(exp(t*Y)) adds nothing to so(m,1),
    else a restart loop that brackets every pair of the growing basis
    (the inputs and every bracket that enlarged the span) each round
    until a round adds nothing or the span is all of so(m,2).  Returns
    the final span dimension and the verdict.

    Unlike the loop it models, it keeps no row past dim so(m,2): the rest
    of a round could add one, and such a row is rounding (at m = 3,
    t = 1e-3 the loop held 11 rows in the 10-dimensional so(3,2))."""
    space = standard_so_form(m, 2)
    sub = so_subalgebra_basis(space, space.dim - 1)
    C, Cinv = matrix_exp(Y, t), matrix_exp(Y, -t)
    h = [np.array([[float(x) for x in row] for row in H]) for H in sub]
    target = (m + 2) * (m + 1) // 2
    Q = []

    def add(M):
        v = M.reshape(-1)
        norm = np.linalg.norm(v)
        if norm == 0 or len(Q) == target:
            return False
        r = v
        for _ in range(2 if Q else 0):
            r = r - np.array(Q).T @ (np.array(Q) @ r)
        if np.linalg.norm(r) <= tol * norm:
            return False
        Q.append(r / np.linalg.norm(r))
        return True

    for H in h:
        add(H)
    base_rank = len(Q)
    moved = [C @ H @ Cinv for H in h]
    for M in moved:
        add(M)
    if len(Q) == base_rank:
        return len(Q), False
    basis = h + moved
    changed = True
    while changed and len(Q) < target:
        changed = False
        new = []
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                br = basis[i] @ basis[j] - basis[j] @ basis[i]
                if add(br):
                    new.append(br)
                    changed = True
        basis.extend(new)
    return len(Q), len(Q) >= target


@given(m=st.sampled_from([2, 3]), t=st.sampled_from([1e-3, 0.1, 1.0]),
       data=st.data())
@settings(max_examples=30, deadline=None)
def test_density_witness_matches_restart_loop_oracle(m, t, data):
    space = standard_so_form(m, 2)
    ambient = so_form_algebra(space).matrices
    coeffs = data.draw(st.lists(_small, min_size=len(ambient),
                                max_size=len(ambient)))
    d = space.dim
    Y = tuple(tuple(sum(c * B[i][j] for c, B in zip(coeffs, ambient))
                    for j in range(d)) for i in range(d))
    want_dim, want = _restart_loop_witness(Y, t, m)
    sub = so_subalgebra_basis(space, d - 1)
    C, Cinv = matrix_exp(Y, t), matrix_exp(Y, -t)
    h = [np.array([[float(x) for x in row] for row in H]) for H in sub]
    span = _FloatSpan(1e-9, len(ambient))
    got = _closure([H for H in h if span.add(H)], span, [C @ H @ Cinv for H in h],
                   lambda A, B: A @ B - B @ A, len(ambient))
    assert len(got) == want_dim
    assert zariski_density_witness(Y, t, m) == want
    assert zariski_density_witness(Y, t, sub) == want


def _unstopped_closure(closed, vectors, span, bracket):
    """The closure worklist as it was before it stopped at a full span:
    every basis vector past ``closed`` is bracketed with each one before
    it, however full the span already is."""
    basis = [v for v in closed if span.add(v)]
    k = max(len(basis), 1)
    basis += [v for v in vectors if span.add(v)]
    while k < len(basis):
        for j in range(k):
            br = bracket(basis[j], basis[k])
            if span.add(br):
                basis.append(br)
        k += 1
    return basis


def _counting(bracket, calls):
    def counted(A, B):
        calls.append(1)
        return bracket(A, B)
    return counted


def _float_bracket(A, B):
    return A @ B - B @ A


@given(m=st.sampled_from([2, 3]), exact=st.booleans(),
       t=st.sampled_from([1e-3, 0.1, 1.0]), data=st.data())
@settings(max_examples=40, deadline=None)
def test_stopped_closure_returns_the_unstopped_basis(m, exact, t, data):
    # exact: so(m,1) fixing a drawn coordinate, with one vector of so(m,2);
    # float: the density witness's so(m,1) and its image under Ad(exp(t*Y))
    space = standard_so_form(m, 2)
    d = space.dim
    ambient = so_form_algebra(space).matrices
    coeffs = data.draw(st.lists(_small, min_size=len(ambient),
                                max_size=len(ambient)))
    W = tuple(tuple(sum(c * B[i][j] for c, B in zip(coeffs, ambient))
                    for j in range(d)) for i in range(d))
    if exact:
        sub = so_subalgebra_basis(space, data.draw(st.integers(0, d - 1)))
        inputs = (_span_vectors(sub.matrices), _span_vectors([W]))
        spans, bracket = ex.EchelonSpan, _span_bracket(d)
    else:
        sub = so_subalgebra_basis(space, d - 1)
        C, Cinv = matrix_exp(W, t), matrix_exp(W, -t)
        inputs = (sub.float_matrices, [C @ H @ Cinv for H in sub.float_matrices])
        spans, bracket = (lambda: _FloatSpan(1e-9, len(ambient))), _float_bracket
    stopped, unstopped = [], []
    closed, vectors = inputs
    span = spans()
    got = _closure([v for v in closed if span.add(v)], span, vectors,
                   _counting(bracket, stopped), len(ambient))
    want = _unstopped_closure(closed, vectors, spans(), _counting(bracket, unstopped))
    if exact:
        assert got == want
    else:
        assert len(got) == len(want) and all(map(np.array_equal, got, want))
    assert len(stopped) <= len(unstopped)


def test_density_witness_forms_no_bracket_once_the_span_is_full(monkeypatch):
    # on SO(2,2) at t = 0.3, so(2,1) and its image under the boost span all
    # of so(2,2) but the boost's own direction, and the first bracket adds
    # it: the unstopped loop formed 11 more brackets that added nothing

    Y, t = boost_Y_so22(), 0.3
    sub = so_subalgebra_basis(standard_so_form(2, 2), 3)
    C, Cinv = matrix_exp(Y, t), matrix_exp(Y, -t)
    unstopped = []
    _unstopped_closure(sub.float_matrices,
                       [C @ H @ Cinv for H in sub.float_matrices],
                       _FloatSpan(1e-9, 6), _counting(_float_bracket, unstopped))
    assert len(unstopped) == 12
    calls, closure = [], bending._closure
    monkeypatch.setattr(
        bending, "_closure",
        lambda basis, span, vectors, bracket, dim: closure(
            basis, span, vectors, _counting(bracket, calls), dim))
    assert zariski_density_witness(Y, t, sub) is True
    assert len(calls) == 1


_SPACES = (standard_so_form(2, 2), standard_so_form(3, 2),
           QuadFormSpace((F(1), F(1), -QuadElement(0, 1, 2), F(-1))))


@given(k=st.integers(0, len(_SPACES) - 1), data=st.data())
@settings(max_examples=40, deadline=None)
def test_contains_reads_the_kept_span_as_a_fresh_one(k, data):
    space = _SPACES[k]
    d = space.dim
    sub = so_subalgebra_basis(space, data.draw(st.integers(0, d - 1)))
    ambient = so_form_algebra(space).matrices
    mats = sub.matrices + tuple(data.draw(st.lists(st.sampled_from(ambient),
                                                   max_size=1)))
    coeffs = data.draw(st.lists(_small, min_size=len(mats), max_size=len(mats)))
    X = [[sum(c * M[i][j] for c, M in zip(coeffs, mats)) for j in range(d)]
         for i in range(d)]
    if data.draw(st.booleans()):
        X[0][0] += data.draw(_small)  # leaves so(J) when nonzero
    rows = list(sub.span.rows)
    want = ex.in_span(sub.flat_vectors(), tuple(x for row in X for x in row))
    assert sub.contains(X) == want
    assert sub.span.rows == rows


def _frobenius(A, B):
    return sum(x * y for ra, rb in zip(A, B) for x, y in zip(ra, rb))


def _fresh_module_check(sub):
    """module_decomposition_check with every span built anew from the
    matrices: the complement, its module test with Fraction brackets, and
    one closure per complement vector that adds the subalgebra to a fresh
    span and brackets every pair of the growing basis once."""
    d = sub.space.dim
    dim = d * (d - 1) // 2
    complement = [W for W in so_form_algebra(sub.space).matrices
                  if not any(_frobenius(W, H) for H in sub.matrices)]
    module_ok = not any(_frobenius(bracket(H, W), H2) for W in complement
                        for H in sub.matrices for H2 in sub.matrices)

    def closure_dim(W):
        span = ex.EchelonSpan()
        basis = [M for M in sub.matrices + (W,)
                 if span.add(tuple(x for row in M for x in row))]
        i = 1
        while i < len(basis) < dim:
            for j in range(i):
                B = bracket(basis[j], basis[i])
                if span.add(tuple(x for row in B for x in row)):
                    basis.append(B)
            i += 1
        return len(basis)

    closures_ok = all(closure_dim(W) == dim for W in complement)
    return len(sub), len(complement), dim, module_ok, closures_ok


def _seed_state(sub):
    seed, span = sub._float_seed
    return (sub.vectors, list(sub.span.rows), list(sub.span.pivots),
            [H.tobytes() for H in seed], [r.tobytes() for r in span.rows])


def test_module_check_on_the_kept_span_equals_fresh_spans():
    subs = [so_subalgebra_basis(standard_so_form(m, 2), m + 1) for m in (2, 3, 4, 5)]
    for coeffs in ((F(1), F(2), F(-1), F(-3)),
                   (F(1), F(1), -QuadElement(0, 1, 2), F(-1))):
        subs += [so_subalgebra_basis(QuadFormSpace(coeffs), c) for c in (0, 2)]
    space = standard_so_form(2, 2)
    subs.append(LieBasis([so_form_algebra(space).matrices[0]], space))
    for sub in subs:
        before = _seed_state(sub)
        v = module_decomposition_check(sub)
        got = (v.dim_sub, v.dim_complement, v.dim_ambient, v.module_ok,
               v.closures_ok)
        assert got == _fresh_module_check(sub)
        assert _seed_state(sub) == before
    assert [module_decomposition_check(sub).ok for sub in subs] == [True] * 8 + [False]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_witness_on_the_kept_seed_equals_a_fresh_span(m):
    space = standard_so_form(m, 2)
    d = space.dim
    sub = so_subalgebra_basis(space, d - 1)
    # the seed is what a fresh _FloatSpan of float_matrices accepts
    fresh = _FloatSpan(bending._WITNESS_TOL, d * (d - 1) // 2)
    accepted = [H for H in sub.float_matrices if fresh.add(H)]
    seed, span = sub._float_seed
    assert [H.tobytes() for H in seed] == [H.tobytes() for H in accepted]
    assert [r.tobytes() for r in span.rows] == [r.tobytes() for r in fresh.rows]
    boost = tuple(tuple(F(int({i, j} == {0, d - 1})) for j in range(d))
                  for i in range(d))
    mixed = ex.mat_add(boost, so_form_algebra(space).matrices[0])
    for Y in (boost, mixed):
        for t in (0.0, 1e-3, 0.01, 0.3, 1.0):
            before = _seed_state(sub)
            got = [zariski_density_witness(Y, t, sub) for _ in range(2)]
            assert got == [_restart_loop_witness(Y, t, m)[1]] * 2
            assert got[0] == (t != 0)
            assert _seed_state(sub) == before


def _fraction_route_exp(Y, t):
    """exp(t*Y) by the closed form with Y^3 = Y decided on Fraction
    matrices and Y taken to floats entry by entry."""
    Ym = ex.mat_from_rows(Y)
    assert ex.mat_eq(ex.mat_mul(ex.mat_mul(Ym, Ym), Ym), Ym)
    Yf = np.array([[float(x) for x in row] for row in Ym])
    Y2 = Yf @ Yf
    return np.eye(Yf.shape[0]) + math.sinh(t) * Yf + (math.cosh(t) - 1.0) * Y2


@functools.cache
def _exponentials():
    """(Y, one exponential of Y kept for every example): the shipped
    SO(2,2) boost as its family's ``exp``, the (0, last) boost of
    SO(m,2) for m = 3 and 4, a boost over Q(sqrt 2) and a Y with
    Y^3 != Y."""
    fam = BendingFamily(schottky_so22_presentation(), boost_Y_so22(),
                        subalgebra=so_subalgebra_basis(standard_so_form(2, 2), 3))
    Ys = []
    for m in (3, 4):
        d = m + 2
        Ys.append(tuple(tuple(F(int({i, j} == {0, d - 1})) for j in range(d))
                        for i in range(d)))
    u, zero = QuadElement(1, 1, 2), QuadElement(0, 0, 2)
    Ys.append(((zero, zero, u), (zero, zero, zero), (1 / u, zero, zero)))
    Ys.append(((F(2), F(0)), (F(0), F(-2))))
    return [(fam.Y, fam.exp)] + [(Y, bending._Exp(Y)) for Y in Ys]


@settings(max_examples=40, deadline=None)
@given(case=st.integers(0, 4), t=st.floats(-30, 30))
def test_one_exponential_per_family_has_the_bits_of_matrix_exp(case, t):
    Y, exp = _exponentials()[case]
    for s in (t, 0.0, -0.0, 1e-3, 0.3, 1.0, 30.0):
        for u in (s, -s):
            assert exp(u).tobytes() == matrix_exp(Y, u).tobytes()


def test_matrix_exp_integer_route_has_the_fraction_route_bits(monkeypatch):
    import scipy.linalg

    expm_calls = []
    expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm",
                        lambda A: expm_calls.append(1) or expm(A))
    boosts = [boost_Y_so22()]
    for m in (3, 4, 5):  # the (0, last) boost of so(m,2)
        d = m + 2
        boosts.append(tuple(tuple(F(int({i, j} == {0, d - 1})) for j in range(d))
                            for i in range(d)))
    boosts.append(((F(0), F(2, 3)), (F(3, 2), F(0))))  # Y = N / 6
    a = F(2**60 + 5, 3)  # N and d far past 2^53: N_ij / d must round once
    boosts.append(((F(0), a), (1 / a, F(0))))
    for Y in boosts:
        for t in (-1.0, 1e-3, 0.3, 1.0):
            assert matrix_exp(Y, t).tobytes() == _fraction_route_exp(Y, t).tobytes()
    assert expm_calls == []
    # Y^3 != Y still takes scipy's expm
    got = matrix_exp([[F(2), F(0)], [F(0), F(-2)]], 0.5)
    assert expm_calls == [1]
    assert got == pytest.approx(np.diag([math.e, 1 / math.e]), rel=1e-14)
    # over Q(sqrt 2): the (0, 2) boost of x0^2 + x1^2 - u^2 x2^2, u = 1 + sqrt 2
    u = QuadElement(1, 1, 2)
    zero = QuadElement(0, 0, 2)
    Y = ((zero, zero, u), (zero, zero, zero), (1 / u, zero, zero))
    for t in (-1.0, 0.3):
        got = matrix_exp(Y, t)
        uf = float(u)
        want = np.array([[math.cosh(t), 0, uf * math.sinh(t)], [0, 1, 0],
                         [math.sinh(t) / uf, 0, math.cosh(t)]])
        assert got == pytest.approx(want, rel=1e-14, abs=1e-15)
    assert expm_calls == [1]
