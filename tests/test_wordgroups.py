import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import cartanlab.exact as ex
from cartanlab import (
    COMPLEX,
    REAL,
    AmalgamStructure,
    GroupElement,
    HnnStructure,
    Homomorphism,
    NumericalError,
    PreconditionError,
    Presentation,
    Word,
    check_relators,
    evaluate,
    inclusion,
    parse_word,
    special_linear,
    word_ball,
)
from cartanlab.bending import BendingFamily, bend
from cartanlab.cartan import indefinite_orthogonal, to_float_array
from cartanlab.fields import QuadElement, quadratic
from cartanlab.wordgroups import (
    FLOAT_DEDUP_TOL,
    MAX_WORD_LETTERS,
    _deviation,
    _FloatIndex,
    conjugate_homomorphism,
    reduce_letters,
)

from util import (
    boost_Y_so22,
    schottky_sl2_matrices,
    schottky_sl2_presentation,
    schottky_so22_presentation,
    sym2_rational,
    w_plus_sqrt2,
)

SL2R = special_linear(2, REAL)


def test_presentation_needs_a_generator():
    # word_ball of an empty presentation used to end in an IndexError
    # from exact.stack_products
    with pytest.raises(PreconditionError, match="at least one generator"):
        Presentation([], [], SL2R)


def test_word_construction_and_reduction():
    with pytest.raises(PreconditionError):
        Word([(0, 1), (0, -1)])
    w = reduce_letters([(0, 1), (1, 1), (1, -1), (0, 1)])
    assert w.letters == ((0, 1), (0, 1))
    assert (w * w.inverse()).letters == ()
    assert parse_word("a b^-1 a^2", ["a", "b"]).letters == (
        (0, 1), (1, -1), (0, 1), (0, 1)
    )
    assert parse_word("a a^-1", ["a"]).letters == ()
    # the letter bound counts letters before free reduction
    assert len(parse_word(f"a^{MAX_WORD_LETTERS}", ["a"])) == MAX_WORD_LETTERS
    with pytest.raises(PreconditionError, match="more than 100000 letters"):
        parse_word(f"a^-{MAX_WORD_LETTERS} a", ["a"])
    assert w.format(["a", "b"]) == "a a"
    assert Word().format(["a"]) == "1"


def test_evaluate_basics():
    P = schottky_sl2_presentation()
    phi = inclusion(P)
    assert evaluate(Word(), phi) == GroupElement([[F(1), 0], [0, F(1)]], SL2R)
    a, b = schottky_sl2_matrices()
    w = parse_word("a b", ["a", "b"])
    assert evaluate(w, phi).matrix == ex.mat_mul(a, b)


def test_evaluate_is_multiplicative():
    P = schottky_sl2_presentation()
    phi = inclusion(P)
    rng = np.random.default_rng(3)
    letters = [(int(i), int(e)) for i in range(2) for e in (1, -1)]
    for _ in range(30):
        w1 = _random_word(rng, letters, 5)
        w2 = _random_word(rng, letters, 5)
        assert w1 * w2 == reduce_letters(w1.letters + w2.letters)
        lhs = evaluate(w1 * w2, phi)
        rhs = evaluate(w1, phi) @ evaluate(w2, phi)
        assert lhs == rhs


def _random_word(rng, letters, max_len):
    out = []
    for _ in range(int(rng.integers(0, max_len + 1))):
        out.append(letters[int(rng.integers(0, len(letters)))])
    return reduce_letters(out)


def test_free_ball_counts():
    P = schottky_sl2_presentation()
    phi = inclusion(P)
    expected = [1, 5, 17, 53]  # 1 + sum 4*3^(k-1)
    for radius, count in enumerate(expected):
        ball = word_ball(P, phi, radius)
        assert len(ball) == count
        assert ball.complete


def test_ball_nesting():
    P = schottky_sl2_presentation()
    phi = inclusion(P)
    b2 = {e.element.matrix for e in word_ball(P, phi, 2).entries}
    b3 = {e.element.matrix for e in word_ball(P, phi, 3).entries}
    assert b2 <= b3


def test_cyclic_quotient_ball():
    rot = [[F(0), F(-1)], [F(1), F(-1)]]  # order 3 in SL_2
    P = Presentation(["r"], [rot], SL2R, relators=[parse_word("r^3", ["r"])])
    assert check_relators(P, inclusion(P)).ok
    ball = word_ball(P, inclusion(P), 10)
    assert len(ball) == 3
    # the float ball stops expanding once a level adds nothing
    assert len(_assert_float_ball_is_exact_ball(P, 10)) == 3


def test_shortest_representatives_deterministic():
    P = schottky_sl2_presentation()
    ball = word_ball(P, inclusion(P), 3)
    for e in ball.entries:
        # stored word is a geodesic representative: re-evaluating any other
        # ball word with the same image cannot be shorter
        assert len(e.word) <= 3
    # entries come out in Word.key order (length, then letters with +1
    # before -1)
    keys = [e.word.key() for e in ball.entries]
    assert keys == sorted(keys)
    # identity first, then generators in index order
    assert ball.entries[0].word.letters == ()
    assert ball.entries[1].word.letters == ((0, 1),)


def _float_twin(P):
    """P with every generator read as a float matrix."""
    return Presentation(P.symbols,
                        [GroupElement(to_float_array(g), P.group) for g in P.generators],
                        P.group, relators=P.relators)


def _assert_float_ball_is_exact_ball(P, radius):
    """The float ball of P's generators has the exact ball's words, and
    each element is bit for bit the float evaluation of its word."""
    exact = word_ball(P, inclusion(P), radius)
    Pf = _float_twin(P)
    phi = inclusion(Pf)
    ball = word_ball(Pf, phi, radius)
    assert len(ball) == len(exact)
    assert [e.word for e in ball.entries] == [e.word for e in exact.entries]
    for e in ball.entries:
        assert e.element.matrix.tobytes() == evaluate(e.word, phi).matrix.tobytes()
    return ball


def test_float_dedup_merges_are_logged():
    # r^4 = 1: r^2 = r^-2 and r^3 = r^-1 are merged and logged, while g
    # and -g (r^k and r^(k+2)) stay apart, as in the exact ball
    a = [[F(4), F(0)], [F(0), F(1, 4)]]
    rot = [[F(0), F(-1)], [F(1), F(0)]]
    P = Presentation(["a", "r"], [a, rot], SL2R)
    ball = _assert_float_ball_is_exact_ball(P, 4)
    assert ball.merges
    for merged, kept in ball.merges:
        assert len(kept) <= len(merged)


def test_float_ball_keeps_g_and_minus_g():
    # the sign normalisation of the old float key merged these to 5
    a = [[F(2), F(0)], [F(0), F(1, 2)]]
    minus = [[F(-1), F(0)], [F(0), F(-1)]]
    P = Presentation(["a", "m"], [a, minus], SL2R)
    assert len(_assert_float_ball_is_exact_ball(P, 2)) == 8


def _z4z_exact():
    """Z/4 * Z in SO(2,1): r of order 4 and a boost s, exact."""
    r = [[F(0), F(-1), F(0)], [F(1), F(0), F(0)], [F(0), F(0), F(1)]]
    s = sym2_rational(((F(4), F(0)), (F(0), F(1, 4))))
    return Presentation(["r", "s"], [r, s], indefinite_orthogonal(2, 1, REAL),
                        relators=[parse_word("r^4", ["r", "s"])])


def test_float_ball_of_z4z_matches_exact_twin():
    # entries reach 4^8 with rounding errors far above an absolute 1e-8,
    # so only a relative tolerance merges them
    assert len(_assert_float_ball_is_exact_ball(_z4z_exact(), 8)) == 1528


# -- float balls of exact generators agree with the exact balls -------------

SO21R = indefinite_orthogonal(2, 1, REAL)
SO22R = indefinite_orthogonal(2, 2, REAL)
SL3R = special_linear(3, REAL)
small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
TORSION = {  # finite-order elements of each group; -I where it has det 1
    "sl2": ([[0, -1], [1, 0]], [[0, -1], [1, -1]], [[1, -1], [1, 0]],
            [[-1, 0], [0, -1]]),
    "sl3": ([[0, 0, 1], [1, 0, 0], [0, 1, 0]], [[0, -1, 0], [1, 0, 0], [0, 0, 1]],
            [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]),
    "so21": ([[0, -1, 0], [1, 0, 0], [0, 0, 1]], [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]),
    "so22": ([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
             [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
             [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]),
}
GROUPS = {"sl2": SL2R, "sl3": SL3R, "so21": SO21R, "so22": SO22R}


@st.composite
def sl_generator(draw, n):
    """A product of elementary matrices and diag(x, 1/x, 1...)."""
    M = ex.identity(n)
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.sampled_from([(i, j) for i in range(n) for j in range(n)
                                     if i != j]))
        E = [[F(int(r == c)) for c in range(n)] for r in range(n)]
        E[i][j] = draw(small)
        M = ex.mat_mul(M, E)
    x = F(draw(st.sampled_from([-3, -2, -1, 1, 2, 3])), draw(st.integers(1, 4)))
    D = [[F(0)] * n for _ in range(n)]
    for k in range(n):
        D[k][k] = x if k == 0 else 1 / x if k == 1 else F(1)
    return ex.mat_mul(M, D)


@st.composite
def so_cayley(draw, group):
    """(I - X)^-1 (I + X) for X = J^-1 S, S skew: an element of the group
    SO(p,q) with its form J = diag(1, .., 1, -1, .., -1)."""
    n = group.size
    S = {(i, j): draw(small) for i in range(n) for j in range(i + 1, n)}
    X = [[F(0) if i == j else group.form[i] * (S[i, j] if i < j else -S[j, i])
          for j in range(n)] for i in range(n)]
    plus = ex.mat_add(ex.identity(n), X)
    minus = ex.mat_sub(ex.identity(n), X)
    assume(ex.det(minus) != 0)
    return ex.mat_mul(ex.inverse(minus), plus)


def generators(kind):
    """A strategy for one generator of the group GROUPS[kind]."""
    group = GROUPS[kind]
    return so_cayley(group) if group.family == "SO" else sl_generator(group.size)


@st.composite
def exact_presentations(draw):
    kind = draw(st.sampled_from(sorted(TORSION)))
    group = GROUPS[kind]
    gens = draw(st.lists(generators(kind), min_size=1, max_size=2))
    gens += draw(st.lists(st.sampled_from(TORSION[kind]), max_size=2,
                          unique_by=str))
    radius = draw(st.integers(1, 5 if len(gens) <= 2 else 3))
    P = Presentation([f"g{i}" for i in range(len(gens))], gens, group)
    return P, radius, kind


def _separated(ball):
    """Whether the ball's elements are pairwise farther apart than twice
    the float tolerance."""
    X = np.stack([to_float_array(e.element).reshape(-1) for e in ball.entries])
    scale = np.maximum(1, np.abs(X).max(axis=1))
    dev = np.abs(X[:, None] - X[None]).max(axis=2)
    np.fill_diagonal(dev, np.inf)
    return bool((dev > 2 * FLOAT_DEDUP_TOL * np.maximum.outer(scale, scale)).all())


@given(exact_presentations())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_float_ball_equals_exact_ball(case):
    P, radius, _ = case
    # a tolerance can only separate elements that are farther apart
    assume(_separated(word_ball(P, inclusion(P), radius)))
    _assert_float_ball_is_exact_ball(P, radius)


def _oracle_ball(P, radius):
    """(word, element) for the first word of each element, by evaluating
    every reduced word up to radius in ``Word.key`` order."""
    phi = inclusion(P)
    letters = [(i, e) for i in range(P.rank) for e in (1, -1)]
    words = [Word(w) for k in range(radius + 1)
             for w in itertools.product(letters, repeat=k)
             if all(a != (i, -e) for a, (i, e) in zip(w, w[1:]))]
    first = {}
    for w in sorted(words, key=Word.key):
        first.setdefault(evaluate(w, phi), w)
    return [(w, g) for g, w in first.items()]


@given(exact_presentations())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_exact_ball_equals_brute_force(case):
    P, radius, _ = case
    ball = word_ball(P, inclusion(P), radius)
    assert ball.complete and not ball.merges
    assert [(e.word, e.element) for e in ball.entries] == _oracle_ball(P, radius)


# -- the exact level kernel against evaluate, which does not share it -------

def _stored(g):
    """How an exact element is stored: its d and the type of every entry
    of its N, with the entries."""
    return g._den, [[(type(x), x) for x in row] for row in g._m]


def _assert_same_elements(got, want):
    assert len(got) == len(want)
    for g, h in zip(got, want):
        assert g == h and _stored(g) == _stored(h)


@given(exact_presentations(), st.data())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_exact_ball_cut_inside_a_level_is_a_prefix(case, data):
    P, radius, _ = case
    want = _oracle_ball(P, radius)
    assume(len(want) > 2)
    m = data.draw(st.integers(1, len(want) - 2))
    ball = word_ball(P, inclusion(P), radius, max_elements=m)
    assert not ball.complete
    assert [e.word for e in ball.entries] == [w for w, _ in want[:m + 1]]
    _assert_same_elements(ball.elements(), [g for _, g in want[:m + 1]])


def test_exact_z4z_ball_repeats_within_and_across_levels():
    P = _z4z_exact()
    ball = word_ball(P, inclusion(P), 6)
    assert [(e.word, e.element) for e in ball.entries] == _oracle_ball(P, 6)
    words = {e.word.letters for e in ball.entries}
    r, r_inv = (0, 1), (0, -1)
    assert (r, r) in words and (r_inv, r_inv) not in words  # within level 2
    assert (r_inv,) in words and (r, r, r) not in words  # r^3 = r^-1 at level 1
    # the cut falls inside level 2, before r^-2 (a repeat of r^2) is met
    cut = word_ball(P, inclusion(P), 6, max_elements=6)
    assert [e.word for e in cut.entries] == [e.word for e in ball.entries[:7]]


def _so21_sqrt2(extra=()):
    """SO(2,1) over Q(sqrt 2), form x0^2 + x1^2 - (1 + sqrt 2)^2 x2^2: a
    boost with entries in Q(sqrt 2) beside integer and rational ones, a
    rational turn, an involution whose entry 1 is in Q(sqrt 2), and any
    extra generators."""
    u, one = QuadElement(1, 1, 2), QuadElement(1, 0, 2)
    group = indefinite_orthogonal(2, 1, quadratic(2), form=(F(1), F(1), -u * u))
    boost = [[F(5, 4), 0, F(3, 4) * u], [0, F(1), 0], [F(3, 4) / u, 0, F(5, 4)]]
    turn = [[F(3, 5), F(-4, 5), 0], [F(4, 5), F(3, 5), 0], [0, 0, F(1)]]
    flip = [[one, 0, 0], [0, -1, 0], [0, 0, -1]]
    return Presentation("abcd"[:3 + len(extra)], [boost, turn, flip, *extra], group)


@pytest.mark.parametrize("extra", [(), ([[0, -1, 0], [1, 0, 0], [0, 0, 1]],)])
def test_exact_ball_over_q_sqrt2_is_evaluate(extra):
    # elements with all entries rational and with an irrational entry share
    # the ball, and candidates repeat (the involution c, and the order-4
    # turn d), so repeats of both kinds are found again by their keys
    P = _so21_sqrt2(extra)
    radius = 3
    ball = word_ball(P, inclusion(P), radius)
    assert [(e.word, e.element) for e in ball.entries] == _oracle_ball(P, radius)
    assert {any(isinstance(x, QuadElement) and x.b for row in g.matrix for x in row)
            for g in ball.elements()} == {True, False}
    _assert_same_elements(ball.elements(), [evaluate(e.word, inclusion(P))
                                            for e in ball.entries])


@given(exact_presentations(), st.data())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_exact_images_are_evaluate(case, data):
    P, radius, kind = case
    ball = word_ball(P, inclusion(P), radius)
    images = data.draw(st.lists(generators(kind), min_size=P.rank, max_size=P.rank))
    phi = Homomorphism(images, P.group)
    _assert_same_elements(ball.images(phi), [evaluate(e.word, phi) for e in ball.entries])


def test_exact_images_over_q_sqrt2_are_evaluate():
    P = _so21_sqrt2(([[0, -1, 0], [1, 0, 0], [0, 0, 1]],))
    ball = word_ball(P, inclusion(P), 3)
    a, b, c, d = P.generators
    for phi in (conjugate_homomorphism(inclusion(P), a),
                Homomorphism([b, d, a, c], P.group)):
        _assert_same_elements(ball.images(phi), [evaluate(e.word, phi)
                                                 for e in ball.entries])


def test_w_plus_ball_over_q_sqrt2():
    # the uniform lattice in SO(4,1) over Q(sqrt 2): its Q(sqrt 2) ball runs
    # on the integer kernels through the block form of every element
    P = w_plus_sqrt2()
    ball = word_ball(P, inclusion(P), 4)
    lengths = ball.lengths()
    assert [sum(x <= k for x in lengths) for k in range(1, 5)] == [11, 74, 418, 2214]
    assert ball.images(inclusion(P)) == ball.elements()


@pytest.mark.parametrize("m", [1, 4, 9, 20, 33])
def test_truncated_balls_are_prefixes(m):
    # r^4 = 1, so the float ball merges words before it is cut
    a = [[F(4), F(0)], [F(0), F(1, 4)]]
    rot = [[F(0), F(-1)], [F(1), F(0)]]
    P = Presentation(["a", "r"], [a, rot], SL2R)
    full = [e.word for e in word_ball(P, inclusion(P), 5).entries]
    assert len(full) > m + 1
    for Q in (P, _float_twin(P)):
        ball = word_ball(Q, inclusion(Q), 5, max_elements=m)
        assert not ball.complete
        assert [e.word for e in ball.entries] == full[:m + 1]


# -- the level resolver finds every element within tolerance --------------

# Tops of the window points: scales just below and above 1, below 1 where
# the scale is 1 regardless, powers of two and near 1e300 (where a key
# must stay finite).
TOPS = [0.25, 1 - 2e-8, 1 - 1e-9, 1.0, 1 + 1e-9, 1 + 2e-8, 2.0 ** 20,
        3e5 + 1 / 3, 1e300]


@st.composite
def window_points(draw, d, kind=np.float64):
    """A point of d coordinates (real, or complex) whose largest entry is
    one of TOPS in modulus, the others any fraction of it."""
    top = draw(st.sampled_from(TOPS))

    def part():
        return top * np.array(draw(st.lists(st.floats(-1, 1), min_size=d, max_size=d)))

    b = part() if kind is np.float64 else (part() + 1j * part()) * 0.7
    b[draw(st.integers(0, d - 1))] = top * draw(st.sampled_from([1, -1, 1j, -1j]
                                                               if kind is np.complex128
                                                               else [1, -1]))
    return b


def _scale(x):
    return max(1.0, float(np.abs(x).max()))


def _nudge(draw, b, factors):
    """b moved by one of factors times the tolerance at its scale: along
    all coordinates at once with one sign (which moves its key the most),
    or along a random sign pattern (for a complex b, the same or a random
    direction of modulus <= 1 in each coordinate)."""
    factor = draw(st.sampled_from(factors))
    units = [1.0, -1.0] + ([1j, -1j, (1 + 1j) / 2 ** 0.5] if np.iscomplexobj(b) else [])
    if draw(st.booleans()):
        step = np.full(len(b), draw(st.sampled_from(units)))
    else:
        step = np.array(draw(st.lists(st.sampled_from(units + [0.0]),
                                      min_size=len(b), max_size=len(b))))
    return b + factor * FLOAT_DEDUP_TOL * _scale(b) * step


# Moves in units of the tolerance at b's scale: 1 / (1 - tol) puts a moved
# top entry exactly at the tolerance of the moved point's own scale.
NEAR = [0.0, 0.5, 0.99, 1.0, 1 / (1 - FLOAT_DEDUP_TOL), 1.01, 3.0]


@st.composite
def near_pairs(draw):
    """An element b, real or complex, and a point a near it."""
    kind = draw(st.sampled_from([np.float64, np.complex128]))
    b = draw(window_points(draw(st.sampled_from([4, 9, 16])), kind))
    return b, _nudge(draw, b, NEAR)


def _resolve(index, rows):
    """The resolver's answer for one level of rows: None where a row is
    inserted, the index of its element otherwise."""
    hits, _ = index.resolve(np.array(rows), len(rows))
    return [None if h < 0 else int(h) for h in hits]


def _full_scan(elements, row):
    """Index of the first of elements within tolerance of row, or None."""
    for k, x in enumerate(elements):
        if np.abs(row - x).max() <= FLOAT_DEDUP_TOL * max(_scale(row), _scale(x)):
            return k
    return None


@given(near_pairs(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_float_index_agrees_with_a_full_scan(pair, one_level):
    # a is decided against b filed at an earlier level, or filed before it
    # in the same level
    b, a = pair
    index = _FloatIndex(len(b), b.dtype)
    if one_level:
        assert _resolve(index, [b, a]) == [None, _full_scan([b], a)]
    else:
        assert _resolve(index, [b]) == [None]
        assert _resolve(index, [a]) == [_full_scan([b], a)]
    assert np.isfinite(index.keys).all()


def test_float_index_with_many_coordinates_on_edges():
    # 16 coordinates, all moved at once: a merges with b up to the tolerance
    b = 2.0 ** -15 * (np.arange(16) + 1 / 3 + 1 / 2)
    for factor, want in ((1, 0), (-1, 0), (3, None)):
        a = b + factor * 0.9 * FLOAT_DEDUP_TOL
        index = _FloatIndex(len(b), np.float64)
        assert _resolve(index, [b]) == [None]
        assert _resolve(index, [a]) == [want]
        assert _resolve(_FloatIndex(len(b), np.float64), [b, a]) == [None, want]
    # a is within tolerance of two elements on either side of it: the first
    # inserted wins, whether they are an earlier level or a's own
    a, side = b + 0.1 * FLOAT_DEDUP_TOL, 0.8 * FLOAT_DEDUP_TOL
    for first, second in ((b + side, b - side), (b - side, b + side)):
        index = _FloatIndex(len(b), np.float64)
        assert _resolve(index, [first, second]) == [None, None]
        assert _resolve(index, [a]) == [0]
        assert _resolve(_FloatIndex(len(b), np.float64),
                        [first, second, a]) == [None, None, 0]
        index = _FloatIndex(len(b), np.float64)
        assert _resolve(index, [first]) == [None]
        assert _resolve(index, [second, a]) == [None, 0]


def _key_twin(index, b, step):
    """A point far from b (step times b's scale away in two coordinates)
    whose key is b's up to rounding: the move is orthogonal to the key's
    weights."""
    w, x = index.weights, b.view(np.float64).copy()
    x[0] += step * _scale(b) * w[1]
    x[1] -= step * _scale(b) * w[0]
    return x.view(b.dtype)


@pytest.mark.parametrize("kind", [np.float64, np.complex128])
def test_rows_far_apart_with_one_key_stay_apart(kind):
    index = _FloatIndex(9, kind)
    b = np.linspace(-3, 5, 9).astype(kind)
    twins = [_key_twin(index, b, step) for step in (1e-4, 0.5, -0.5)]
    window = index.reach * _scale(b)
    keys = [x.view(np.float64) @ index.weights for x in [b] + twins]
    assert max(keys) - min(keys) < window / 100
    # in one level (the window holds all four), then against earlier ones
    assert _resolve(index, [b] + twins) == [None] * 4
    assert _resolve(index, [twins[1] + FLOAT_DEDUP_TOL, b]) == [2, 0]
    assert len(index.rows) == 4


def test_keys_stay_finite_near_the_float_range():
    big = np.finfo(float).max / 2
    b = np.array([big, -big, big / 3, 1.0])
    index = _FloatIndex(4, np.float64)
    assert _resolve(index, [b, b * (1 - 0.5 * FLOAT_DEDUP_TOL), -b]) == [None, 0, None]
    assert np.isfinite(index.keys).all()


@st.composite
def separated_levels(draw):
    """Levels of candidate rows: copies, within a third of the tolerance,
    of points well apart; some of the points sit a few tolerances apart,
    some far apart with nearly one key."""
    d = draw(st.sampled_from([4, 9]))
    kind = draw(st.sampled_from([np.float64, np.complex128]))
    points = draw(st.lists(window_points(d, kind), min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 3))):  # neighbours in the same windows
        points.append(_nudge(draw, draw(st.sampled_from(points)), [5.0, 20.0]))
    for _ in range(draw(st.integers(0, 3))):
        points.append(_key_twin(_FloatIndex(d, kind), draw(st.sampled_from(points)),
                                draw(st.sampled_from([1e-6, 0.1, -0.3]))))
    for i, p in enumerate(points):
        for q in points[:i]:
            assume(np.abs(p - q).max() > 4 * FLOAT_DEDUP_TOL * max(_scale(p), _scale(q)))
    picks = draw(st.lists(st.integers(0, len(points) - 1), min_size=1, max_size=24))
    rows = [_nudge(draw, points[k], [0.0, 0.01, 0.1, 0.3]) for k in picks]
    cuts = sorted(draw(st.sets(st.integers(1, len(rows)), max_size=4)) | {len(rows)})
    return d, kind, [rows[a:b] for a, b in zip([0] + cuts, cuts)]


@st.composite
def chained_levels(draw):
    """Levels of rows on one line through a point, multiples of 0.35 of
    the tolerance apart: a row may be within tolerance of rows that merged
    and of several elements, of earlier levels and of its own."""
    d = draw(st.sampled_from([4, 9]))
    kind = draw(st.sampled_from([np.float64, np.complex128]))
    b = draw(window_points(d, kind))
    u = (_nudge(draw, b, [1.0]) - b) / (FLOAT_DEDUP_TOL * _scale(b))
    assume(np.abs(u).max() > 0)
    rows = [b + 0.35 * k * FLOAT_DEDUP_TOL * _scale(b) * u
            for k in draw(st.lists(st.integers(-6, 6), min_size=1, max_size=16))]
    cuts = sorted(draw(st.sets(st.integers(1, len(rows)), max_size=4)) | {len(rows)})
    return d, kind, [rows[a:b] for a, b in zip([0] + cuts, cuts)]


@given(st.one_of(separated_levels(), chained_levels()))
@settings(max_examples=400, deadline=None)
def test_level_resolver_equals_sequential_dedup(case):
    # a level decided as one batch gives each row the answer of a full scan
    # over the elements inserted before it, earlier levels and its own
    d, kind, levels = case
    index, elements = _FloatIndex(d, kind), []
    for rows in levels:
        want = []
        for row in rows:
            want.append(_full_scan(elements, row))
            if want[-1] is None:
                elements.append(row)
        assert _resolve(index, rows) == want
    assert np.array_equal(index.rows, np.array(elements))


@st.composite
def window_presentations(draw):
    """A float SL2 presentation (a, b, r) and a radius: a's top entry is
    just below or above 1 or a power of two; b is a copy of a within
    1e-11 relative, so words ending in b are copies of words ending in a;
    r has order 4, exactly or (when conjugated by a shear) up to
    rounding."""
    x = 2.0 ** draw(st.integers(0, 12)) * (1 - draw(st.sampled_from(
        [-2e-8, -1e-9, 0.0, 1e-12, 1e-9, 2e-8])))
    y, z = (x / 4 * draw(st.floats(-1, 1)) for _ in range(2))

    def nudge(v):
        return v * (1 + draw(st.sampled_from([-1e-11, 0.0, 1e-11])))

    def element(x, y, z):
        return np.array([[x, y], [z, (1 + y * z) / x]])

    r = np.array([[0.0, -1.0], [1.0, 0.0]])
    c = draw(st.sampled_from([0.0, 0.1, 0.7, 1.3]))
    r = np.array([[1, c], [0, 1]]) @ r @ np.array([[1, -c], [0, 1]])
    mats = [element(x, y, z), element(nudge(x), nudge(y), nudge(z)), r]
    P = Presentation(["a", "b", "r"], [GroupElement(m, SL2R) for m in mats], SL2R)
    return P, draw(st.integers(1, 4))


def _brute_force_float_ball(P, radius):
    """(words, merges) of P's float ball: the BFS of ``word_ball``, each
    candidate compared with every element kept before it, O(N^2)."""
    phi = inclusion(P)
    letters = [(i, e) for i in range(P.rank) for e in (1, -1)]
    words, merges, rows, frontier = [], [], [], [Word()]
    gaps = []  # deviation over tolerance of every candidate and kept element

    def decide(word):
        x = to_float_array(evaluate(word, phi)).reshape(-1)
        if rows:
            X = np.array(rows)
            bound = FLOAT_DEDUP_TOL * np.maximum(_scale(x), np.abs(X).max(axis=1).clip(1))
            gaps.extend(np.abs(X - x).max(axis=1) / bound)
        hit = _full_scan(rows, x)
        if hit is None:
            rows.append(x)
            words.append(word)
        else:
            merges.append((word, words[hit]))
        return hit is None

    decide(Word())
    for _ in range(radius):
        frontier = [c for w in frontier for i, e in letters
                    if not (w.letters and w.letters[-1] == (i, -e))
                    for c in [Word(w.letters + ((i, e),))] if decide(c)]
    return words, merges, np.array(gaps)


@given(window_presentations())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_float_ball_equals_brute_force_dedup(case):
    P, radius = case
    words, merges, gaps = _brute_force_float_ball(P, radius)
    # every candidate is well within tolerance of its element or far from
    # every element, so the first within tolerance is unambiguous
    assume(not ((gaps > 0.25) & (gaps < 4)).any())
    ball = word_ball(P, inclusion(P), radius)
    assert [e.word for e in ball.entries] == words
    assert ball.merges == merges and ball.merge_count == len(merges)
    for e in ball.entries:
        assert e.element.matrix.tobytes() == evaluate(e.word, inclusion(P)).matrix.tobytes()


def test_float_ball_refuses_overflow():
    big = GroupElement(np.diag([1e100, 1e-100]), SL2R)
    P = Presentation(["a"], [big], SL2R)
    assert len(word_ball(P, inclusion(P), 3)) == 7
    with pytest.raises(NumericalError, match="not finite"):
        word_ball(P, inclusion(P), 4)


def _assert_images_match_evaluate(ball, phi):
    images = ball.images(phi)
    assert len(images) == len(ball)
    for k, (entry, image) in enumerate(zip(ball.entries, images)):
        if k:
            assert 0 <= entry.parent < k
            parent = ball.entries[entry.parent]
            assert entry.word.letters == parent.word.letters + (entry.letter,)
        want = evaluate(entry.word, phi)
        assert image.is_exact == want.is_exact
        if want.is_exact:
            assert image == want
        else:
            assert np.array_equal(image.matrix, want.matrix)
            assert np.array_equal(np.signbit(image.matrix), np.signbit(want.matrix))


def test_ball_images_exact_schottky():
    P = schottky_sl2_presentation()
    phi = inclusion(P)
    ball = word_ball(P, phi, 5)
    assert len(ball) == 485
    _assert_images_match_evaluate(ball, phi)
    g = GroupElement([[F(2), F(1)], [F(1), F(1)]], SL2R)
    _assert_images_match_evaluate(ball, conjugate_homomorphism(phi, g))


def test_ball_images_bent_so22():
    # exact reference ball, images under a homomorphism mixing exact and
    # float generator images
    P = schottky_so22_presentation()
    phi = bend(BendingFamily(P, boost_Y_so22()), 0.1)
    ball = word_ball(P, inclusion(P), 4)
    _assert_images_match_evaluate(ball, phi)


def test_ball_images_float_with_merges():
    a = np.diag([4.0, 0.25])
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    P = Presentation(["a", "r"], [GroupElement(a, SL2R), GroupElement(rot, SL2R)],
                     SL2R)
    phi = inclusion(P)
    ball = word_ball(P, phi, 4)
    assert ball.merges
    _assert_images_match_evaluate(ball, phi)


def _bits(a):
    """The dtype and the raw bits of a float array (signed zeros apart)."""
    a = np.ascontiguousarray(a)
    return a.dtype, a.view(np.int64).tolist()


def _far_from_singular(m) -> bool:
    """|det m| > 0.1, with LAPACK's divide-by-zero flag on a subnormal
    pivot ignored (it is no fault of the drawn matrix)."""
    with np.errstate(divide="ignore"):
        return bool(abs(np.linalg.det(m)) > 0.1)


def test_far_from_singular_on_a_subnormal_pivot():
    with np.errstate(divide="raise"):
        assert not _far_from_singular(np.array([[0.0, 0.0], [5e-324, 1.0]]))
        assert _far_from_singular(np.array([[2.0, 0.0], [5e-324, 1.0]]))


@st.composite
def float_homomorphisms(draw):
    """A word ball of a free pair, or of a pair with an element of order 4
    (whose exact ball merges words), and a float homomorphism on its
    letters: real, complex, or one exact Schottky generator beside one
    float image."""
    P = draw(st.sampled_from([schottky_sl2_presentation(), _ORDER_4]))
    kind = draw(st.sampled_from(["real", "complex", "exact and real"]))
    group = special_linear(2, COMPLEX if kind == "complex" else REAL)
    entry = st.floats(-3, 3, allow_subnormal=True)
    if kind == "complex":
        entry = st.builds(complex, entry, entry)
    images = []
    for i in range(2):
        if kind == "exact and real" and i == 0:
            images.append(schottky_sl2_presentation().generators[0])
            continue
        m = np.array(draw(st.lists(entry, min_size=4, max_size=4))).reshape(2, 2)
        assume(_far_from_singular(m))
        images.append(GroupElement(m, group, check=False))
    return word_ball(P, inclusion(P), draw(st.integers(1, 4))), Homomorphism(images, group)


_ORDER_4 = Presentation(["r", "s"], [[[0, -1], [1, 0]], [[2, 1], [1, 1]]], SL2R)


@given(float_homomorphisms())
@settings(max_examples=60, deadline=None)
def test_float_images_are_evaluate_bit_for_bit(case):
    ball, phi = case
    stack = ball.image_stack(phi)
    assert stack.shape == (len(ball), 2, 2)
    for k, (entry, image) in enumerate(zip(ball.entries, ball.images(phi))):
        want = _bits(evaluate(entry.word, phi).matrix)
        assert not image.is_exact and _bits(image.matrix) == want
        if k:  # the root row is the identity in the stack's dtype
            assert _bits(stack[k]) == want


def test_image_stack_of_an_exact_homomorphism_is_none():
    P = schottky_sl2_presentation()
    ball = word_ball(P, inclusion(P), 2)
    assert ball.image_stack(inclusion(P)) is None
    with pytest.raises(PreconditionError, match="generator index 1 out of range"):
        ball.images(Homomorphism(P.generators[:1], SL2R))


def _assert_labels_are_formats(ball, symbols):
    labels = ball.labels(symbols)
    assert len(labels) == len(ball)
    for e, label in zip(ball.entries, labels):
        assert label == e.word.format(symbols)


def test_ball_labels_exact():
    P = schottky_sl2_presentation()
    _assert_labels_are_formats(word_ball(P, inclusion(P), 4), P.symbols)
    Q = schottky_so22_presentation()
    _assert_labels_are_formats(word_ball(Q, inclusion(Q), 3), ("x", "y^2"))


def test_ball_labels_float_z4z_with_merges():
    P = _float_twin(_z4z_exact())
    ball = word_ball(P, inclusion(P), 6)
    assert ball.merges
    _assert_labels_are_formats(ball, P.symbols)


@pytest.mark.parametrize("m", [0, 1, 7, 30])
def test_ball_labels_truncated(m):
    P = schottky_sl2_presentation()
    for Q in (P, _float_twin(P)):
        ball = word_ball(Q, inclusion(Q), 5, max_elements=m)
        assert not ball.complete
        _assert_labels_are_formats(ball, Q.symbols)


def test_memory_budget_flags_partial():
    P = schottky_sl2_presentation()
    ball = word_ball(P, inclusion(P), 4, max_elements=20)
    assert not ball.complete
    assert len(ball) >= 20


def test_amalgam_structure_validation():
    a, b = schottky_sl2_matrices()
    with pytest.raises(PreconditionError):
        Presentation(
            ["a", "b"], [a, b], SL2R,
            structure=AmalgamStructure(side1=(0,), side2=(0,)),
        )
    P = Presentation(
        ["a", "b"], [a, b], SL2R,
        structure=AmalgamStructure(side1=(0,), side2=(1,)),
    )
    assert check_relators(P, inclusion(P)).ok


def test_hnn_pairing_validated_and_checked():
    a, b = schottky_sl2_matrices()
    # nu = b, base = <a>, pairing nu a nu^-1 = (b a b^-1): fails since the
    # right side is not a base word equal to it... use the true relation
    conj = ex.mat_mul(ex.mat_mul(b, a), ex.inverse(b))
    P = Presentation(
        ["a", "c", "t"], [a, conj, b], SL2R,
        structure=HnnStructure(
            base=(0, 1), stable=2,
            pairings=((parse_word("a", ["a", "c", "t"]),
                       parse_word("c", ["a", "c", "t"])),),
        ),
    )
    assert check_relators(P, inclusion(P)).ok
    bad = ex.mat_from_rows([[F(2), F(0)], [F(0), F(1, 2)]])
    with pytest.raises(PreconditionError):
        Presentation(
            ["a", "c", "t"], [a, bad, b], SL2R,
            structure=HnnStructure(
                base=(0, 1), stable=2,
                pairings=((parse_word("a", ["a", "c", "t"]),
                           parse_word("c", ["a", "c", "t"])),),
            ),
        )


def test_check_relators_conjugation_guard():
    # a homomorphism violating an amalgam pair is reported, not hidden
    a, b = schottky_sl2_matrices()
    P = Presentation(
        ["a", "b"], [a, b], SL2R,
        structure=AmalgamStructure(
            side1=(0,), side2=(1,),
            gamma0_pairs=((parse_word("a", ["a", "b"]),
                           parse_word("a", ["a", "b"])),),
        ),
    )
    assert check_relators(P, inclusion(P)).ok
    phi_bad = Homomorphism([a, b][::-1], SL2R)  # swaps generators
    rep = check_relators(P, phi_bad)
    assert rep.ok  # pair (a = a) still holds under any homomorphism
    P2 = Presentation(
        ["a", "b"], [a, b], SL2R,
        structure=AmalgamStructure(
            side1=(0,), side2=(1,),
            gamma0_pairs=((parse_word("a", ["a", "b"]),
                           parse_word("b", ["a", "b"])),),
        ),
    )
    rep2 = check_relators(P2, inclusion(P2))
    assert not rep2.ok and rep2.max_deviation > 0


def test_relator_deviation_and_verdict():
    tol = 1e-9
    one = GroupElement([[F(1), F(0)], [F(0), F(1)]], SL2R)
    tiny = F(1, 10 ** 400)  # its float is 0.0, yet the elements differ
    near = GroupElement([[F(1) + tiny, F(0)], [F(0), F(1) / (1 + tiny)]], SL2R)
    assert _deviation(one, one, tol) == (0.0, False)
    assert _deviation(one, near, tol) == (0.0, True)
    for shift, fails in ((0.0, False), (1e-12, False), (2e-9, True),
                         (float("nan"), True)):
        g = GroupElement(np.array([[1.0 + shift, 0.0], [0.0, 1.0]]), SL2R,
                         check=False)
        for a, b in ((one, g), (g, one)):
            dev, failed = _deviation(a, b, tol)
            assert failed is fails
            assert dev == abs((1.0 + shift) - 1.0) or math.isnan(shift) and math.isnan(dev)


def test_exact_dedup_soundness_audit():
    # two distinct words with equal image: the dict's collision comparison
    # is the audit; counts confirm no false merges
    rot = [[F(0), F(-1)], [F(1), F(-1)]]
    P = Presentation(["r"], [rot], SL2R)
    ball = word_ball(P, inclusion(P), 6)
    mats = {e.element.matrix for e in ball.entries}
    assert len(mats) == len(ball.entries) == 3


def test_conjugate_homomorphism():
    P = schottky_sl2_presentation()
    g = GroupElement([[F(2), F(1)], [F(1), F(1)]], SL2R)
    phi = conjugate_homomorphism(inclusion(P), g)
    w = parse_word("a b^-1", ["a", "b"])
    lhs = evaluate(w, phi)
    rhs = g @ evaluate(w, inclusion(P)) @ g.inv()
    assert lhs == rhs
