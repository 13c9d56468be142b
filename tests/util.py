"""Test-only helpers: random element generators, plus re-exports of the
shipped surrogate constructors."""

from fractions import Fraction as F

import numpy as np

import cartanlab.exact as ex
from cartanlab import GroupElement, Presentation
from cartanlab.cartan import indefinite_orthogonal
from cartanlab.fields import QuadElement, quadratic
from cartanlab.surrogates import (  # noqa: F401  (re-exported for tests)
    boost_Y_so22,
    schottky_sl2_matrices,
    schottky_sl2_presentation,
    schottky_so22_presentation,
    so21_boost,
    so21_in_so22,
    sym2_rational,
    u11_boost,
)


def random_sl_element(rng, n, group):
    """Well-scaled random SL(n, R) element (float)."""
    m = rng.standard_normal((n, n))
    d = np.linalg.det(m)
    if d < 0:
        m[0] *= -1.0
        d = -d
    m = m / d ** (1.0 / n)
    return GroupElement(m, group, check=False)


def random_sl2_padic(rng, p, group, steps=4):
    """Random exact element of SL_2(Q_p) as a product of elementaries."""
    m = ex.identity(2)
    for _ in range(steps):
        kind = rng.integers(0, 3)
        if kind == 0:
            x = F(int(rng.integers(-8, 9)), int(rng.integers(1, 5)))
            e = ex.mat_from_rows([[1, x], [0, 1]])
        elif kind == 1:
            x = F(int(rng.integers(-8, 9)), int(rng.integers(1, 5)))
            e = ex.mat_from_rows([[1, 0], [x, 1]])
        else:
            k = int(rng.integers(-2, 3))
            e = ex.mat_from_rows([[F(p) ** k, 0], [0, F(p) ** (-k)]])
        m = ex.mat_mul(m, e)
    return GroupElement(m, group, check=False)


def w_plus_sqrt2():
    """W+ of the compact Coxeter polytope that Vinberg's algorithm finds for
    the form -sqrt2 x0^2 + x1^2 + ... + x4^2 over Z[sqrt 2]: the seven
    products r_1 r_j of the reflections in its 8 roots, given as
    (x0; x1, ..., x4), the four B4 roots and e5..e8."""
    def q(a, b):
        return QuadElement(a, b, 2)

    form = (q(0, -1), 1, 1, 1, 1)
    roots = [(0, -1, 1, 0, 0), (0, 0, -1, 1, 0), (0, 0, 0, -1, 1), (0, 0, 0, 0, -1),
             (q(1, 1), q(2, 1), 0, 0, 0), (q(1, 1), q(1, 1), q(1, 1), 0, 0),
             (q(2, 1), q(1, 1), q(1, 1), q(1, 1), 1),
             (q(3, 2), q(3, 2), q(1, 1), q(1, 1), q(1, 1))]

    def reflection(a):  # x -> x - 2 <x, a> / <a, a> a
        Ja = [c * x for c, x in zip(form, a)]
        norm = sum(x * y for x, y in zip(a, Ja))
        return [[int(i == j) - F(2) * a[i] * Ja[j] / norm for j in range(5)]
                for i in range(5)]

    r1, *rest = map(reflection, roots)
    group = indefinite_orthogonal(4, 1, quadratic(2), form=form)
    return Presentation("abcdefg", [ex.mat_mul(r1, r) for r in rest], group)
