"""Shipped example groups: Schottky surrogates and subgroup axes.

The shipped examples are free Schottky subgroups, with the amalgam/HNN
labeling supplied as data.  Uniform reflection lattices (a right-angled
hexagon group in SO(2,1), an 8-generator group in SO(4,1) over
Q(sqrt 2)) are within desk scale, but are not shipped yet.  Whether a
surrogate is Zariski-dense in its rank-one group is an input assumption,
stated here and echoed by the CLI reports; the density witnesses certify
only the Lie-algebra-level condition on top of it.
"""

from fractions import Fraction as F

import numpy as np

from . import exact as ex
from .cartan import GroupElement, indefinite_orthogonal, special_linear
from .fields import REAL
from .transverse import _sym2_columns
from .wordgroups import AmalgamStructure, Presentation


def sym2_rational(g):
    """Exact symmetric-square image of an SL_2(Q) matrix in SO(2,1; Q), in
    the coordinates of ``transverse._sym2_columns``."""
    return tuple(zip(*_sym2_columns([[F(x) for x in row] for row in g])))


def so21_in_so22(mat3):
    """Block embedding of SO(2,1) into SO(2,2) fixing the last coordinate."""
    out = [[F(0)] * 4 for _ in range(4)]
    for i in range(3):
        for j in range(3):
            out[i][j] = mat3[i][j]
    out[3][3] = F(1)
    return tuple(tuple(r) for r in out)


def schottky_sl2_matrices():
    """The rational Schottky pair diag(4, 1/4) and its conjugate by
    [[1,1],[1,2]]; freeness up to any enumerated radius is certified by
    the exact word-ball counts."""
    a = ex.mat_from_rows([[F(4), 0], [0, F(1, 4)]])
    c = ex.mat_from_rows([[F(1), F(1)], [F(1), F(2)]])
    b = ex.mat_mul(ex.mat_mul(c, a), ex.inverse(c))
    return a, b


def schottky_sl2_presentation() -> Presentation:
    a, b = schottky_sl2_matrices()
    return Presentation(["a", "b"], [a, b], special_linear(2, REAL))


def schottky_so22_presentation() -> Presentation:
    """The Schottky pair pushed into SO(2,2), labeled as a trivial-edge
    amalgam (free product) so it can be bent."""
    a, b = schottky_sl2_matrices()
    A = so21_in_so22(sym2_rational(a))
    B = so21_in_so22(sym2_rational(b))
    group = indefinite_orthogonal(2, 2, REAL)
    return Presentation(
        ["a", "b"], [A, B], group,
        structure=AmalgamStructure(side1=(0,), side2=(1,), gamma0_pairs=()),
    )


def boost_Y_so22():
    """The (x1, x4) boost direction of so(2,2), exact; it centralizes the
    trivial edge subgroup and lies outside so(2,1)."""
    Y = [[F(0)] * 4 for _ in range(4)]
    Y[0][3] = F(1)
    Y[3][0] = F(1)
    return tuple(tuple(r) for r in Y)


def so21_boost(t: float) -> GroupElement:
    """Float boost in SO(2,2) along the (x1, x3) plane (an SO(2,1) element)."""
    m = np.eye(4)
    m[0, 0] = m[2, 2] = np.cosh(t)
    m[0, 2] = m[2, 0] = np.sinh(t)
    return GroupElement(m, indefinite_orthogonal(2, 2, REAL))


def u11_boost(t: float) -> GroupElement:
    """Realified U(1,1) boost inside SO(2,2); mu lies on the (1,1) ray."""
    m = np.eye(4)
    c, s = np.cosh(t), np.sinh(t)
    m[0, 0] = m[1, 1] = m[2, 2] = m[3, 3] = c
    m[0, 2] = m[2, 0] = m[1, 3] = m[3, 1] = s
    return GroupElement(m, indefinite_orthogonal(2, 2, REAL))
