"""Proximal dynamics in projective space and the contraction sandwich.

A proximal matrix contracts projective space toward its attracting line
and away from its repelling hyperplane.  Products of strongly proximal
factors separated by well-placed isometries keep almost all of their
norm: the product norm sits between exp(-(n-1) r_eps) * prod ||z_i|| and
prod ||z_i||.
"""

from fractions import Fraction as F

import numpy as np

from cartanlab import (
    REAL,
    ProjHyperplane,
    ProjPoint,
    padic,
    product_sandwich_check,
    proj_distance,
    proximal_analyze,
    r_eps,
)

# ---------------------------------------------------------------------------
# 1. classify some matrices
pd = proximal_analyze(np.diag([4.0, 1.0, 1.0]), REAL)
print(f"diag(4,1,1): proximal, lambda = {pd.eigenvalue}, "
      f"gap ratio = {pd.gap_ratio}")
print(f"90-degree rotation: {proximal_analyze(np.array([[0., -1.], [1., 0.]]), REAL)}")

# over Q_p the classification is exact, via the Newton polygon of the
# characteristic polynomial
Q3 = padic(3)
comp = [[F(0), F(-1)], [F(1), F(1, 3)]]  # X^2 - (1/3) X + 1
pd3 = proximal_analyze(comp, Q3)
print(f"companion of X^2 - (1/3)X + 1 over Q_3: proximal = {pd3 is not None}, "
      f"gap ratio = {pd3.gap_ratio}")
comp2 = [[F(0), F(3)], [F(1), F(3)]]  # X^2 - 3X - 3: both roots valuation 1/2
print(f"companion of X^2 - 3X - 3 over Q_3: {proximal_analyze(comp2, Q3)}")

# ---------------------------------------------------------------------------
# 2. the p-adic projective distance is an exact closed form
v = ProjPoint([F(4), F(27)], Q3)   # (1+p, p^3) for p = 3
w = ProjPoint([F(1), F(0)], Q3)
print(f"\nd([(1+p : p^3)], [(1 : 0)]) over Q_3 = {proj_distance(v, w)} "
      "(the minor formula; residue-class search alone would say 1/3)")

# ---------------------------------------------------------------------------
# 3. r_eps and the norm sandwich for an aligned family
eps = 0.3
x0 = ProjPoint([1.0, 0.0, 0.0], REAL)
X0 = ProjHyperplane([1.0, 0.0, 0.0], REAL)
est = r_eps(x0, X0, eps)
print(f"\nr_eps({eps}) aligned closed form = {est.value:.6f} "
      f"(= -2 log eps, exact)")

rng = np.random.default_rng(1)
zs = []
for _ in range(5):
    z = np.zeros((3, 3))
    z[0, 0] = float(rng.uniform(20, 40))
    block = rng.standard_normal((2, 2))
    z[1:, 1:] = block * (z[0, 0] * eps * eps * 0.2 / np.abs(block).sum(1).max())
    zs.append(z)
k = np.array([[1.0, 0, 0], [0, 0, -1.0], [0, 1.0, 0]])  # signed permutation
rep = product_sandwich_check([*zs], [k] * 4, eps, REAL,
                             attracting=x0, repelling=X0)
print(f"five-factor product: lower = {rep.lower:.4e}  "
      f"value = {rep.value:.4e}  upper = {rep.upper:.4e}")
print(f"sandwich holds: {rep.passed}")
print(f"norm retained: {rep.value / rep.upper:.4f} of the unconstrained product")
