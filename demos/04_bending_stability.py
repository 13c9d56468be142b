"""Bending a Schottky subgroup of SO(2,1) inside SO(2,2).

The free product structure lets one side be conjugated by exp(t*Y) for a
centralizer direction Y outside so(2,1).  The deformed Cartan spectrum
stays within an affine envelope eps_hat * ||mu|| + C_hat of the original,
with eps_hat growing from 0 as the bending parameter moves; the
Zariski-density witness confirms the bent group no longer sits inside a
conjugate of SO(2,1).
"""

from cartanlab import (
    BendingFamily,
    bend,
    inclusion,
    module_decomposition_check,
    stability_scans,
    zariski_density_witness,
)
from cartanlab.bending import so_subalgebra_basis, standard_so_form

from cartanlab.surrogates import boost_Y_so22, schottky_so22_presentation

# ---------------------------------------------------------------------------
# 1. the family: free product of two SO(2,1) Schottky generators, bent
#    along the (x1, x4) boost
P = schottky_so22_presentation()
Y = boost_Y_so22()
fam = BendingFamily(P, Y, subalgebra=so_subalgebra_basis(standard_so_form(2, 2), 3))
phi_ref = inclusion(P)

# ---------------------------------------------------------------------------
# 2. the stability envelope along the bending parameter
#    (one ball and one reference pass serve every t)
print("t        eps_hat     C_hat")
ts = (0.0, 0.01, 0.03, 0.1, 0.3)
reports = stability_scans(P, phi_ref, [bend(fam, t) for t in ts], radius=5)
for t, rep in zip(ts, reports):
    print(f"{t:<8} {rep.eps_hat:<11.6f} {rep.c_hat:.6f}")
print("(the envelope deviation <= eps_hat * ||mu|| + C_hat holds on every row)")

# ---------------------------------------------------------------------------
# 3. the density witness: so(2,1) plus its Ad(exp(tY)) image bracket-
#    generates so(2,2) for every t != 0, and never for t = 0
print("\nt        density witness")
for t in (0.0, 1e-3, 0.01, 0.1, 1.0):
    print(f"{t:<8} {zariski_density_witness(Y, t, 2)}")

v = module_decomposition_check(2)
print(f"\nmodule decomposition of so(2,2) over so(2,1): "
      f"{v.dim_sub} + {v.dim_complement} = {v.dim_ambient}, ok = {v.ok}")
print("(the complement is irreducible: adjoining any one direction to "
      "so(2,1) bracket-generates everything, which is what makes the "
      "witness decisive)")
