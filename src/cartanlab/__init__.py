"""Cartan projections of matrix groups over local fields.

Subpackages by theme: `fields` (scalar arithmetic), `cartan` (group
descriptors and projections), `projective` (proximal dynamics and
contraction bounds), `wordgroups` (presentations and word balls),
`transverse` (rank-one geometry and decompositions), `stability`
(deformation scans and properness margins), `bending` (quadratic-form
Lie algebras and bending deformations), `cli` (batch front-end).
"""

from .cartan import (
    CartanVector,
    GroupDesc,
    GroupElement,
    cartan,
    cartan_archimedean,
    cartan_batch,
    cartan_padic,
    indefinite_orthogonal,
    indefinite_unitary,
    mu_norm,
    special_linear,
    wedge_norm_log,
    weight_pairing,
)
from .errors import (
    CartanLabError,
    IndeterminateError,
    NumericalError,
    PreconditionError,
    UnsupportedFieldError,
)
from .fields import (
    COMPLEX,
    REAL,
    FieldDesc,
    QuadElement,
    abs_value,
    padic,
    quad_embed,
    quadratic,
    valuation,
)
from .projective import (
    ProjHyperplane,
    ProjPoint,
    ProximalData,
    chi_mu_gap,
    eps_proximal_check,
    newton_polygon,
    product_sandwich_check,
    proj_distance,
    proximal_analyze,
    r_eps,
)
from .stability import (
    ConeModel,
    DeltaLData,
    cone_gap,
    delta_l_constants,
    mu_cone,
    properness_margin,
    seminorm,
    seminorm_defects,
    stability_scan,
    stability_scans,
)
from .transverse import (
    RankOneModel,
    TransverseDecomposition,
    decompose,
    displacement,
    transversality_gap,
)
from .bending import (
    BendingFamily,
    LieBasis,
    QuadFormSpace,
    bend,
    centralizer_in_algebra,
    module_decomposition_check,
    pick_Y,
    so_form_algebra,
    so_subalgebra_basis,
    u_embed,
    zariski_density_witness,
)
from .wordgroups import (
    AmalgamStructure,
    FreeStructure,
    HnnStructure,
    Homomorphism,
    Presentation,
    Word,
    check_relators,
    evaluate,
    inclusion,
    parse_word,
    word_ball,
)

__version__ = "0.1.0"
