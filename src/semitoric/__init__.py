"""Exact computational geometry of semiample divisors and hypersurfaces in
complete simplicial toric varieties.

Everything is computed in exact integer/rational arithmetic: fans and
lattice polytopes, support functions and intersection numbers, the coarsened
fan of a semiample divisor, graded Jacobian rings and toric residues, the
cup-product pairing on the middle cohomology of regular semiample threefold
hypersurfaces, and lattice-point Hodge-number formulas.
"""

from .errors import (
    CertificateError,
    InconsistencyError,
    NotCartierError,
    PreconditionError,
    RationalVertexError,
    SemitoricError,
    ValidationError,
)
from .lattice import cone_multiplicity, pairing, primitivize
from .polytope import Face, HPolytope, LatticePolytope, vertices_from_inequalities
from .fan import ConeRef, Fan
from .divisor import TorusInvariantDivisor, find_ample, pullback
from .coxring import (
    CoxRing,
    DegreeClass,
    GradedPolynomial,
    R1Piece,
    ideal_graded_piece,
)
from .residue import (
    CupProduct,
    PairingValue,
    ResidueMap,
    c_I_beta,
    cup_jacobian,
    nondegeneracy_certificate,
    toric_jacobian,
)
from .threefold import ThreefoldAnalysis, two_cone_charts
from .hodge import (
    e_face_values,
    h21_batyrev,
    h_p2,
    mirror_check,
    subdivision_counts,
    triangulation_helper,
)

__all__ = [
    "CertificateError",
    "ConeRef",
    "CoxRing",
    "CupProduct",
    "DegreeClass",
    "Face",
    "Fan",
    "GradedPolynomial",
    "HPolytope",
    "InconsistencyError",
    "LatticePolytope",
    "NotCartierError",
    "PairingValue",
    "PreconditionError",
    "R1Piece",
    "RationalVertexError",
    "ResidueMap",
    "SemitoricError",
    "ThreefoldAnalysis",
    "TorusInvariantDivisor",
    "ValidationError",
    "c_I_beta",
    "cone_multiplicity",
    "cup_jacobian",
    "e_face_values",
    "find_ample",
    "h21_batyrev",
    "h_p2",
    "ideal_graded_piece",
    "mirror_check",
    "nondegeneracy_certificate",
    "pairing",
    "primitivize",
    "pullback",
    "subdivision_counts",
    "toric_jacobian",
    "triangulation_helper",
    "two_cone_charts",
    "vertices_from_inequalities",
]
