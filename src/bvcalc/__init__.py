"""Exact calculus for Lie-Rinehart algebras over Q.

Multivector fields, Gerstenhaber brackets and their generators, right
connections on the base ring, connections on the top exterior power,
torsion-free lifts, and exact homology in the ground-field case.
"""

from .algebra import (
    AxiomViolation,
    LElement,
    LieRinehartAlgebra,
    build_poisson_cotangent,
)
from .bv import (
    GeneratorD,
    RightConnectionOnA,
    generator_square,
    gerstenhaber_bracket,
    is_generator,
    one_circ,
)
from .connections import (
    EndoOfL,
    LeftConnectionOnL,
    TopConnection,
    connection_apply_l,
    connection_apply_top,
    covariant_derivative,
    curvature_top,
    divergence_rank_one,
    dual_right_connection,
    generalized_lie_derivative,
    identity_top_form,
    induced_top_connection,
    is_flat,
    is_torsion_free,
    lie_derivative_top,
    lie_trace,
    phi_map,
    phi_trace,
    torsion,
    trace_endo,
)
from .correspond import (
    check_bracket_pairing_identity,
    check_generator_duality,
    generator_from_linear_connection,
    generator_from_top,
    right_from_generator,
    right_from_top,
    top_from_right,
    torsionfree_lift,
)
from .exterior import AltForm, Multivector, phi_inverse, phi_iso, top_pairing
from .homology import ChainComplex, exact_rank, homology_dims, rinehart_complex
from .poly import DerivationOfA, PolyElement, PolyParseError, parse_poly

__version__ = "0.1.0"
