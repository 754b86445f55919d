"""Exact-arithmetic tools for quasi-filiform nilpotent Lie algebras.

Builds the filiform algebra Q_n and its glued sums N(Q_n, m, r) over exact
rationals, computes derivation algebras two independent ways, checks
automorphism candidates against a closed-form condition battery, and decides
isomorphism of two gluings with verified witnesses.
"""

from .linalg import (
    Matrix,
    MonomialMatrix,
    rank,
    scalar,
    scalar_to_str,
)
from .liecore import (
    JacobiViolation,
    LieAlgebra,
    NotNilpotent,
    check_jacobi,
    is_filiform,
    lower_central_series,
    minimal_generator_count,
    quasi_cyclic_split,
)
from .builder import (
    BadN,
    BadSpec,
    NonBlockForm,
    QuasiQnSpec,
    RelatedMatrix,
    block_structure,
    build_qn,
    build_quasi,
    make_spec,
    related_matrix_of,
)
from .derivations import (
    GeneratorImages,
    der_dimension,
    derivation_conditions,
    derivation_oracle,
    extend_derivation_candidate,
    is_derivation,
    nilpotent_basis,
    torus_basis,
    weight_decomposition,
    weight_torus,
)
from .automorphisms import (
    automorphism_conditions,
    exp_ad,
    extend_endomorphism,
    is_automorphism,
    make_scaling_automorphism,
)
from .iso import (
    EquivalenceWitness,
    IsoVerdict,
    NotEquivalent,
    build_algebra_witness,
    iso_decide,
    monomial_equivalence,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
