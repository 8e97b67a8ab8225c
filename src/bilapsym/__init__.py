"""Exact higher symmetries of the squared Laplacian on flat space.

Everything is computed in exact rational arithmetic: polynomial rings with
distinguished cone variables, Weyl-algebra operators, conformal tensor
calculus, the ambient-space construction of symmetry operators, and
brute-force solvers whose outputs certify the operator identities.
"""

from .exactpoly import (
    Monomial,
    Polynomial,
    Rational,
    VarSpace,
    ambient_space,
    base_space,
    format_rational,
    parse_rational,
    rat,
)
from .linsolve import nullspace, rank
from .tensorcalc import (
    GGDecomposition,
    PairSkewTensor,
    SymAmbientTensor,
    SymTensorField,
    adjoint_embed,
    adjoint_extract,
    ambient_metric_sym,
    bullet_embed,
    bullet_extract,
    counterexample_tensor,
    decompose_gg,
    metric_tensor,
    metric_trace,
    scalar_embed,
    scalar_extract,
    sym_outer,
    symmetrize,
    tracefree_part,
)
from .weylop import (
    DiffOp,
    NotDivisibleError,
    apply,
    bilaplacian,
    commutator,
    compose,
    compose_sum,
    is_symmetry,
    laplacian,
    operator_from_action,
    right_factor,
    right_factor_through_bilaplacian,
    right_factor_through_laplacian,
    symbol_division,
)
from .cktsolve import (
    HilfReport,
    SolutionBasis,
    ckt_residual,
    gckt_residual,
    second_order_symmetry_dimension,
    solve_ckt,
    solve_gckt,
    verify_lemma_hilf,
)
from .ambient import (
    ambient_bilaplacian,
    ambient_laplacian,
    ambient_op_V,
    ambient_op_W,
    ambient_op_gg,
    induce,
    lie_to_ckv,
    preserves_cone_ideal,
    r_polynomial,
    realize_ckt,
    realize_gckt,
    section_frame,
)
from .symalg import (
    CompositionReport,
    CounterexampleReport,
    LieElement,
    SymmetryBasis,
    bilaplacian_weight,
    bracket,
    bullet_product,
    canonical_DV,
    canonical_DW,
    canonical_second_order_family,
    cartan_product,
    counterexample_operator_check,
    dilation_element,
    enumerate_symmetries,
    killing_form,
    laplacian_weight,
    lie_element,
    operator_span_dimension,
    pair_tensor,
    quartic_boundary_polynomial,
    rotation_element,
    so_basis,
    so_basis_element,
    special_conformal_element,
    summand_operator_cases,
    summand_operator_checks,
    translation_element,
    verify_generalstory,
)

__version__ = "0.1.0"
