"""Exact higher symmetries of the squared Laplacian on flat space.

Everything is computed in exact rational arithmetic: polynomial rings with
distinguished cone variables, Weyl-algebra operators, conformal tensor
calculus, the ambient-space construction of symmetry operators, and
brute-force solvers whose outputs certify the operator identities.  Each
name is imported from the module that defines it, e.g.
``from bilapsym.symalg import enumerate_symmetries``.
"""

__version__ = "0.1.0"
