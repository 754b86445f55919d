"""Exact-arithmetic tools for quasi-filiform nilpotent Lie algebras.

Builds the filiform algebra Q_n and its glued sums N(Q_n, m, r) over exact
rationals, computes derivation algebras two independent ways, checks
automorphism candidates against a closed-form condition battery, and decides
isomorphism of two gluings with verified witnesses.
"""

# The benchmark harness reads qfla.build_quasi.cache_info; every other name
# is imported from the module that defines it.
from .builder import build_quasi  # noqa: F401
