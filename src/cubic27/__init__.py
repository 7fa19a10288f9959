"""cubic27: exact and numerical tools for the 27 lines on cubic surfaces.

Subpackages by concern: ``perm`` (permutation groups on the 27 labels),
``exact`` (Z[zeta] arithmetic, integer cubic forms, determinants and ranks),
``lines`` (the Fermat line catalog and incidence combinatorics), ``lattice``
(Picard lattice, Coxeter presentations, mod-3 matrix images), ``htrack``
(numerical path tracking), ``monodromy`` (loop orchestration and the
claim-verification suite), ``symverify`` (exact polynomial identities),
``cli`` (command line front end).
"""

__version__ = "0.1.0"
