"""Exact computational models of Heisenberg p-groups and their Weil representations.

Everything is computed over the cyclotomic field Q(zeta_N) with N = lcm(4, p),
using exact rational arithmetic throughout.  The subpackages split along the
main objects:

- ``groups``       the finite-group core: Cayley tables, closure, extend_hom
- ``scalar``       exact cyclotomic numbers, roots of unity, Gauss sums
- ``linalg``       exact matrices and stacks of them, the one packed kernel
- ``symplectic``   symplectic spaces over F_p, polarizations, Sp(W) as
                   stacked matrices and its indexed table
- ``heisenberg``   the group W x| F_p, special isomorphisms, involutions
- ``reps``         Heisenberg representations, invariant forms, Hom dimensions
- ``weil``         the Weil lift of a Heisenberg representation to Sp x| H
- ``mackey``       induced representations and twisted-involution bookkeeping
                   for generic finite groups given by multiplication tables
- ``prounipotent`` square roots and vanishing first cohomology in congruence
                   subgroups of GL_n(Z/p^K)
- ``checks``       Check, the one result type of every verification
- ``suites``       the verification suites, one Check per named identity family
- ``cli``          the ``heisweil`` command-line driver
"""

from heisweil.scalar import CycNumber, gauss_sum, root_of_unity

__all__ = ["CycNumber", "gauss_sum", "root_of_unity"]
