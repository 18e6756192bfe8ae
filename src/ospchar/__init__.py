"""Exact computation and cross-verification of classical (super)group characters.

The package computes characters of general linear, symplectic,
orthosymplectic and odd symplectic type by mutually independent routes
(tableau enumeration, Jacobi-Trudi determinants, alternant quotients, and
bordered determinants), over exact multivariate Laurent arithmetic, and
machine-checks that the routes agree.
"""

from .algebra import (
    AlgebraError,
    ExactDivisionError,
    LaurentPolynomial,
    VariableMismatchError,
    VariableSet,
    det_cofactor,
    exact_div,
)
from .symfun import (
    Partition,
    box_partitions,
    k_index,
    partitions_of,
    partitions_up_to,
    skew_schur_jt,
    subpartitions,
)
from .characters import (
    CharacterRequest,
    hook_schur_det,
    hook_schur_jt,
    odd_symplectic_det,
    ortho_det_laurent,
    ortho_det_rational,
    ortho_jt,
    ortho_single_y,
    ortho_sp_schur_sum,
    schur_bialternant,
    standard_x,
    standard_xy,
    symplectic_weyl,
)
from .identities import VerificationReport, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
