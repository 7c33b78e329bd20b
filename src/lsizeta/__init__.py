"""Exact log-sine integral algebra at pi/3 and zeta relation discovery.

The package expresses multiple zeta values as exact linear combinations of
iterated log-sine integral monomials at pi/3, with coefficients i^q times
rationals (the phase convention of ``lsizeta.algebra``), mines the vanishing
imaginary parts for linear relations among the monomials, and row-reduces the
resulting rational matrices to recover closed forms, explicit Q-linear zeta
relations and the rank bound l_w on the dimension of each weight class.  A
floating-point oracle verifies every symbolic layer independently.

The names from ``lsizeta.relations``, which loads numpy, are imported on
first use, so ``import lsizeta`` and the commands that never row-reduce
start without numpy.
"""

from .algebra import (
    LsiExpr,
    LsiMonomial,
    MonomialBasis,
    build_basis,
    canonicalize,
    conjugate,
    imag_part,
    multiply,
    real_part,
    reduce_at,
    shuffle,
)
from .indices import Index, dedupe_by_duality, dual, enumerate_admissible, truncate
from .oracle import (
    NumericConfig,
    bernoulli_number,
    check_ccs_identity,
    eval_A,
    eval_expr,
    eval_ls,
    eval_mzv,
    euler_even_zeta,
)
from .polylog import li_expand, mgl_value, zeta_expr

_RELATIONS = {"MzvRelation", "RationalMatrix", "compute_lk", "im_matrix", "inject_cr_relation",
              "ls_relations_for", "mzv_relations", "re_matrix", "reduce_mzv_matrix",
              "reduce_real_expr"}


def __getattr__(name: str):
    # PEP 562; any other name, a submodule's included, stays an AttributeError
    # so that ``from lsizeta import relations`` imports the submodule
    if name in _RELATIONS:
        from . import relations
        return getattr(relations, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__version__ = "0.1.0"

__all__ = [
    "Index",
    "LsiExpr",
    "LsiMonomial",
    "MonomialBasis",
    "MzvRelation",
    "NumericConfig",
    "RationalMatrix",
    "bernoulli_number",
    "build_basis",
    "canonicalize",
    "check_ccs_identity",
    "compute_lk",
    "conjugate",
    "dedupe_by_duality",
    "dual",
    "enumerate_admissible",
    "eval_A",
    "eval_expr",
    "eval_ls",
    "eval_mzv",
    "euler_even_zeta",
    "im_matrix",
    "imag_part",
    "inject_cr_relation",
    "li_expand",
    "ls_relations_for",
    "mgl_value",
    "multiply",
    "mzv_relations",
    "re_matrix",
    "real_part",
    "reduce_at",
    "reduce_mzv_matrix",
    "reduce_real_expr",
    "shuffle",
    "truncate",
    "zeta_expr",
]
