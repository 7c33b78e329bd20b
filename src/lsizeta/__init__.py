"""Exact log-sine integral algebra at pi/3 and zeta relation discovery.

The package expresses multiple zeta values as exact linear combinations of
iterated log-sine integral monomials at pi/3, with coefficients i^q times
rationals (the phase convention of ``lsizeta.algebra``), mines the vanishing
imaginary parts for linear relations among the monomials, and row-reduces the
resulting rational matrices to recover closed forms, explicit Q-linear zeta
relations and the rank bound l_w on the dimension of each weight class.  A
floating-point oracle verifies every symbolic layer independently.

Every public name below is imported from its submodule on first use, so
``import lsizeta`` loads no submodule and each CLI command loads only the
modules it runs; numpy comes with ``lsizeta.relations`` and
``lsizeta.oracle``.
"""

import importlib

_EXPORTS = {
    **dict.fromkeys(["LsiExpr", "LsiMonomial", "MonomialBasis", "build_basis", "canonicalize",
                     "conjugate", "imag_part", "multiply", "real_part", "reduce_at", "shuffle"],
                    "algebra"),
    **dict.fromkeys(["Index", "dedupe_by_duality", "dual", "enumerate_admissible", "truncate"],
                    "indices"),
    **dict.fromkeys(["bernoulli_number", "check_ccs_identity", "eval_A", "eval_expr", "eval_ls",
                     "eval_mzv", "euler_even_zeta"], "oracle"),
    **dict.fromkeys(["li_expand", "mgl_value", "zeta_expr"], "polylog"),
    **dict.fromkeys(["MzvRelation", "RationalMatrix", "compute_lk", "im_matrix",
                     "inject_cr_relation", "ls_relations_for", "mzv_relations", "re_matrix",
                     "reduce_mzv_matrix", "reduce_real_expr"], "relations"),
}


def __getattr__(name: str):
    # PEP 562; any other name, a submodule's included, stays an AttributeError
    # so that ``from lsizeta import relations`` imports the submodule
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)
