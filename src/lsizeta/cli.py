"""Command-line interface.

Commands mirror the library operations one-to-one:

    lsi dual 3,2                  dual index
    lsi trunc 2,3 2               m-fold truncation
    lsi shuffle 1,3:0,1 2:1       shuffle product of two monomials
    lsi reduce 2,1,3:1,0,1        canonical form (use --at J for one step)
    lsi li 1,3                    polylogarithm expansion at e^{i pi/3}
    lsi zeta 3                    zeta expression over log-sine monomials
    lsi basis 5 odd               monomial basis of a weight/parity class
    lsi relations 5               independent zeta relations at a weight
    lsi lk 6                      table of rank bounds l_w for w = 2..W
    lsi verify 4                  numeric cross-check of the symbolic layer

Index literals are written as indices print: comma-separated positive
integers without blanks or signs (``1,3``), or ``phi``.  Monomial literals
are ``k-list:l-list`` with an optional pi-power flag (``--pi 2``); their
integers, like those of the integer arguments, are written as they print
(``3``, ``-3``; not ``+3``, ``03`` or ``1_3``).  Results go to stdout, in
the ``--format {text,json,latex}`` of any command but ``verify``.
``--max-weight`` (default 8, at most 12) caps the weight of ``relations``,
``lk`` and ``verify`` alone; ``--precision`` (default 1e-8) is ``verify``'s,
a float literal without underscores or blanks around it.  ``verify`` pairs
each index with its dual, expanding one and conjugating that for the other.
Weights of 8 and above are long-running: there ``relations`` and ``lk``
report each expanded zeta row as ``expanded i/n (weight w)`` on stderr,
through the ``lsizeta`` logger.  Errors go to stderr as one JSON line
``{"error": ...}``: exit 2 for a usage error or an out-of-range option,
exit 1 when a command rejects its input or fails (``verify`` prints its check
lines first), or when stdout is closed before the result is written.

Each command imports only the modules it runs: ``dual`` and ``trunc`` need
``lsizeta.indices`` alone, ``shuffle``, ``reduce`` and ``basis`` add
``lsizeta.algebra``, ``li`` and ``zeta`` ``lsizeta.polylog``, and
``relations``, ``lk`` and ``verify`` ``lsizeta.relations`` with numpy
(``verify`` also ``lsizeta.oracle``); ``lsizeta.serialize`` comes only for
JSON or LaTeX output, and ``json`` only for those and for an error line.

``LSI_CACHE_DIR`` is ignored: no command reads or writes expansions on disk,
since computing one is cheaper than reading it back.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .indices import Index, dual, enumerate_admissible, truncate


def __getattr__(name: str):
    # PEP 562: the package's names, which this module once bound at import
    # (``cli.zeta_expr``), still resolve, loading their module on first use
    import lsizeta

    if name in lsizeta.__all__:
        return getattr(lsizeta, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _int(text: str) -> int:
    """An integer literal written as the integer prints (``3``, ``-3``); not
    ``+3``, ``03``, ``1_3`` or ``3`` between blanks, which ``int`` also takes."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if str(value) != text:
        raise argparse.ArgumentTypeError(f"malformed integer literal: {text!r}")
    return value


def _float(text: str) -> float:
    """A float literal; not ``1_0e-7`` or ``1e-6`` between blanks, which
    ``float`` also takes and the integer literals refuse."""
    if "_" in text or text != text.strip():
        raise argparse.ArgumentTypeError(f"malformed float literal: {text!r}")
    return float(text)


def _ranged(parse, low, high, name: str):
    """An argparse type: what ``parse`` reads, if it lies in [low, high]."""
    def literal(text: str):
        value = parse(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"{name} must lie in [{low:g}, {high:g}]")
        return value
    return literal


def _parse_monomial(text: str, pi_pow: int = 0):
    from .algebra import LsiMonomial

    text = text.strip()
    if not text:
        return LsiMonomial(pi_pow)
    parts = text.split(":")
    if len(parts) > 2:
        raise ValueError(f"malformed monomial literal {text!r}")
    try:
        ks, *ls = (tuple(map(_int, p.split(","))) for p in parts)
        return LsiMonomial(pi_pow, ks, ls[0] if ls else (0,) * len(ks))
    except argparse.ArgumentTypeError as exc:
        raise ValueError(str(exc)) from None


def _dumps(data) -> str:
    import json  # only JSON output and error lines need it

    return json.dumps(data)


def _emit_index(k: Index, fmt: str) -> str:
    if fmt == "json":
        return _dumps(k.to_json())
    if fmt == "latex":
        from .serialize import index_latex
        return index_latex(k)
    return str(k)


def _emit_expr(e, fmt: str) -> str:
    if fmt == "text":
        return str(e)
    from . import serialize
    return _dumps(serialize.expr_to_json(e)) if fmt == "json" else serialize.expr_latex(e)


@contextlib.contextmanager
def _progress(w: int):
    # zeta rows of weight 8 and above take long enough to report: each goes
    # to this call's stderr, and the logger is left as it was found.  Only
    # relations and lk report, so the light commands never load logging.
    import logging

    log = logging.getLogger("lsizeta")
    handler, level = logging.StreamHandler(sys.stderr), log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO if w >= 8 else logging.WARNING)
    try:
        yield
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


# ---------------------------------------------------------------------------
# subcommands

def cmd_dual(args) -> str:
    return _emit_index(dual(Index.parse(args.index)), args.format)


def cmd_trunc(args) -> str:
    return _emit_index(truncate(Index.parse(args.index), args.m), args.format)


def cmd_shuffle(args) -> str:
    from .algebra import shuffle

    a = _parse_monomial(args.first, args.pi)
    b = _parse_monomial(args.second, args.pi2)
    return _emit_expr(shuffle(a, b), args.format)


def cmd_reduce(args) -> str:
    from .algebra import LsiExpr, canonicalize, reduce_at

    m = _parse_monomial(args.monomial, args.pi)
    if args.at is not None:
        e = reduce_at(m, args.at)
    else:
        e = canonicalize(LsiExpr.of_monomial(m))
    return _emit_expr(e, args.format)


def cmd_li(args) -> str:
    from .polylog import li_expand

    return _emit_expr(li_expand(Index.parse(args.index)), args.format)


def cmd_zeta(args) -> str:
    from .polylog import zeta_expr

    return _emit_expr(zeta_expr(Index.parse(args.index)), args.format)


def cmd_basis(args) -> str:
    from .algebra import build_basis

    b = build_basis(args.weight, args.parity)
    if args.format == "text":
        return "\n".join(str(m) for m in b.monomials)
    from . import serialize
    if args.format == "json":
        return _dumps(serialize.basis_to_json(b))
    return "\n".join(serialize.monomial_latex(m) for m in b.monomials)


def _check_cap(w: int, args) -> None:
    if w > args.max_weight:
        raise ValueError(f"weight {w} exceeds the configured cap {args.max_weight}")


def cmd_relations(args) -> str:
    from .relations import mzv_relations  # numpy: only the commands that row-reduce load it

    w = args.weight
    _check_cap(w, args)
    with _progress(w):
        rels = mzv_relations(w)
    if args.format == "text":
        return "\n".join(str(r) for r in rels)
    from . import serialize
    if args.format == "json":
        return _dumps([serialize.relation_to_json(r) for r in rels])
    return "\n".join(serialize.relation_latex(r) for r in rels)


def cmd_lk(args) -> str:
    from .relations import compute_lk

    wmax = args.upto
    if wmax < 2:
        raise ValueError(f"weight {wmax} is below 2, the least weight with an l_w")
    _check_cap(wmax, args)
    rows = []
    for w in range(2, wmax + 1):
        with _progress(w):
            rows.append((w, compute_lk(w)))
    if args.format == "json":
        return _dumps([{"weight": w, "lk": v} for w, v in rows])
    if args.format == "latex":
        header = " & ".join(str(w) for w, _ in rows)
        values = " & ".join(str(v) for _, v in rows)
        return f"\\begin{{array}}{{c}} {header} \\\\ {values} \\end{{array}}"
    return "\n".join(f"{w} {v}" for w, v in rows)


def cmd_verify(args) -> tuple[str, str | None]:
    from .algebra import LsiExpr, conjugate
    from .oracle import check_ccs_identity, eval_expr, eval_mzv, euler_even_zeta
    from .polylog import zeta_expr
    from .relations import ls_relations_for

    w, tol = args.weight, args.precision
    _check_cap(w, args)
    lines = []
    failures = 0

    def record(name: str, residual: float):
        nonlocal failures
        ok = residual < tol
        failures += not ok
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: residual {residual:.3e}")

    exprs = {}  # each expression held until its dual's turn takes it
    for k in enumerate_admissible(w):
        kd = dual(k)  # zeta_expr(kd) is conjugate(zeta_expr(k))
        e = conjugate(exprs.pop(kd)) if kd in exprs else exprs.setdefault(k, zeta_expr(k))
        val = eval_expr(e)
        record(f"zeta({k}) symbolic vs series", abs(val.real - eval_mzv(k)))
        record(f"zeta({k}) imaginary part", abs(val.imag))
    rel = ls_relations_for(w)
    for label, row, den in zip(rel.row_labels, rel.nums, rel.dens):
        e = LsiExpr({m: n for m, n in zip(rel.col_labels, row) if n}, 0, den)
        record(f"monomial relation {label}", abs(eval_expr(e)))
    for k in (1, 2, 3):
        record(f"even zeta closed form 2k={2 * k}",
               abs(eval_mzv(Index((2 * k,))) - euler_even_zeta(k)))
    for m in (0, 1):
        record(f"depth-one moment identity m={m}", check_ccs_identity(m))
    return "\n".join(lines), f"{failures} verification failure(s)" if failures else None


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # a usage error becomes a ValueError, reported by main as JSON with exit 2
    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    fmt = _Parser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json", "latex"), default="text")
    cap = _Parser(add_help=False)
    cap.add_argument("--max-weight", type=_ranged(_int, 2, 12, "max weight"), default=8,
                     help="the largest weight relations, lk and verify take (2..12)")

    p = _Parser(prog="lsi", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def sub_parser(name: str, help_text: str, parents=(fmt,)):
        return sub.add_parser(name, help=help_text, parents=parents)

    s = sub_parser("dual", "dual index")
    s.add_argument("index")
    s.set_defaults(func=cmd_dual)

    s = sub_parser("trunc", "m-fold truncation")
    s.add_argument("index")
    s.add_argument("m", type=_int)
    s.set_defaults(func=cmd_trunc)

    s = sub_parser("shuffle", "shuffle product of two monomials")
    s.add_argument("first")
    s.add_argument("second")
    s.add_argument("--pi", type=_int, default=0, help="pi-power of the first monomial")
    s.add_argument("--pi2", type=_int, default=0, help="pi-power of the second monomial")
    s.set_defaults(func=cmd_shuffle)

    s = sub_parser("reduce", "canonicalize a monomial (or one step with --at)")
    s.add_argument("monomial")
    s.add_argument("--pi", type=_int, default=0)
    s.add_argument("--at", type=_int, default=None, help="apply one reduction at position J")
    s.set_defaults(func=cmd_reduce)

    s = sub_parser("li", "polylogarithm expansion at e^{i pi/3}")
    s.add_argument("index")
    s.set_defaults(func=cmd_li)

    s = sub_parser("zeta", "zeta expression over log-sine monomials")
    s.add_argument("index")
    s.set_defaults(func=cmd_zeta)

    s = sub_parser("basis", "canonical monomial basis of a weight")
    s.add_argument("weight", type=_int)
    s.add_argument("parity", choices=("odd", "even"))
    s.set_defaults(func=cmd_basis)

    s = sub_parser("relations", "independent zeta relations at a weight", (fmt, cap))
    s.add_argument("weight", type=_int)
    s.set_defaults(func=cmd_relations)

    s = sub_parser("lk", "rank bounds l_w for w = 2..W", (fmt, cap))
    s.add_argument("upto", type=_int)
    s.set_defaults(func=cmd_lk)

    s = sub_parser("verify", "numeric cross-check at a weight", (cap,))
    s.add_argument("weight", type=_int)
    s.add_argument("--precision", type=_ranged(_float, 1e-12, 1e-4, "precision"), default=1e-8,
                   help="the residual each verify check must stay below (1e-12..1e-4)")
    s.set_defaults(func=cmd_verify)
    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except ValueError as exc:
        print(_dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    try:
        out = args.func(args)
    except ValueError as exc:
        print(_dumps({"error": str(exc)}), file=sys.stderr)
        return 1
    out, error = out if isinstance(out, tuple) else (out, None)
    try:
        print(out, flush=True)
    except BrokenPipeError as exc:
        # the reader has gone (``lsi basis 9 odd | head -2``): send what is
        # left to devnull so that the exit-time flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        error = f"stdout closed: {exc}"
    if error:
        print(_dumps({"error": error}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
