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

Index literals are comma-separated positive integers (``1,3``); monomial
literals are ``k-list:l-list`` with an optional pi-power flag (``--pi 2``).
Output format is selected with ``--format {text,json,latex}``; results go to
stdout.  ``--max-weight`` (default 8, at most 12) caps the weight of
``relations``, ``lk`` and ``verify`` only.  Weights of 8 and above are
long-running: there ``relations`` and ``lk`` report each expanded zeta row as
``expanded i/n (weight w)`` on stderr, through the ``lsizeta`` logger.
Errors go to stderr as one JSON line ``{"error": ...}``: exit 2 for a usage
error or a bad setting, exit 1 when a command rejects its input or fails.

If ``LSI_CACHE_DIR`` is set, the polylogarithm expansions persist between
runs in ``$LSI_CACHE_DIR/li_cache.json``, one JSON line each (layout in
``lsizeta.polylog``).  A command reads the file only when it needs an
expansion it has not computed, and decodes only those lines, so ``dual``,
``trunc``, ``shuffle``, ``reduce`` and ``basis`` never open it.  After
printing its result it appends, in one write, the expansions the file lacked.
A rejected file or line (another format, a bad key, a failed checksum as of a
torn line, a failed weight or phase check) costs one stderr line and is
recomputed, so stdout never changes; a missing or rejected file is written
anew.  An ``LSI_CACHE_DIR`` that is not a directory is a JSON error, exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import dataclass

from . import serialize
from .algebra import LsiExpr, LsiMonomial, build_basis, canonicalize, reduce_at, shuffle
from .indices import Index, dual, enumerate_admissible, truncate
from .oracle import NumericConfig, check_ccs_identity, eval_expr, eval_mzv, euler_even_zeta
from .polylog import li_expand, save_li_cache, use_li_cache, zeta_expr


@dataclass
class CliConfig:
    max_weight: int = 8
    precision: float = 1e-8
    output_format: str = "text"

    def validate(self):
        if not 2 <= self.max_weight <= 12:
            raise ValueError("max weight must lie in [2, 12]")
        if not 1e-12 <= self.precision <= 1e-4:
            raise ValueError("precision must lie in [1e-12, 1e-4]")
        if self.output_format not in ("text", "json", "latex"):
            raise ValueError(f"unknown output format {self.output_format!r}")


class CliError(Exception):
    pass


def _parse_monomial(text: str, pi_pow: int = 0) -> LsiMonomial:
    text = text.strip()
    if not text:
        return LsiMonomial(pi_pow)
    parts = text.split(":")
    if len(parts) == 1:
        ks = tuple(int(x) for x in parts[0].split(","))
        ls = (0,) * len(ks)
    elif len(parts) == 2:
        ks = tuple(int(x) for x in parts[0].split(","))
        ls = tuple(int(x) for x in parts[1].split(","))
    else:
        raise CliError(f"malformed monomial literal {text!r}")
    try:
        return LsiMonomial(pi_pow, ks, ls)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _parse_index(text: str) -> Index:
    try:
        return Index.parse(text)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _emit_expr(e: LsiExpr, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(serialize.expr_to_json(e))
    if fmt == "latex":
        return serialize.expr_latex(e)
    return str(e)


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

def cmd_dual(args, cfg: CliConfig) -> str:
    k = dual(_parse_index(args.index))
    if cfg.output_format == "json":
        return json.dumps(k.to_json())
    if cfg.output_format == "latex":
        return serialize.index_latex(k)
    return str(k)


def cmd_trunc(args, cfg: CliConfig) -> str:
    k = truncate(_parse_index(args.index), args.m)
    if cfg.output_format == "json":
        return json.dumps(k.to_json())
    if cfg.output_format == "latex":
        return serialize.index_latex(k)
    return str(k)


def cmd_shuffle(args, cfg: CliConfig) -> str:
    a = _parse_monomial(args.first, args.pi)
    b = _parse_monomial(args.second, args.pi2)
    return _emit_expr(shuffle(a, b), cfg.output_format)


def cmd_reduce(args, cfg: CliConfig) -> str:
    m = _parse_monomial(args.monomial, args.pi)
    if args.at is not None:
        e = reduce_at(m, args.at)
    else:
        e = canonicalize(LsiExpr.of_monomial(m))
    return _emit_expr(e, cfg.output_format)


def cmd_li(args, cfg: CliConfig) -> str:
    return _emit_expr(li_expand(_parse_index(args.index)), cfg.output_format)


def cmd_zeta(args, cfg: CliConfig) -> str:
    return _emit_expr(zeta_expr(_parse_index(args.index)), cfg.output_format)


def cmd_basis(args, cfg: CliConfig) -> str:
    b = build_basis(args.weight, args.parity)
    if cfg.output_format == "json":
        return json.dumps(serialize.basis_to_json(b))
    if cfg.output_format == "latex":
        return "\n".join(serialize.monomial_latex(m) for m in b.monomials)
    return "\n".join(str(m) for m in b.monomials)


def cmd_relations(args, cfg: CliConfig) -> str:
    w = args.weight
    if w > cfg.max_weight:
        raise CliError(f"weight {w} exceeds the configured cap {cfg.max_weight}")
    from .relations import mzv_relations  # numpy: only the commands that row-reduce load it
    with _progress(w):
        rels = mzv_relations(w)
    if cfg.output_format == "json":
        return json.dumps([serialize.relation_to_json(r) for r in rels])
    if cfg.output_format == "latex":
        return "\n".join(serialize.relation_latex(r) for r in rels)
    return "\n".join(str(r) for r in rels)


def cmd_lk(args, cfg: CliConfig) -> str:
    wmax = args.upto
    if wmax < 2:
        raise CliError(f"weight {wmax} is below 2, the least weight with an l_w")
    if wmax > cfg.max_weight:
        raise CliError(f"weight {wmax} exceeds the configured cap {cfg.max_weight}")
    from .relations import compute_lk
    rows = []
    for w in range(2, wmax + 1):
        with _progress(w):
            rows.append((w, compute_lk(w)))
    if cfg.output_format == "json":
        return json.dumps([{"weight": w, "lk": v} for w, v in rows])
    if cfg.output_format == "latex":
        header = " & ".join(str(w) for w, _ in rows)
        values = " & ".join(str(v) for _, v in rows)
        return f"\\begin{{array}}{{c}} {header} \\\\ {values} \\end{{array}}"
    return "\n".join(f"{w} {v}" for w, v in rows)


def cmd_verify(args, cfg: CliConfig) -> str:
    w = args.weight
    if w > cfg.max_weight:
        raise CliError(f"weight {w} exceeds the configured cap {cfg.max_weight}")
    ncfg = NumericConfig(abs_tolerance=cfg.precision,
                         max_depth=max(3, (w + 1) // 2))
    lines = []
    failures = 0

    def record(name: str, residual: float, tol: float):
        nonlocal failures
        ok = residual < tol
        failures += not ok
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: residual {residual:.3e}")

    for k in enumerate_admissible(w):
        e = zeta_expr(k)
        val = eval_expr(e, ncfg)
        record(f"zeta({k}) symbolic vs series", abs(val.real - eval_mzv(k, ncfg)), cfg.precision)
        record(f"zeta({k}) imaginary part", abs(val.imag), cfg.precision)
    from .relations import ls_relations_for
    rel = ls_relations_for(w)
    for i, row in enumerate(rel.rows):
        e = LsiExpr(dict(zip(rel.col_labels, row)))
        record(f"monomial relation {rel.row_labels[i]}", abs(eval_expr(e, ncfg)), cfg.precision)
    for k in (1, 2, 3):
        record(f"even zeta closed form 2k={2 * k}",
               abs(eval_mzv(Index((2 * k,)), ncfg) - euler_even_zeta(k)), cfg.precision)
    for m in (0, 1):
        _, residual = check_ccs_identity(m, ncfg)
        record(f"depth-one moment identity m={m}", residual, cfg.precision)
    out = "\n".join(lines)
    if failures:
        raise CliError(f"{failures} verification failure(s)\n{out}")
    return out


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # a usage error becomes a ValueError, reported by main as JSON with exit 2
    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "latex"), default="text")
    common.add_argument("--max-weight", type=int, default=8,
                        help="weight cap for relations, lk and verify (2..12)")
    common.add_argument("--precision", type=float, default=1e-8,
                        help="numeric verification tolerance (1e-12..1e-4)")

    p = _Parser(prog="lsi", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def sub_parser(name: str, help_text: str):
        return sub.add_parser(name, help=help_text, parents=[common])

    s = sub_parser("dual", "dual index")
    s.add_argument("index")
    s.set_defaults(func=cmd_dual)

    s = sub_parser("trunc", "m-fold truncation")
    s.add_argument("index")
    s.add_argument("m", type=int)
    s.set_defaults(func=cmd_trunc)

    s = sub_parser("shuffle", "shuffle product of two monomials")
    s.add_argument("first")
    s.add_argument("second")
    s.add_argument("--pi", type=int, default=0, help="pi-power of the first monomial")
    s.add_argument("--pi2", type=int, default=0, help="pi-power of the second monomial")
    s.set_defaults(func=cmd_shuffle)

    s = sub_parser("reduce", "canonicalize a monomial (or one step with --at)")
    s.add_argument("monomial")
    s.add_argument("--pi", type=int, default=0)
    s.add_argument("--at", type=int, default=None, help="apply one reduction at position J")
    s.set_defaults(func=cmd_reduce)

    s = sub_parser("li", "polylogarithm expansion at e^{i pi/3}")
    s.add_argument("index")
    s.set_defaults(func=cmd_li)

    s = sub_parser("zeta", "zeta expression over log-sine monomials")
    s.add_argument("index")
    s.set_defaults(func=cmd_zeta)

    s = sub_parser("basis", "canonical monomial basis of a weight")
    s.add_argument("weight", type=int)
    s.add_argument("parity", choices=("odd", "even"))
    s.set_defaults(func=cmd_basis)

    s = sub_parser("relations", "independent zeta relations at a weight")
    s.add_argument("weight", type=int)
    s.set_defaults(func=cmd_relations)

    s = sub_parser("lk", "rank bounds l_w for w = 2..W")
    s.add_argument("upto", type=int)
    s.set_defaults(func=cmd_lk)

    s = sub_parser("verify", "numeric cross-check at a weight")
    s.add_argument("weight", type=int)
    s.set_defaults(func=cmd_verify)
    return p


def _cache_file() -> str | None:
    cache_dir = os.environ.get("LSI_CACHE_DIR")
    if not cache_dir:
        return None
    if os.path.exists(cache_dir) and not os.path.isdir(cache_dir):
        raise ValueError(f"LSI_CACHE_DIR is not a directory: {cache_dir}")
    return os.path.join(cache_dir, "li_cache.json")


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = CliConfig(max_weight=args.max_weight, precision=args.precision,
                        output_format=args.format)
        cfg.validate()
        cache = _cache_file()
    except ValueError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    use_li_cache(cache)
    try:
        out = args.func(args, cfg)
    except (CliError, ValueError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
    print(out)
    if cache:
        try:
            save_li_cache(cache)
        except OSError as exc:
            print(f"could not persist cache: {exc}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
