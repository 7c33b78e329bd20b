"""JSON and LaTeX emitters for expressions, bases and relations.

The JSON expression format is

    {"terms": [{"pi": m, "k": [...], "l": [...], "re": "p/q", "im": "p/q"}, ...]}

with rationals as exact ``p/q`` strings and terms in the canonical monomial
order, so serialization is byte-stable.  Each term has one nonzero part, "re"
or "im" as the phase convention of ``lsizeta.algebra`` makes it.  Nothing in
the package reads these formats back.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING

from .algebra import LsiExpr, LsiMonomial, MonomialBasis
from .indices import Index

if TYPE_CHECKING:  # relations loads numpy, which no emitter needs
    from .relations import MzvRelation


# ---------------------------------------------------------------------------
# JSON

def expr_to_json(e: LsiExpr) -> dict:
    terms, den, t = [], e.den, e.t
    for m, n in e.numerators():
        g = gcd(n, den)  # str(Fraction(n, den)), without building the Fraction
        c = str(n // g) if g == den else f"{n // g}/{den // g}"
        re, im = ("0", c) if (m.phase + t) & 1 else (c, "0")  # is_imag, inlined for the cache save
        terms.append({"pi": m.pi_pow, "k": list(m.ks), "l": list(m.ls), "re": re, "im": im})
    return {"terms": terms}


def basis_to_json(b: MonomialBasis) -> dict:
    return {"weight": b.weight, "parity": b.parity,
            "monomials": [{"pi": m.pi_pow, "k": list(m.ks), "l": list(m.ls)}
                          for m in b.monomials]}


def relation_to_json(r: MzvRelation) -> dict:
    return {"relation": [{"index": k.to_json(), "coeff": str(c)}
                         for k, c in r.coefficients]}


# ---------------------------------------------------------------------------
# LaTeX

def rational_latex(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q < 0 else ""
    return f"{sign}\\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"


def _coeff_latex(c: Fraction, imag: bool) -> str:
    mag = rational_latex(c)
    if not imag:
        return mag
    return {"1": "i", "-1": "-i"}.get(mag, f"{mag} i")


def monomial_latex(m: LsiMonomial) -> str:
    parts = []
    if m.pi_pow == 1:
        parts.append("\\pi")
    elif m.pi_pow > 1:
        parts.append(f"\\pi^{{{m.pi_pow}}}")
    if m.ks:
        k = ",".join(map(str, m.ks))
        l = ",".join(map(str, m.ls))
        parts.append(f"\\mathrm{{Ls}}_{{{k}}}^{{({l})}}\\left(\\tfrac{{\\pi}}{{3}}\\right)")
    return " ".join(parts) if parts else "1"


def expr_latex(e: LsiExpr) -> str:
    if not e:
        return "0"
    chunks = []
    for m, c in e.terms():
        coeff = _coeff_latex(c, e.is_imag(m))
        mono = monomial_latex(m)
        if mono == "1":
            term = coeff
        elif coeff == "1":
            term = mono
        elif coeff == "-1":
            term = f"-{mono}"
        else:
            term = f"{coeff} {mono}"
        if chunks and not term.startswith("-"):
            chunks.append("+")
        chunks.append(term)
    return " ".join(chunks)


def index_latex(k: Index) -> str:
    return "\\zeta\\left(" + ", ".join(map(str, k.parts)) + "\\right)"


def relation_latex(r: MzvRelation) -> str:
    chunks = []
    for k, c in r.coefficients:
        coeff = rational_latex(c)
        if coeff == "1":
            term = index_latex(k)
        elif coeff == "-1":
            term = f"-{index_latex(k)}"
        else:
            term = f"{coeff} {index_latex(k)}"
        if chunks and not term.startswith("-"):
            chunks.append("+")
        chunks.append(term)
    return " ".join(chunks) + " = 0"
