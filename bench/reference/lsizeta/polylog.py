"""Multiple polylogarithms at the sixth root of unity as log-sine expressions.

``li_expand`` writes Li_k(e^{i pi/3}) as an exact Q(i)-linear combination of
canonical log-sine monomials at pi/3.  It expands the iterated-integral
representation whose u-th factor is

    (A(t_{u+1}) - A(t_u) - i t_{u+1}/2 + i t_u/2)^(k_u - 1) / (k_u - 1)!

over the simplex 0 < t_1 < ... < t_n < pi/3, where A(t) = log|2 sin(t/2)|
vanishes at the endpoint t_{n+1} = pi/3.  Each factor is expanded
multinomially over its summands (three for the last factor, where the
constant t_{n+1} = pi/3 contributes a pi-power with a rational factor 1/3 per
pick), the factors are convolved left to right so the exponents of A(t_u) and
t_u close as soon as factor u is consumed, and the resulting exponent pattern
(l_u powers of t_u, p_u powers of A(t_u)) is the monomial with k'_u equal to
l_u + p_u + 1, signed by the simplex-integral normalization.

``zeta_expr`` assembles the zeta value of an admissible index as the
convolution sum over truncations of the index paired with conjugated
truncations of the dual index, a rewriting of the known duality for
polylogarithms at the sixth root of unity into a statement about zeta values.
Both functions memoize aggressively: a weight class of zeta expressions reuses
the same truncated expansions over and over.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .algebra import LsiExpr, LsiMonomial, canonicalize, conjugate, multiply, real_part
from .gaussian import GaussianRational, i_power
from .indices import Index, dual, truncate

_LI_CACHE: dict[Index, LsiExpr] = {}
_ZETA_CACHE: dict[Index, LsiExpr] = {}
_LOCK = threading.Lock()


@dataclass(frozen=True)
class PolylogExpansion:
    """An index paired with its canonical log-sine expansion."""

    index: Index
    expr: LsiExpr

    def __post_init__(self):
        if any(m.weight != self.index.weight for m in self.expr.monomials()):
            raise ValueError("expansion is not weight-homogeneous with its index")


def _inner_factor_terms(e: int):
    # Multinomial expansion of the u-th factor (u < n) over its 4 summands:
    #   +A(t_{u+1}) | -A(t_u) | -(i/2) t_{u+1} | +(i/2) t_u
    # yielding (carry_a, carry_t, a_here, t_here, coefficient).
    out = []
    for a_next in range(e + 1):
        for a_cur in range(e + 1 - a_next):
            for t_next in range(e + 1 - a_next - a_cur):
                t_cur = e - a_next - a_cur - t_next
                sign = -1 if (a_cur + t_next) % 2 else 1
                mag = Fraction(sign, 2 ** (t_next + t_cur)
                               * factorial(a_next) * factorial(a_cur)
                               * factorial(t_next) * factorial(t_cur))
                coeff = i_power(t_next + t_cur).scale(mag)
                out.append((a_next, t_next, a_cur, t_cur, coeff))
    return out


def _last_factor_terms(e: int):
    # Last factor: A(t_{n+1}) vanishes and t_{n+1} = pi/3 is constant, so the
    # summands are -A(t_n), +(i/2) t_n and -(i/6) pi.  Yields
    # (pi_picks, a_here, t_here, coefficient).
    out = []
    for a_cur in range(e + 1):
        for t_cur in range(e + 1 - a_cur):
            c_pi = e - a_cur - t_cur
            sign = -1 if (a_cur + c_pi) % 2 else 1
            mag = Fraction(sign, 2 ** t_cur * 6 ** c_pi
                           * factorial(a_cur) * factorial(t_cur) * factorial(c_pi))
            coeff = i_power(t_cur + c_pi).scale(mag)
            out.append((c_pi, a_cur, t_cur, coeff))
    return out


def _li_expand_uncached(k: Index) -> LsiExpr:
    n = k.depth
    if n == 0:
        return LsiExpr.unit()
    # state key: (pending A(t_{u+1}) picks, pending t_{u+1} picks, pi-power,
    #             finished (k', l) columns)
    states: dict[tuple, GaussianRational] = {(0, 0, 0, ()): GaussianRational.of(1)}
    for u, ku in enumerate(k.parts):
        last = u == n - 1
        terms = _last_factor_terms(ku - 1) if last else _inner_factor_terms(ku - 1)
        new: dict[tuple, GaussianRational] = {}
        for (carry_a, carry_t, pi, cols), coeff in states.items():
            for term in terms:
                if last:
                    c_pi, a_cur, t_cur, c = term
                    p = carry_a + a_cur
                    l = carry_t + t_cur
                    key = (0, 0, pi + c_pi, cols + ((p + l + 1, l),))
                else:
                    a_next, t_next, a_cur, t_cur, c = term
                    p = carry_a + a_cur
                    l = carry_t + t_cur
                    key = (a_next, t_next, pi, cols + ((p + l + 1, l),))
                v = coeff * c
                s = new.get(key)
                new[key] = v if s is None else s + v
        states = new
    front = i_power(n).scale(Fraction((-1) ** n))  # i^n from dt, (-1)^n from Ls sign
    acc: dict[LsiMonomial, GaussianRational] = {}
    for (_, _, pi, cols), coeff in states.items():
        m = LsiMonomial(pi, tuple(c[0] for c in cols), tuple(c[1] for c in cols))
        v = coeff * front
        s = acc.get(m)
        acc[m] = v if s is None else s + v
    return canonicalize(LsiExpr(acc))


def li_expand(k: Index) -> LsiExpr:
    """Canonical log-sine expansion of Li_k at e^{i pi/3}; any index allowed."""
    e = _LI_CACHE.get(k)
    if e is None:
        with _LOCK:
            e = _LI_CACHE.get(k)
            if e is None:
                e = _li_expand_uncached(k)
                _LI_CACHE[k] = e
    return e


def polylog_expansion(k: Index) -> PolylogExpansion:
    """The expansion of Li_k bundled with its index."""
    return PolylogExpansion(k, li_expand(k))


def zeta_expr(k: Index) -> LsiExpr:
    """Log-sine expression of zeta(k) for an admissible index k.

    Weight-homogeneous of weight |k|; its real part is the log-sine integral
    expression of the zeta value and its imaginary part vanishes numerically,
    yielding a relation among log-sine monomials.
    """
    if not k.admissible:
        raise ValueError(f"zeta expression requires an admissible index, got {k}")
    e = _ZETA_CACHE.get(k)
    if e is not None:
        return e
    w = k.weight
    kd = dual(k)
    total = LsiExpr.zero()
    for m in range(w + 1):
        left = li_expand(truncate(k, m))
        right = conjugate(li_expand(truncate(kd, w - m)))
        total = total + multiply(left, right)
    with _LOCK:
        _ZETA_CACHE[k] = total
    return total


def mgl_value(a: int, b: int) -> Fraction:
    """Coefficient of pi^(a+b+2) in Re(i^(a+b+2) Li at index ({1}^a, 2, {1}^b)).

    The expansion collapses to a single pure pi-power monomial; its exact
    coefficient is returned.
    """
    if a < 0 or b < 0:
        raise ValueError("nonnegative integers required")
    k = Index((1,) * a + (2,) + (1,) * b)
    w = a + b + 2
    e = real_part(li_expand(k).scaled(i_power(w)))
    terms = e.terms()
    if len(terms) != 1 or not terms[0][0].is_pure or terms[0][0].pi_pow != w:
        raise ArithmeticError(f"expected a single pure pi^{w} term, got {e}")
    return terms[0][1].re


def weight1_proposition_expr(a: int, b: int) -> LsiExpr:
    """Zeta expression of ({1}^(a-1), b+1); every monomial has depth <= 1."""
    if a < 1 or b < 1:
        raise ValueError("positive integers required")
    return zeta_expr(Index((1,) * (a - 1) + (b + 1,)))


# ---------------------------------------------------------------------------
# optional on-disk persistence of the expansion cache (used by the CLI via
# the LSI_CACHE_DIR environment variable)

def save_li_cache(path: str) -> int:
    """Write the memoized expansions to ``path`` as JSON; returns the count."""
    from .serialize import expr_to_json

    with _LOCK:
        payload = {str(k): expr_to_json(e) for k, e in _LI_CACHE.items()}
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return len(payload)


def load_li_cache(path: str) -> int:
    """Merge expansions previously saved with ``save_li_cache``."""
    from .serialize import expr_from_json

    with open(path) as fh:
        payload = json.load(fh)
    loaded = {Index.parse(key): expr_from_json(data) for key, data in payload.items()}
    with _LOCK:
        _LI_CACHE.update(loaded)
    return len(loaded)


def clear_caches() -> None:
    with _LOCK:
        _LI_CACHE.clear()
        _ZETA_CACHE.clear()
