"""Multiple polylogarithms at the sixth root of unity as log-sine expressions.

``li_expand`` writes Li_k(e^{i pi/3}) as an exact Q(i)-linear combination of
canonical log-sine monomials at pi/3, with phase bit 0 in the convention of
``lsizeta.algebra``: each coefficient is i^q times a rational.  It expands
the iterated-integral representation whose u-th factor is

    (A(t_{u+1}) - A(t_u) - i t_{u+1}/2 + i t_u/2)^(k_u - 1) / (k_u - 1)!

over the simplex 0 < t_1 < ... < t_n < pi/3, where A(t) = log|2 sin(t/2)|
vanishes at the endpoint t_{n+1} = pi/3.  Each factor is expanded
multinomially over its summands (three for the last factor, where the
constant t_{n+1} = pi/3 contributes a pi-power with a rational factor 1/3 per
pick), the factors are convolved left to right so the exponents of A(t_u) and
t_u close as soon as factor u is consumed, and the resulting exponent pattern
(l_u powers of t_u, p_u powers of A(t_u)) is the monomial with k'_u equal to
l_u + p_u + 1, signed by the simplex-integral normalization.  A column that
closes with p_u = 0 is reduced away at once by the rule stated in
``lsizeta.algebra``, its next-column term landing on the pending power of
t_{u+1} (sigma = pi/3 after the last factor), so states hold canonical
columns only and the last factor yields canonical monomials.  States hold
integer numerators over the product of 2^e e! lcm(1..k_1 + ... + k_u),
e = k_u - 1, and no powers of i: a state's phase is (-1)^n i^q, q = its
monomial's ``phase``, which the reductions keep.  The expansion is those
numerators over that product times 3^w, each pi^p's 3^p folded in.  The
states after factor u depend on k_1..k_u alone, so those after each inner
factor of the index expanded last are kept in one path, cut back to what the
next one shares: the truncations k, k^(1), ... of one index convolve their
inner factors once.

``zeta_expr`` assembles the zeta value of an admissible index as the
convolution sum over truncations of the index paired with conjugated
truncations of the dual index, a rewriting of the known duality for
polylogarithms at the sixth root of unity into a statement about zeta values;
all w + 1 products are summed in one integer accumulation.  The conjugation
is a sign in the product loop, not a conjugated copy of each truncation.  The
relation matrices read one half of an expansion, so ``zeta_expr`` builds the
real or the imaginary half alone when asked (``multiply`` skips the pairs of
the other); a full expression is one pass over all the pairs, split into its
halves.  Both memoize, the zeta expansions in one memo by index and half: a
weight class of zeta expressions reuses the same truncations, and the zeta
expression of the dual index is the conjugate, the same real half and the
imaginary half negated (see ``zeta_expr``).
The memos last as long as the process: an expansion is cheaper to compute
than to read back from a file, so none is read from disk.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial, lcm

from . import algebra
from .algebra import LsiExpr, imag_part, multiply, real_part
from .indices import Index, dual, truncations

_LI_CACHE: dict[Index, LsiExpr] = {}
_ZETA_CACHE: dict[tuple[Index, int], LsiExpr] = {}  # by index and half
_PREFIX: list[tuple[int, int, dict]] = []  # (part, den, states) per inner factor


@cache
def _inner_factor_terms(e: int):
    # Multinomial expansion of the u-th factor over its 4 summands:
    #   +A(t_{u+1}) | -A(t_u) | -(i/2) t_{u+1} | +(i/2) t_u
    # times 2^e e! / i^(t_next + t_cur), yielding (carry_a, carry_t, a_here,
    # t_here, integer coefficient).
    out = []
    for a_next in range(e + 1):
        for a_cur in range(e + 1 - a_next):
            for t_next in range(e + 1 - a_next - a_cur):
                t_cur = e - a_next - a_cur - t_next
                sign = -1 if (a_cur + t_next) % 2 else 1
                coeff = sign * 2 ** (a_next + a_cur) * factorial(e) // (
                    factorial(a_next) * factorial(a_cur)
                    * factorial(t_next) * factorial(t_cur))
                out.append((a_next, t_next, a_cur, t_cur, coeff))
    return tuple(out)


def _convolve(states: dict, terms, big: int) -> dict:
    # One factor: close column u of every state with each term, the states'
    # numerators scaled by big, a multiple of every k that can close here.
    new: dict[tuple, int] = {}
    for (carry_a, carry_t, ks, ls), coeff in states.items():
        coeff *= big
        for a_next, t_next, a_cur, t_cur, c in terms:
            l, v = carry_t + t_cur, coeff * c
            if carry_a + a_cur:
                key = (a_next, t_next, ks + (carry_a + a_cur + l + 1,), ls + (l,))
                new[key] = new.get(key, 0) + v
                continue
            k = l + 1  # reduced: -1/k onto t_{u+1}, +1/k into the previous column
            v //= k
            key = (a_next, t_next + k, ks, ls)
            new[key] = new.get(key, 0) - v
            if ks:
                key = (a_next, t_next, ks[:-1] + (ks[-1] + k,), ls[:-1] + (ls[-1] + k,))
                new[key] = new.get(key, 0) + v
    return new


def _inner_states(parts: tuple[int, ...]) -> tuple[int, dict]:
    """(den, states) after the inner factors ``parts``: state (pending A(t_{u+1}),
    pending t_{u+1}, ks, ls of the closed columns) -> integer numerator over
    den.  A column closing with no A-factor is reduced away as it closes (the
    rule of ``lsizeta.algebra``), so the closed columns are canonical."""
    j = 0
    while j < min(len(parts), len(_PREFIX)) and _PREFIX[j][0] == parts[j]:
        j += 1
    del _PREFIX[j:]  # the path now holds the prefixes that parts shares
    den, states = _PREFIX[-1][1:] if _PREFIX else (1, {(0, 0, (), ()): 1})
    w = sum(parts[:j])
    for ku in parts[j:]:
        w += ku
        big = lcm(*range(1, w + 1))  # a closing column's k is at most the weight so far
        den *= 2 ** (ku - 1) * factorial(ku - 1) * big
        states = _convolve(states, _inner_factor_terms(ku - 1), big)
        _PREFIX.append((ku, den, states))
    return den, states


def _li_expand_uncached(k: Index) -> LsiExpr:
    n, w = k.depth, k.weight
    if n == 0:
        return LsiExpr.unit()
    den, states = _inner_states(k.parts[:-1])
    e = k.parts[-1] - 1
    big = lcm(*range(1, w + 1))
    den *= 2 ** e * factorial(e) * big
    # A(t_{n+1}) = 0, and the pending power p of t_{n+1} = sigma = pi/3 is
    # pi^p / 3^p: over den 3^w the numerator takes 3^(w - p)
    last = tuple(term for term in _inner_factor_terms(e) if not term[0])
    terms, pow3 = {}, [3 ** (w - p) for p in range(w + 1)]
    for (_, p, ks, ls), num in _convolve(states, last, big).items():
        if num:
            # The stripped phases multiply to i^(pi + sum l); with i^n from dt
            # and (-1)^n from the Ls sign the coefficient is (-1)^n i^q num/den,
            # q = n + pi + sum l of the raw monomial, which the reductions keep
            # as m's phase.  At phase bit 0 its rational is (-1)^(n + q // 2) num/den.
            m = algebra._MONOMIALS[p, ks, ls]
            terms[m] = (-num if (n + m.phase // 2) % 2 else num) * pow3[p]
    return LsiExpr(terms, 0, den * 3 ** w)


def li_expand(k: Index) -> LsiExpr:
    """Canonical log-sine expansion of Li_k at e^{i pi/3}; any index allowed."""
    e = _LI_CACHE.get(k)
    if e is None:
        e = _LI_CACHE[k] = _li_expand_uncached(k)
    return e


def zeta_expr(k: Index, half: int | None = None) -> LsiExpr:
    """Log-sine expression of zeta(k) for an admissible index k.

    Weight-homogeneous of weight |k|; its real part is the log-sine integral
    expression of the zeta value and its imaginary part vanishes numerically,
    yielding a relation among log-sine monomials.  ``half`` = 0 or 1 gives
    only the real or the imaginary half, as ``real_part`` or ``imag_part``
    returns it.  The full expression is built in one pass and memoized as
    its two halves; a later call joins them.

    It is sum_m Li_{k_m} * conj Li_{kd_(w-m)} over the truncations of k and
    its dual kd, so zeta_expr(kd) == conjugate(zeta_expr(k)) exactly; a memo
    miss whose dual's half is memoized takes that half, negated if imaginary.
    """
    if not k.admissible:
        raise ValueError(f"zeta expression requires an admissible index, got {k}")
    kd, halves = dual(k), (0, 1) if half is None else (half,)
    for h in halves:
        if (k, h) not in _ZETA_CACHE and (e := _ZETA_CACHE.get((kd, h))) is not None:
            _ZETA_CACHE[k, h] = -e if h else e
    missing = [h for h in halves if (k, h) not in _ZETA_CACHE]
    if missing:
        # k's truncations, then kd's: each run shares its inner prefix
        lis = [li_expand(t) for t in truncations(k)]
        duals = [li_expand(t) for t in truncations(kd)]
        first, *rest = zip(lis, reversed(duals))
        e = multiply(*first, *rest, half=missing[0] if len(missing) == 1 else None, conj=True)
        if len(missing) == 2:
            _ZETA_CACHE[k, 0], _ZETA_CACHE[k, 1] = real_part(e), imag_part(e)
            return e
        _ZETA_CACHE[k, missing[0]] = e
    if half is not None:
        return _ZETA_CACHE[k, half]
    re, im = _ZETA_CACHE[k, 0], _ZETA_CACHE[k, 1]
    den = lcm(re.den, im.den)
    return LsiExpr({m: n * (den // x.den) for x in (re, im) for m, n in x._terms.items()},
                   0, den)


def mgl_value(a: int, b: int) -> Fraction:
    """Coefficient of pi^(a+b+2) in Re(i^(a+b+2) Li at index ({1}^a, 2, {1}^b)).

    The expansion collapses to a single pure pi-power monomial; its exact
    coefficient is returned.
    """
    if a < 0 or b < 0:
        raise ValueError("nonnegative integers required")
    k = Index((1,) * a + (2,) + (1,) * b)
    w = a + b + 2
    # i^w times the coefficient r i^(q mod 2) is real where q + w is even
    terms = [(m, r) for m, r in li_expand(k).terms() if (m.phase + w) % 2 == 0]
    if len(terms) != 1 or not terms[0][0].is_pure or terms[0][0].pi_pow != w:
        raise ArithmeticError(f"expected a single pure pi^{w} term, got {terms}")
    return terms[0][1] if w % 4 in (0, 3) else -terms[0][1]


def save_li_cache(path: str) -> int:
    """Write each memoized expansion to ``path`` as one JSON line
    ``["<index>", expr_to_json(e)]``; returns how many.  The benchmark's prime
    step is its only caller: nothing in ``lsizeta`` reads the file."""
    import json

    from .serialize import expr_to_json

    with open(path, "w") as fh:
        for k, e in _LI_CACHE.items():
            fh.write(json.dumps([str(k), expr_to_json(e)], separators=(",", ":")) + "\n")
    return len(_LI_CACHE)


def clear_caches() -> None:
    """Empty the memos and algebra tables."""
    algebra.clear_caches()
    _LI_CACHE.clear()
    _ZETA_CACHE.clear()
    _PREFIX.clear()
