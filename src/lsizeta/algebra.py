"""Expression algebra for iterated log-sine integrals at pi/3.

The basic symbol is a monomial ``pi^m * Ls_{k1,...,kn}^{(l1,...,ln)}(pi/3)``
carrying a nonnegative pi-power and paired exponent vectors with
``k_u - 1 - l_u >= 0`` at every position (the number of log-factors in the
integrand).  Expressions are finite Q(i)-linear combinations of monomials.

Three rewriting operations generate the whole algebra:

* ``shuffle`` expands a product of two monomials as the sum over all
  interleavings of their column pairs (one term per interleaving),
* ``reduce_at`` eliminates a position with ``k_j - 1 - l_j = 0`` (no
  log-factor), lowering the depth by one; at the boundary positions powers of
  the endpoint sigma = pi/3 appear and are folded into the pi-power with a
  rational factor 3^(-k),
* ``canonicalize`` applies ``reduce_at`` until every surviving monomial has
  ``k_u - 1 - l_u >= 1`` everywhere (or is a pure pi-power).  The result does
  not depend on the order in which positions are eliminated, which the test
  suite checks on random monomials.

``multiply`` is shuffle followed by canonicalization, extended bilinearly; it
is commutative and associative.  Canonical forms and products of monomials
are cached as integer tables (n/d per monomial) keyed by the column vectors,
since the zeta-expression pipeline multiplies the same monomial shapes many
times over.  The kernels sum integer numerators over the lcm of all terms'
denominators and build one ``Fraction`` per output coefficient part; given
several pairs, ``multiply`` sums all their products in that one accumulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Iterator

from .gaussian import GR_ONE, GaussianRational

Cols = tuple[tuple[int, int], ...]
Table = tuple[int, tuple[tuple[tuple, int], ...]]  # n/d per monomial (pi_pow, ks, ls)

_ZERO = Fraction(0)


@dataclass(frozen=True, slots=True)
class LsiMonomial:
    """pi^pi_pow * Ls_ks^ls(pi/3); depth 0 means a pure power of pi."""

    pi_pow: int = 0
    ks: tuple[int, ...] = ()
    ls: tuple[int, ...] = ()

    def __post_init__(self):
        if self.pi_pow < 0:
            raise ValueError("pi power must be nonnegative")
        if len(self.ks) != len(self.ls):
            raise ValueError("exponent vectors must have equal length")
        for k, l in zip(self.ks, self.ls):
            if k < 1 or l < 0 or k - 1 - l < 0:
                raise ValueError(f"invalid exponent pair (k={k}, l={l})")

    @property
    def depth(self) -> int:
        return len(self.ks)

    @property
    def weight(self) -> int:
        return self.pi_pow + sum(self.ks)

    @property
    def parity(self) -> int:
        """Number of log-factors mod 2; a pure pi-power has parity 0."""
        return sum(k - 1 - l for k, l in zip(self.ks, self.ls)) % 2

    @property
    def is_pure(self) -> bool:
        return not self.ks

    @property
    def is_canonical(self) -> bool:
        return all(k - 1 - l >= 1 for k, l in zip(self.ks, self.ls))

    @property
    def phase(self) -> int:
        """q = depth + pi power + sum l.  Every li and zeta expansion has i^q
        times a rational as the coefficient of each of its monomials."""
        return len(self.ks) + self.pi_pow + sum(self.ls)

    def cols(self) -> Cols:
        return tuple(zip(self.ks, self.ls))

    def shifted(self, dpi: int) -> "LsiMonomial":
        return LsiMonomial(self.pi_pow + dpi, self.ks, self.ls) if dpi else self

    def sort_key(self):
        # pi-power ascending first, so pi-divisible columns form a suffix of
        # any basis ordering; then deeper monomials first, then lexicographic.
        return (self.pi_pow, -len(self.ks), self.ks, self.ls)

    def __str__(self) -> str:
        pi = f"pi^{self.pi_pow}*" if self.pi_pow else ""
        if not self.ks:
            return f"pi^{self.pi_pow}" if self.pi_pow else "1"
        k = ",".join(map(str, self.ks))
        l = ",".join(map(str, self.ls))
        return f"{pi}Ls[{k}]^({l})"


def monomial_from_cols(pi_pow: int, cols: Cols) -> LsiMonomial:
    return LsiMonomial(pi_pow, tuple(c[0] for c in cols), tuple(c[1] for c in cols))


class LsiExpr:
    """Immutable finite map monomial -> Gaussian rational, no zero terms."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[LsiMonomial, GaussianRational] | None = None,
                 _trusted: bool = False):
        if terms is None:
            self._terms: dict[LsiMonomial, GaussianRational] = {}
        elif _trusted:
            self._terms = terms
        else:
            self._terms = {m: c for m, c in terms.items() if c}

    @classmethod
    def zero(cls) -> "LsiExpr":
        return cls()

    @classmethod
    def unit(cls) -> "LsiExpr":
        return cls({LsiMonomial(): GR_ONE}, _trusted=True)

    @classmethod
    def of_monomial(cls, m: LsiMonomial, coeff=GR_ONE) -> "LsiExpr":
        c = coeff if isinstance(coeff, GaussianRational) else GaussianRational.of(coeff)
        return cls({m: c})

    def terms(self) -> list[tuple[LsiMonomial, GaussianRational]]:
        """Terms in the canonical monomial order (deterministic)."""
        return sorted(self._terms.items(), key=lambda mc: mc[0].sort_key())

    def coeff(self, m: LsiMonomial) -> GaussianRational:
        return self._terms.get(m, GaussianRational())

    def monomials(self) -> Iterator[LsiMonomial]:
        return iter(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, LsiExpr) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "LsiExpr") -> "LsiExpr":
        out = dict(self._terms)
        for m, c in other._terms.items():
            s = out.get(m)
            s = c if s is None else s + c
            if s:
                out[m] = s
            elif m in out:
                del out[m]
        return LsiExpr(out, _trusted=True)

    def __neg__(self) -> "LsiExpr":
        return LsiExpr({m: -c for m, c in self._terms.items()}, _trusted=True)

    def __sub__(self, other: "LsiExpr") -> "LsiExpr":
        return self + (-other)

    def scaled(self, c) -> "LsiExpr":
        if isinstance(c, GaussianRational):
            if not c:
                return LsiExpr()
            return LsiExpr({m: v * c for m, v in self._terms.items()})
        c = Fraction(c)
        if not c:
            return LsiExpr()
        return LsiExpr({m: v.scale(c) for m, v in self._terms.items()}, _trusted=True)

    def is_weight_homogeneous(self) -> bool:
        weights = {m.weight for m in self._terms}
        return len(weights) <= 1

    def weight(self) -> int | None:
        weights = {m.weight for m in self._terms}
        if len(weights) > 1:
            raise ValueError("expression is not weight-homogeneous")
        return weights.pop() if weights else None

    def max_depth(self) -> int:
        return max((m.depth for m in self._terms), default=0)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"({c})*{m}" for m, c in self.terms())

    __repr__ = __str__


# ---------------------------------------------------------------------------
# shuffle product

def _interleavings(a: Cols, b: Cols) -> list[Cols]:
    n, np = len(a), len(b)
    out = []
    slots = range(n + np)
    for pos in combinations(slots, n):
        cols: list[tuple[int, int]] = [None] * (n + np)  # type: ignore[list-item]
        ia = ib = 0
        posset = set(pos)
        for s in slots:
            if s in posset:
                cols[s] = a[ia]
                ia += 1
            else:
                cols[s] = b[ib]
                ib += 1
        out.append(tuple(cols))
    return out


def shuffle(a: LsiMonomial, b: LsiMonomial) -> LsiExpr:
    """Product of two monomials as the sum over column interleavings.

    Coincident interleavings collect, so e.g. the square of a depth-1 monomial
    comes back with coefficient 2 on the single depth-2 monomial.  Pi-powers
    add onto every term.
    """
    pi = a.pi_pow + b.pi_pow
    acc: dict[LsiMonomial, GaussianRational] = {}
    for cols in _interleavings(a.cols(), b.cols()):
        m = monomial_from_cols(pi, cols)
        s = acc.get(m)
        acc[m] = GR_ONE if s is None else s + GR_ONE
    return LsiExpr(acc, _trusted=True)


# ---------------------------------------------------------------------------
# depth reduction at a position with no log-factor

def _reduce_step(cols: Cols, j: int) -> list[tuple[Fraction, int, Cols]]:
    # One application of the depth-lowering rule at 1-based position j with
    # k_j - 1 - l_j = 0.  Returns (rational factor, pi-power shift, new cols)
    # children; sigma^k at the evaluation point sigma = pi/3 is stored as a
    # pi-power shift k with factor 3^(-k).
    n = len(cols)
    k = cols[j - 1][0]
    if n == 1:
        return [(Fraction(-1, k * 3**k), k, ())]
    if j == 1:
        k2, l2 = cols[1]
        merged = ((k2 + k, l2 + k),) + cols[2:]
        return [(Fraction(-1, k), 0, merged)]
    if j < n:
        km, lm = cols[j - 2]
        kp, lp = cols[j]
        minus = cols[:j - 2] + ((km + k, lm + k),) + cols[j:]
        plus = cols[:j - 1] + ((kp + k, lp + k),) + cols[j + 1:]
        return [(Fraction(1, k), 0, minus), (Fraction(-1, k), 0, plus)]
    km, lm = cols[n - 2]
    minus = cols[:n - 2] + ((km + k, lm + k),)
    dropped = cols[:n - 1]
    return [(Fraction(1, k), 0, minus), (Fraction(-1, k * 3**k), k, dropped)]


def reduce_at(m: LsiMonomial, j: int) -> LsiExpr:
    """Apply the depth-lowering rule to ``m`` at 1-based position ``j``."""
    if not 1 <= j <= m.depth or m.ks[j - 1] - 1 - m.ls[j - 1] != 0:
        raise ValueError(f"reduction not applicable at {j}")
    acc: dict[LsiMonomial, GaussianRational] = {}
    for f, dpi, cols in _reduce_step(m.cols(), j):
        mono = monomial_from_cols(m.pi_pow + dpi, cols)
        c = GaussianRational(f)
        s = acc.get(mono)
        acc[mono] = c if s is None else s + c
    return LsiExpr(acc, _trusted=True)


def _accumulate(terms) -> tuple[int, dict, dict]:
    """Common denominator L and re, im numerators of sum (re + i*im)/den * pi^dpi * table."""
    terms = [(re, im, den * d, dpi, items) for re, im, den, dpi, (d, items) in terms]
    big = lcm(*(t[2] for t in terms))
    acc_re, acc_im = {}, {}
    for re, im, den, dpi, items in terms:
        scale = big // den
        for acc, c in ((acc_re, re * scale), (acc_im, im * scale)):
            if c:
                for (pi, ks, ls), n in items:
                    key = pi + dpi, ks, ls
                    acc[key] = acc.get(key, 0) + c * n
    return big, acc_re, acc_im


def _table(terms) -> Table:
    # the real part of the accumulated terms, reduced by the gcd
    den, acc, _ = _accumulate(terms)
    items = [(m, n) for m, n in acc.items() if n]
    g = gcd(den, *(n for _, n in items))
    return den // g, tuple((m, n // g) for m, n in items)


def _collect(terms) -> LsiExpr:
    den, re, im = _accumulate(terms)
    frac = lambda n: Fraction(n, den) if n else _ZERO
    return LsiExpr({LsiMonomial(*m): GaussianRational(frac(re.get(m, 0)), frac(im.get(m, 0)))
                    for m in {**re, **im}})


def _parts(c: GaussianRational) -> tuple[int, int, int]:
    """(re, im, den) integers with c = (re + i*im)/den."""
    re, im = c.re, c.im
    den = lcm(re.denominator, im.denominator)
    return re.numerator * (den // re.denominator), im.numerator * (den // im.denominator), den


# canonical form of a pi-free monomial given by cols
_CANON_CACHE: dict[tuple[Cols, str], Table] = {}


def _canon_cols(cols: Cols, strategy: str = "leftmost") -> Table:
    cached = _CANON_CACHE.get((cols, strategy))
    if cached is not None:
        return cached
    reducible = [j for j, (k, l) in enumerate(cols, 1) if k - 1 - l == 0]
    if not reducible:
        table = (1, (((0, tuple(k for k, _ in cols), tuple(l for _, l in cols)), 1),))
    else:
        j = reducible[0] if strategy == "leftmost" else reducible[-1]
        table = _table((f.numerator, 0, f.denominator, dpi, _canon_cols(child, strategy))
                       for f, dpi, child in _reduce_step(cols, j))
    _CANON_CACHE[(cols, strategy)] = table
    return table


def canonicalize(e: LsiExpr, strategy: str = "leftmost") -> LsiExpr:
    """Reduce every monomial to canonical form (linear extension, fixpoint)."""
    return _collect((*_parts(c), m.pi_pow, _canon_cols(m.cols(), strategy))
                    for m, c in e._terms.items())


# canonicalized product of two pi-free monomials, cached by column vectors
_PRODUCT_CACHE: dict[tuple[Cols, Cols], Table] = {}


def _product_cols(a: Cols, b: Cols) -> Table:
    if b < a:
        a, b = b, a
    cached = _PRODUCT_CACHE.get((a, b))
    if cached is not None:
        return cached
    table = _table((1, 0, 1, 0, _canon_cols(cols)) for cols in _interleavings(a, b))
    _PRODUCT_CACHE[(a, b)] = table
    return table


def _product_terms(pairs):
    for a, b in pairs:
        tb = [(m.pi_pow, m.cols(), *_parts(c)) for m, c in b._terms.items()]
        for ma, ca in a._terms.items():
            pa, cols, ra, ia, da = ma.pi_pow, ma.cols(), *_parts(ca)
            for pb, cols_b, rb, ib, db in tb:
                yield (ra * rb - ia * ib, ra * ib + ia * rb, da * db, pa + pb,
                       _product_cols(cols, cols_b))


def multiply(a: LsiExpr, b: LsiExpr, *pairs: tuple[LsiExpr, LsiExpr]) -> LsiExpr:
    """Bilinear shuffle product of ``a`` and ``b`` followed by canonicalization.

    Each further ``(a, b)`` pair adds its product; the whole sum is one
    accumulation, cheaper than adding the products one by one.
    """
    return _collect(_product_terms(((a, b), *pairs)))


# ---------------------------------------------------------------------------
# conjugation and real/imaginary parts (monomials are real, so these act on
# coefficients only; no monomial is ever filtered by parity)

def conjugate(e: LsiExpr) -> LsiExpr:
    return LsiExpr({m: c.conjugate() for m, c in e._terms.items()}, _trusted=True)


def real_part(e: LsiExpr) -> LsiExpr:
    return LsiExpr({m: GaussianRational(c.re) for m, c in e._terms.items() if c.re},
                   _trusted=True)


def imag_part(e: LsiExpr) -> LsiExpr:
    return LsiExpr({m: GaussianRational(c.im) for m, c in e._terms.items() if c.im},
                   _trusted=True)


def rational_coeffs(e: LsiExpr) -> dict[LsiMonomial, Fraction]:
    """Coefficients of a real expression as plain rationals."""
    out = {}
    for m, c in e._terms.items():
        if c.im:
            raise ValueError(f"expression has a non-real coefficient at {m}")
        out[m] = c.re
    return out


def clear_caches() -> None:
    """Drop the monomial-level canonicalization and product caches."""
    _CANON_CACHE.clear()
    _PRODUCT_CACHE.clear()
