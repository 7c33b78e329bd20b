"""Expression algebra for iterated log-sine integrals at pi/3.

The basic symbol is a monomial ``pi^m * Ls_{k1,...,kn}^{(l1,...,ln)}(pi/3)``
carrying a nonnegative pi-power and paired exponent vectors with
``k_u - 1 - l_u >= 0`` at every position (the number of log-factors in the
integrand).  Expressions are finite Q(i)-linear combinations of monomials
stored as integer numerators n over one positive denominator d sharing no
factor with all of them, and one phase bit t per expression: with r = n/d the
coefficient of m is r when ``m.phase + t`` is even and i*r when it is odd,
``m.phase`` = q = depth + pi-power + sum l, stored on m when it is built.
Shuffles and reductions keep q and products add it, so the bit survives the
whole algebra: a plain monomial has t = q mod 2 (a real coefficient), the
polylogarithm and zeta expansions have t = 0 (every coefficient i^q times a
rational), a product XORs its factors' bits, and expressions with different
bits can only be added when one is zero.

Three rewriting operations generate the whole algebra:

* ``shuffle`` expands a product of two monomials as the sum over all
  interleavings of their column pairs (one term per interleaving),
* ``reduce_at`` eliminates a position j with ``k_j - 1 - l_j = 0`` (no
  log-factor), lowering the depth by one.  With k = k_j = l_j + 1 the column
  is integrated out: +1/k times the monomial whose column j-1 becomes
  (k_{j-1} + k, l_{j-1} + k), a term absent at j = 1, and -1/k times the one
  whose column j+1 becomes (k_{j+1} + k, l_{j+1} + k); at j = n that column
  is the endpoint sigma = pi/3, and the term is -1/(k 3^k) times pi^k.  Both
  terms keep the weight and q,
* ``canonicalize`` applies ``reduce_at`` until every surviving monomial has
  ``k_u - 1 - l_u >= 1`` everywhere (or is a pure pi-power).  The result does
  not depend on the order in which positions are eliminated, which the test
  suite checks on random monomials.

``multiply`` is shuffle followed by canonicalization, extended bilinearly; it
is commutative and associative.  Canonical forms and products of monomials
are cached as integer tables (n/d per monomial) keyed by the exponent vectors,
since the zeta-expression pipeline multiplies the same monomial shapes many
times over.  The kernels sum integer numerators over the lcm of all terms'
denominators, a pair of expressions adding over the product of their two, and
divide out one gcd: no ``Fraction`` is built.  Those appear only at the edges
(the public constructor and ``terms``); the relation matrices read the
integers and ``den`` as stored, unsorted.  Given several pairs,
``multiply`` sums all their products in that one accumulation.
A product term is imaginary when exactly one of its two factor terms is, so
``multiply`` may keep one output bit: it then builds only the real or the
imaginary half, and the pairs that feed the other half are skipped before
their product table is looked up.  Conjugating each pair's second factor is a
sign in the same loop.
Their output monomials are interned and not validated again; ``LsiMonomial``
validates those from outside, such as CLI literals.
``build_basis`` lists the canonical monomials of one weight and parity, the
columns of the relation matrices, from the same intern table, so a column
lookup finds a kernel's monomial by identity, without an ``__eq__`` call.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Iterator

from .indices import _Frozen

Cols = tuple[tuple[int, int], ...]
Table = tuple[int, tuple[tuple[tuple, int], ...]]  # n/d per monomial (pi_pow, ks, ls)


class LsiMonomial(_Frozen):
    """pi^pi_pow * Ls_ks^ls(pi/3); depth 0 means a pure power of pi."""

    __slots__ = ("pi_pow", "ks", "ls", "phase")  # phase: q, set once, not a field
    _fields = ("pi_pow", "ks", "ls")

    def __init__(self, pi_pow: int = 0, ks: tuple[int, ...] = (), ls: tuple[int, ...] = ()):
        if pi_pow < 0:
            raise ValueError("pi power must be nonnegative")
        if len(ks) != len(ls):
            raise ValueError("exponent vectors must have equal length")
        for k, l in zip(ks, ls):
            if k < 1 or l < 0 or k - 1 - l < 0:
                raise ValueError(f"invalid exponent pair (k={k}, l={l})")
        # _store and _values spelled out: monomials are built, hashed and
        # compared (basis lookups) by the thousand
        put = object.__setattr__
        put(self, "pi_pow", pi_pow)
        put(self, "ks", ks)
        put(self, "ls", ls)
        put(self, "phase", len(ks) + pi_pow + sum(ls))
        put(self, "_hash", hash((pi_pow, ks, ls)))

    def _values(self) -> tuple:
        return self.pi_pow, self.ks, self.ls

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
    """Immutable finite map monomial -> nonzero rational, plus the phase bit
    ``t`` of the module docstring (0 for the zero expression).  The rationals
    are integer numerators over one positive ``den`` sharing no factor with
    all of them, so equal values compare and hash equal.  ``terms`` maps to
    rationals, or, when ``den`` is given (the kernels), to nonzero integer
    numerators over it."""

    __slots__ = ("_terms", "den", "t")

    def __init__(self, terms: dict | None = None, t: int = 0, den: int | None = None):
        if den is None:
            if any(isinstance(c, float) for c in (terms or {}).values()):
                raise TypeError("coefficients are exact rationals, not floats")
            rs = [(m, r) for m, c in (terms or {}).items() if (r := Fraction(c))]
            den = lcm(*(r.denominator for _, r in rs))
            terms = {m: r.numerator * (den // r.denominator) for m, r in rs}
        elif (g := gcd(den, *terms.values())) > 1:
            den //= g
            terms = {m: n // g for m, n in terms.items()}
        if t not in (0, 1):
            raise ValueError("the phase bit is 0 or 1")
        self._terms: dict[LsiMonomial, int] = terms
        self.den = den
        self.t = t if terms else 0

    @classmethod
    def zero(cls) -> "LsiExpr":
        return cls()

    @classmethod
    def unit(cls) -> "LsiExpr":
        return cls({LsiMonomial(): 1}, 0, 1)

    @classmethod
    def of_monomial(cls, m: LsiMonomial, coeff=1) -> "LsiExpr":
        """``coeff`` (a rational) times ``m``."""
        return cls({m: coeff}, m.phase % 2)

    def numerators(self) -> list[tuple[LsiMonomial, int]]:
        """(monomial, n), r = n / den, in the canonical monomial order."""
        return sorted(self._terms.items(), key=lambda mn: mn[0].sort_key())

    def terms(self) -> list[tuple[LsiMonomial, Fraction]]:
        """(monomial, r) in the canonical monomial order (deterministic)."""
        return [(m, Fraction(n, self.den)) for m, n in self.numerators()]

    def is_imag(self, m: LsiMonomial) -> bool:
        """Whether the coefficient of ``m`` is i times its rational."""
        return bool((m.phase + self.t) % 2)

    def monomials(self) -> Iterator[LsiMonomial]:
        return iter(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, LsiExpr) and self.t == other.t
                and self.den == other.den and self._terms == other._terms)

    def __hash__(self):
        return hash((self.t, self.den, frozenset(self._terms.items())))

    def __add__(self, other: "LsiExpr") -> "LsiExpr":
        if not self._terms:
            return other
        if other._terms and other.t != self.t:
            raise ValueError("terms of different phase bits have no common representation")
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        out = {m: n * fa for m, n in self._terms.items()}
        for m, n in other._terms.items():
            if s := out.get(m, 0) + n * fb:
                out[m] = s
            else:
                del out[m]
        return LsiExpr(out, self.t, den)

    def __neg__(self) -> "LsiExpr":
        return LsiExpr({m: -n for m, n in self._terms.items()}, self.t, self.den)

    def __sub__(self, other: "LsiExpr") -> "LsiExpr":
        return self + (-other)

    def scaled(self, c) -> "LsiExpr":
        """The expression times the rational ``c``."""
        c = Fraction(c)
        if not c:
            return LsiExpr()
        return LsiExpr({m: n * c.numerator for m, n in self._terms.items()}, self.t,
                       self.den * c.denominator)

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
        return " + ".join(f"({c}{'*i' if self.is_imag(m) else ''})*{m}"
                          for m, c in self.terms())

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
    acc: dict[LsiMonomial, int] = {}
    for cols in _interleavings(a.cols(), b.cols()):
        m = monomial_from_cols(pi, cols)
        acc[m] = acc.get(m, 0) + 1
    return LsiExpr(acc, (a.phase + b.phase) % 2, 1)


# ---------------------------------------------------------------------------
# depth reduction at a position with no log-factor

def _reduce_step(cols: Cols, j: int) -> list[tuple[int, int, int, Cols]]:
    # One application of the depth-lowering rule at 1-based position j with
    # k_j - 1 - l_j = 0.  Returns (n, d, pi-power shift, new cols) children,
    # each with factor n/d; sigma^k at the evaluation point sigma = pi/3 is
    # stored as a pi-power shift k with factor 3^(-k).
    n = len(cols)
    k = cols[j - 1][0]
    if n == 1:
        return [(-1, k * 3**k, k, ())]
    if j == 1:
        k2, l2 = cols[1]
        merged = ((k2 + k, l2 + k),) + cols[2:]
        return [(-1, k, 0, merged)]
    if j < n:
        km, lm = cols[j - 2]
        kp, lp = cols[j]
        minus = cols[:j - 2] + ((km + k, lm + k),) + cols[j:]
        plus = cols[:j - 1] + ((kp + k, lp + k),) + cols[j + 1:]
        return [(1, k, 0, minus), (-1, k, 0, plus)]
    km, lm = cols[n - 2]
    minus = cols[:n - 2] + ((km + k, lm + k),)
    dropped = cols[:n - 1]
    return [(1, k, 0, minus), (-1, k * 3**k, k, dropped)]


def reduce_at(m: LsiMonomial, j: int) -> LsiExpr:
    """Apply the depth-lowering rule to ``m`` at 1-based position ``j``."""
    if not 1 <= j <= m.depth or m.ks[j - 1] - 1 - m.ls[j - 1] != 0:
        raise ValueError(f"reduction not applicable at {j}")
    acc: dict[LsiMonomial, Fraction] = {}
    for n, d, dpi, cols in _reduce_step(m.cols(), j):
        mono = monomial_from_cols(m.pi_pow + dpi, cols)
        acc[mono] = acc.get(mono, 0) + Fraction(n, d)
    return LsiExpr(acc, m.phase % 2)


def _accumulate(terms) -> tuple[int, dict]:
    """Common denominator L and numerators of sum num/den * pi^dpi * table."""
    terms = [(num, den * d, dpi, items) for num, den, dpi, (d, items) in terms]
    big = lcm(*(t[1] for t in terms))
    acc = {}
    for num, den, dpi, items in terms:
        c = num * (big // den)
        for (pi, ks, ls), n in items:
            key = pi + dpi, ks, ls
            acc[key] = acc.get(key, 0) + c * n
    return big, acc


def _table(terms) -> Table:
    den, acc = _accumulate(terms)
    items = [(m, n) for m, n in acc.items() if n]
    g = gcd(den, *(n for _, n in items))
    return den // g, tuple((m, n // g) for m, n in items)


class _Interned(dict):
    # kernel output and basis monomials by (pi_pow, ks, ls), each validated once, when first built
    def __missing__(self, key) -> LsiMonomial:
        m = self[key] = LsiMonomial(*key)
        return m


_MONOMIALS = _Interned()


def _collect(terms, t: int) -> LsiExpr:
    den, acc = _accumulate(terms)
    return LsiExpr({_MONOMIALS[m]: n for m, n in acc.items() if n}, t, den)


# canonical form of a pi-free monomial given by cols
_CANON_CACHE: dict[Cols, Table] = {}


def _free_position(cols: Cols) -> int | None:
    # the first 1-based position with no log-factor, where a reduction applies
    return next((j for j, (k, l) in enumerate(cols, 1) if k - 1 - l == 0), None)


def _canon_cols(cols: Cols) -> Table:
    cached = _CANON_CACHE.get(cols)
    if cached is not None:
        return cached
    j = _free_position(cols)
    if j is None:
        table = (1, (((0, tuple(k for k, _ in cols), tuple(l for _, l in cols)), 1),))
    else:
        # a chain of reductions is as long as cols: in place of recursion, a
        # stack holds each (cols, steps) until its children's tables are cached
        stack = [(cols, _reduce_step(cols, j))]
        while stack:
            top, steps = stack.pop()
            pending = [(c, _reduce_step(c, jc)) for *_, c in steps
                       if c not in _CANON_CACHE and (jc := _free_position(c)) is not None]
            if pending:
                stack += [(top, steps), *pending]
                continue
            table = _CANON_CACHE[top] = _table(
                (n, d, dpi, _canon_cols(c)) for n, d, dpi, c in steps)
    _CANON_CACHE[cols] = table
    return table


def canonicalize(e: LsiExpr) -> LsiExpr:
    """Reduce every monomial to canonical form (linear extension, fixpoint)."""
    return _collect(((n, e.den, m.pi_pow, _canon_cols(m.cols()))
                     for m, n in e._terms.items()), e.t)


# canonicalized product of the pi-free parts of two monomials, by (ks, ls, ks', ls')
# in both orders
_PRODUCT_CACHE: dict[tuple, Table] = {}


def _product_table(a: LsiMonomial, b: LsiMonomial) -> Table:
    key = a.ks, a.ls, b.ks, b.ls
    cached = _PRODUCT_CACHE.get(key)
    if cached is None:
        cached = _PRODUCT_CACHE[key] = _PRODUCT_CACHE[b.ks, b.ls, a.ks, a.ls] = _table(
            (1, 1, 0, _canon_cols(cols)) for cols in _interleavings(a.cols(), b.cols()))
    return cached


def _product_terms(pairs, half: int | None, conj: bool):
    # i*r times i*s is -r*s: a product term is negated when both factors are
    # imaginary, and b's imaginary terms once more when b is conjugated.  A
    # product is imaginary when exactly one factor is, so the b terms of one
    # bit pair with a term of a to give the half's bit.  A pair's terms share
    # the denominator a.den * b.den.
    for a, b in pairs:
        den, tb = a.den * b.den, ([], [])
        for mb, nb in b._terms.items():
            ib = (mb.phase + b.t) & 1
            tb[ib].append((mb, mb.pi_pow, -nb if conj and ib else nb))
        for ma, na in a._terms.items():
            pa = ma.pi_pow
            ia = (ma.phase + a.t) & 1
            for ib in (0, 1) if half is None else (ia ^ half,):
                s = -na if ia & ib else na
                for mb, pb, nb in tb[ib]:
                    yield s * nb, den, pa + pb, _product_table(ma, mb)


def multiply(a: LsiExpr, b: LsiExpr, *pairs: tuple[LsiExpr, LsiExpr],
             half: int | None = None, conj: bool = False) -> LsiExpr:
    """Bilinear shuffle product of ``a`` and ``b`` followed by canonicalization.

    Each further ``(a, b)`` pair adds its product; the whole sum is one
    accumulation, cheaper than adding the products one by one.  The products'
    phase bits must agree, as for ``+``.  With ``conj`` each pair's second
    factor is conjugated.  With ``half`` = 0 or 1 only the real or the
    imaginary half is built, as ``real_part`` or ``imag_part`` returns it: a
    pair of terms feeds one half, and the pairs of the other are skipped.
    """
    pairs = [(x, y) for x, y in ((a, b), *pairs) if x and y]
    bits = {x.t ^ y.t for x, y in pairs}
    if len(bits) > 1:
        raise ValueError("terms of different phase bits have no common representation")
    t = bits.pop() if bits else 0
    return _collect(_product_terms(pairs, half, conj), t ^ (half or 0))


# ---------------------------------------------------------------------------
# conjugation and real/imaginary parts (monomials are real, so these act on
# coefficients only: a term is real or imaginary by its phase and the bit t)

def conjugate(e: LsiExpr) -> LsiExpr:
    return LsiExpr({m: -n if e.is_imag(m) else n for m, n in e._terms.items()}, e.t, e.den)


def real_part(e: LsiExpr) -> LsiExpr:
    return LsiExpr({m: n for m, n in e._terms.items() if not e.is_imag(m)}, e.t, e.den)


def imag_part(e: LsiExpr) -> LsiExpr:
    return LsiExpr({m: n for m, n in e._terms.items() if e.is_imag(m)}, 1 - e.t, e.den)


# ---------------------------------------------------------------------------
# monomial bases

class MonomialBasis(_Frozen):
    """Ordered basis of canonical monomials of one weight and parity class."""

    __slots__ = _fields = ("weight", "parity", "monomials")  # parity: "odd" or "even"

    def __init__(self, weight: int, parity: str, monomials: tuple[LsiMonomial, ...]):
        self._store(weight, parity, monomials)

    def position(self) -> dict[LsiMonomial, int]:
        return {m: i for i, m in enumerate(self.monomials)}

    def __len__(self) -> int:
        return len(self.monomials)


def _compositions_min2(total: int):
    # compositions of `total` into parts >= 2, any depth >= 1
    if total >= 2:
        yield (total,)
    for first in range(2, total - 1):
        for rest in _compositions_min2(total - first):
            yield (first,) + rest


def build_basis(w: int, parity: str) -> MonomialBasis:
    """All canonical monomials of weight ``w`` in one parity class.

    Canonical means every position carries at least one log-factor
    (``k_u - 1 - l_u >= 1``).  The pure pi^w monomial has parity 0 and is
    included only in the even basis.
    """
    if w < 2:
        raise ValueError("basis weight must be >= 2")
    if parity not in ("odd", "even"):
        raise ValueError("parity must be 'odd' or 'even'")
    want = 1 if parity == "odd" else 0
    monos: list[LsiMonomial] = []
    if want == 0:
        monos.append(_MONOMIALS[w, (), ()])
    for pi in range(w - 1):
        for ks in _compositions_min2(w - pi):
            # choose the log-factor count p_u in 1..k_u-1 at each position
            choices: list[tuple[int, ...]] = [()]
            for k in ks:
                choices = [c + (p,) for c in choices for p in range(1, k)]
            for ps in choices:
                if sum(ps) % 2 != want:
                    continue
                ls = tuple(k - 1 - p for k, p in zip(ks, ps))
                monos.append(_MONOMIALS[pi, ks, ls])
    monos.sort(key=lambda m: m.sort_key())
    return MonomialBasis(w, parity, tuple(monos))


def clear_caches() -> None:
    """Drop the canonicalization and product tables and the interned monomials."""
    _CANON_CACHE.clear()
    _PRODUCT_CACHE.clear()
    _MONOMIALS.clear()
