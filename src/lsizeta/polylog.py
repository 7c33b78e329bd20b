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
e = k_u - 1 (3^p more for pi^p), and no powers of i: a state's phase is
(-1)^n i^q, q = its monomial's ``phase``, which the reductions keep.  The
states after factor u depend on k_1..k_u alone, so those after each inner
factor of the index expanded last are kept in one path, cut back to what the
next one shares: the truncations k, k^(1), ... of one index convolve their
inner factors once.

``zeta_expr`` assembles the zeta value of an admissible index as the
convolution sum over truncations of the index paired with conjugated
truncations of the dual index, a rewriting of the known duality for
polylogarithms at the sixth root of unity into a statement about zeta values;
all w + 1 products are summed in one integer accumulation.
Both memoize: a weight class of zeta expressions reuses the same truncations,
and the zeta expression of the dual index is the conjugate (see ``zeta_expr``).

The li_expand memo can persist in a file of JSON lines (the CLI uses
``$LSI_CACHE_DIR/li_cache.json``): ``{"format":3}``, then one line
``["<index>","<sha256>",<text>]`` per entry, with ``<index>`` as ``str(Index)``
prints it (``"2,3"``, ``"phi"``), ``<text>`` the compact JSON of
``serialize.expr_to_json`` and the digest SHA-256 over ``<index>``, a newline
and ``<text>``; of two lines for one index the later counts.  ``li_expand``
scans the file for each line's key and offset at its first memo miss, and reads
and decodes a line only when its index is asked for.  A key must be an index as
``str(Index)`` prints it; a decoded entry must match its digest and its index's
weight, and have phase bit 0 (``serialize.expr_from_json`` checks that its
terms agree on one bit).  A file with another header, and each line or entry
that fails a check, cost one stderr line and are recomputed, so results never
change.  ``save_li_cache`` appends the lines the file lacks in one write, so a
line torn by a crash or by another writer fails its digest and the line
appended for it then counts; only a missing or rejected file, or one holding a
line that is no entry, is written anew.  The digest catches corruption and hand
edits, not an edit that also rewrites the digest.
"""

from __future__ import annotations

import os
import re
import sys
from fractions import Fraction
from functools import cache
from math import factorial, lcm

from . import algebra
from .algebra import LsiExpr, conjugate, multiply
from .indices import LITERAL, Index, dual, truncations

_LI_CACHE: dict[Index, LsiExpr] = {}
_ZETA_CACHE: dict[Index, LsiExpr] = {}
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
    # A(t_{n+1}) = 0, and the pending power p of t_{n+1} = sigma = pi/3 is pi^p / 3^p
    last = tuple(term for term in _inner_factor_terms(e) if not term[0])
    terms = {}
    for (_, p, ks, ls), num in _convolve(states, last, big).items():
        if num:
            # The stripped phases multiply to i^(pi + sum l); with i^n from dt
            # and (-1)^n from the Ls sign the coefficient is (-1)^n i^q num/den,
            # q = n + pi + sum l of the raw monomial, which the reductions keep
            # as m's phase.  At phase bit 0 its rational is (-1)^(n + q // 2) num/den.
            m = algebra._MONOMIALS[p, ks, ls]
            terms[m] = Fraction(-num if (n + m.phase // 2) % 2 else num, den * 3 ** p)
    return LsiExpr(terms, 0, _trusted=True)


def li_expand(k: Index) -> LsiExpr:
    """Canonical log-sine expansion of Li_k at e^{i pi/3}; any index allowed."""
    e = _LI_CACHE.get(k)
    if e is None:
        e = _from_disk(k)
        if e is None:
            e = _li_expand_uncached(k)
        _LI_CACHE[k] = e
    return e


def zeta_expr(k: Index) -> LsiExpr:
    """Log-sine expression of zeta(k) for an admissible index k.

    Weight-homogeneous of weight |k|; its real part is the log-sine integral
    expression of the zeta value and its imaginary part vanishes numerically,
    yielding a relation among log-sine monomials.

    It is sum_m Li_{k_m} * conj Li_{kd_(w-m)} over the truncations of k and
    its dual kd, so zeta_expr(kd) == conjugate(zeta_expr(k)) exactly; a memo
    miss whose dual is memoized conjugates that expansion.
    """
    if not k.admissible:
        raise ValueError(f"zeta expression requires an admissible index, got {k}")
    e = _ZETA_CACHE.get(k)
    if e is not None:
        return e
    kd = dual(k)
    if kd in _ZETA_CACHE:
        e = _ZETA_CACHE[k] = conjugate(_ZETA_CACHE[kd])
        return e
    # k's truncations, then kd's: each run shares its inner prefix
    lis = [li_expand(t) for t in truncations(k)]
    duals = [conjugate(li_expand(t)) for t in truncations(kd)]
    first, *rest = zip(lis, reversed(duals))
    e = _ZETA_CACHE[k] = multiply(*first, *rest)
    return e


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


# ---------------------------------------------------------------------------
# on-disk persistence of the expansion memo (the CLI points it at
# $LSI_CACHE_DIR/li_cache.json)

_HEADER = b'{"format":3}\n'
_LINE_KEY = re.compile(rb'\["([^"]*)",')
_CACHE_PATH: str | None = None
# The file at _CACHE_PATH once li_expand has needed it: index -> (offset,
# length) of its last line; and whether the next save writes it anew (it was
# missing or rejected, or held a line that is no entry) or appends.
_DISK: dict[str, tuple[int, int]] | None = None
_REWRITE = True


def use_li_cache(path: str | None) -> None:
    """Make ``path`` the cache file ``li_expand`` reads on its first memo
    miss (work that needs no expansion never reads it); ``None`` detaches it."""
    global _CACHE_PATH, _DISK
    if path != _CACHE_PATH:
        _CACHE_PATH, _DISK = path, None


def _entry_line(key: str, text: str) -> bytes:
    import hashlib  # loads libcrypto, about 4 MB of RSS: only cache users pay it

    digest = hashlib.sha256(f"{key}\n{text}".encode()).hexdigest()
    return f'["{key}","{digest}",{text}]\n'.encode()


def _reject(path: str, reason, where: str | None = None) -> None:
    what = "expansion cache" if where is None else f"{where} of expansion cache"
    print(f"ignoring {what} {path}: {reason}", file=sys.stderr)


def _decode_entry(key: str, line: bytes, weight: int) -> LsiExpr:
    import json

    from .serialize import expr_from_json

    text = line[len(key) + 71:-2].decode()  # after '["<key>","<sha256>",'
    if line != _entry_line(key, text):  # also a line torn or not of this key
        raise ValueError("checksum mismatch")
    e = expr_from_json(json.loads(text))
    if any(m.weight != weight for m in e.monomials()):
        raise ValueError(f"a monomial is not of weight {weight}")
    if e.t:
        raise ValueError("a coefficient is not i^(depth + pi power + sum l) times a rational")
    return e


def _from_disk(k: Index) -> LsiExpr | None:
    """The expansion of ``k`` stored in the cache file, or None."""
    if _CACHE_PATH is None:
        return None
    if _DISK is None:
        load_li_cache(_CACHE_PATH)
    key = str(k)
    if (where := _DISK.get(key)) is None:
        return None
    try:
        with open(_CACHE_PATH, "rb") as fh:
            fh.seek(where[0])
            return _decode_entry(key, fh.read(where[1]), k.weight)
    except (OSError, ValueError, TypeError, KeyError, ZeroDivisionError, RecursionError) as exc:
        _reject(_CACHE_PATH, exc, f"entry {key!r}")
        del _DISK[key]  # the recomputed expansion is appended at the next save
        return None


def load_li_cache(path: str) -> int:
    """Scan the cache file at ``path`` and make it the file ``li_expand``
    reads; returns its entry count (a missing or rejected file has none)."""
    global _CACHE_PATH, _DISK, _REWRITE
    _CACHE_PATH, _DISK, _REWRITE = path, {}, True
    try:
        with open(path, "rb") as fh:
            if fh.read(len(_HEADER)) != _HEADER:
                _reject(path, "not a format-3 cache")
                return 0
            _REWRITE, pos = False, len(_HEADER)
            for n, line in enumerate(fh, 2):
                m = _LINE_KEY.match(line)
                if m and LITERAL.fullmatch(key := m[1].decode("latin-1")):
                    _DISK[key] = pos, len(line)  # a later line for the key wins
                else:
                    _reject(path, "key not an index", f"entry {key!r}" if m else f"line {n}")
                    _REWRITE = True
                pos += len(line)
    except FileNotFoundError:
        pass
    except OSError as exc:
        _reject(path, exc)
        _DISK, _REWRITE = {}, True
    return len(_DISK)


def save_li_cache(path: str) -> int:
    """Append the memoized expansions that the cache file at ``path`` lacks;
    returns how many were added.  A file written anew keeps its entries."""
    import json

    from .serialize import expr_to_json

    global _DISK, _REWRITE
    if not _LI_CACHE:
        return 0
    if path != _CACHE_PATH or _DISK is None:
        load_li_cache(path)
    new = {}
    for k, e in _LI_CACHE.items():
        if (key := str(k)) not in _DISK:
            new[key] = _entry_line(key, json.dumps(expr_to_json(e), separators=(",", ":")))
    if not new:
        return 0
    added, lines = len(new), b"".join(new.values())
    if not _REWRITE:
        fd = os.open(path, os.O_RDWR | os.O_APPEND)
        try:  # a torn last line is ended first, so that it cannot swallow the next
            torn = os.pread(fd, 1, os.fstat(fd).st_size - 1) != b"\n"
            if os.write(fd, b"\n" * torn + lines) != torn + len(lines):
                raise OSError(f"short write to {path}")
            pos = os.lseek(fd, 0, os.SEEK_CUR) - len(lines)
        finally:
            os.close(fd)
    else:
        if _DISK:
            with open(path, "rb") as fh:
                data = fh.read()
            new = {**{key: data[o:o + n] for key, (o, n) in _DISK.items()
                      if data[o + n - 1:o + n] == b"\n"}, **new}  # not a torn last line
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(_HEADER + b"".join(new.values()))
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        _DISK, _REWRITE, pos = {}, False, len(_HEADER)
    for key, line in new.items():
        _DISK[key] = pos, len(line)
        pos += len(line)
    return added


def clear_caches() -> None:
    """Empty the memos and algebra tables; forget the cache file and its entries."""
    global _CACHE_PATH, _DISK
    algebra.clear_caches()
    _LI_CACHE.clear()
    _ZETA_CACHE.clear()
    _PREFIX.clear()
    _CACHE_PATH = _DISK = None
