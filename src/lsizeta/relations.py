"""Exact rational linear algebra over log-sine monomial bases.

The relation pipeline for a weight w:

1. ``re_matrix(w)``: real parts of the zeta expressions of one representative
   per dual pair of admissible weight-w indices, written over the basis of
   canonical monomials with the same weight and log-factor parity matching w
   (even weights include the pure pi^w column).
2. ``im_matrix(w')``: imaginary parts at nearby weights w' (self-dual rows are
   omitted; their imaginary parts vanish identically by duality).  Because
   zeta values are real these rows equal zero, i.e. each is a linear relation
   among the odd-complement monomials of weight w'.
3. ``ls_relations_for(w)``: all relations usable at weight w — rows of the
   reduced echelon form of the weight-(w+1) imaginary matrix whose pivot sits
   in a pi-divisible column (such rows are entirely supported on pi-divisible
   monomials, because those columns form a suffix of the column order; divide
   by pi), plus the full imaginary matrices of weights w-1-2m lifted by
   pi^(1+2m).
4. ``reduce_mzv_matrix(w)``: eliminate the relation pivots from the real
   matrix by exact substitution, giving E.  Its rank, ``compute_lk(w)``, is
   the upper bound this method gives for the dimension of the weight-w zeta
   span.
5. ``mzv_relations(w)``: the left kernel of E, {c : sum_j c_j E_j = 0}, read
   from one rref of E's transposed numerators.  Each basis vector is an
   explicit Q-linear relation among the zeta values, cleared to coprime
   integers with a deterministic sign.

Rows are integer numerators over one positive denominator, normalized as an
``LsiExpr`` is, from the expansion to the echelon form; ``RationalMatrix.rows``
is their ``fractions.Fraction`` view.  Echelon forms are fully reduced with unit
pivots.  Each zeta row built for a matrix logs ``expanded i/n (weight w)`` at
INFO on ``lsizeta.relations``.

One routine, ``_reduce``, row-reduces for ``rref``, ``rank`` and
``mzv_relations``, multi-modularly with a certificate (Cabay 1971; FLINT's
``fmpz_mat_rref_mul``).  The row numerators A are held as int64 limbs of 31
bits where an entry does not fit int64, and reduced modulo primes below
2^21, from one fixed list, as int64 residues: blocked Gauss-Jordan for all
primes at once, whose matrix products run in float64 on sums of at most
2^11 products, below 2^53 and so exact.  The primes of largest rank, then
lexicographically least pivots, are kept (this drops a prime dividing a
pivot minor).  The echelon rows R are lifted by a vectorized Garner CRT
modulo M, the product of the kept primes, over one common denominator D
that rational reconstruction (Wang 1981) grows until every entry of D*R is
below W, about sqrt(M).  Besides the limbs, what outlives a step is int32 (a
residue plane per kept prime, half as many digit planes), and the steps
that widen to int64 or float64 take one prime or one block of rows at a
time.  The certificate checks D*A = A[:, piv] (D*R) modulo further primes
whose product exceeds max|A| (D + r W) + W, the most the sides can differ,
so it holds over the integers: every row of A lies in the rowspace of R,
whose r rows are independent, and A has rank at least r (an r x r minor is
nonzero modulo a prime), so R is the reduced echelon form of A.  A failed
lift or check adds primes; nothing is returned unchecked.
"""

from __future__ import annotations

import logging
from fractions import Fraction
from math import gcd, lcm, prod

import numpy as np

from .algebra import (
    LsiExpr,
    LsiMonomial,
    MonomialBasis,
    build_basis,
    real_part,
)
from .indices import Index, _Frozen, dedupe_by_duality, enumerate_admissible
from .polylog import li_expand, zeta_expr

_LOG = logging.getLogger(__name__)


def _parity_name(n: int) -> str:
    return "odd" if n % 2 else "even"


# ---------------------------------------------------------------------------
# exact rational matrices: multi-modular elimination with a certificate

_CHUNK = 1 << 11  # float64 sums of 2^11 products of residues below 2^21 are exact
_ODD = prod(range(3, 1449, 2))  # odd n in (1447, 1449^2) is prime iff gcd(n, _ODD) = 1
_PRIMES: list[int] = []


def _primes(lo: int, hi: int) -> np.ndarray:
    """Entries lo..hi-1 of the fixed list of primes, counting down from 2^21."""
    p = _PRIMES[-1] if _PRIMES else (1 << 21) + 1
    while len(_PRIMES) < hi:
        p -= 2
        if gcd(p, _ODD) == 1:
            _PRIMES.append(p)
    return np.array(_PRIMES[lo:hi], dtype=np.int64)


def _limbs(ints: list[list[int]], shape: tuple[int, int]) -> list[np.ndarray]:
    """int64 planes L_j of the integer matrix A = sum_j L_j 2^(31 j)."""
    try:
        return [np.array(ints, dtype=np.int64).reshape(shape)]
    except OverflowError:
        low = np.array([[x & 0x7FFFFFFF for x in row] for row in ints], dtype=np.int64)
        return [low.reshape(shape)] + _limbs([[x >> 31 for x in row] for row in ints], shape)


def _residues(limbs: list[np.ndarray], ps: np.ndarray) -> np.ndarray:
    """(P, m, n) residues modulo the primes ps of the matrix with these limbs,
    one prime at a time to bound the temporaries."""
    z = np.empty((len(ps),) + limbs[0].shape, dtype=np.int64)
    for i, p in enumerate(ps.tolist()):
        z[i] = limbs[-1] % p
        for low in limbs[-2::-1]:  # Horner
            z[i] = (z[i] * ((1 << 31) % p) + low % p) % p
    return z


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for stacks of residues in float64, exact up to _CHUNK terms a sum."""
    return np.matmul(x.astype(float), y.astype(float))


def _steps(a: np.ndarray, ps: np.ndarray, free: np.ndarray):
    """Gauss-Jordan steps on residues ``a`` (P, m, n) modulo all primes ``ps``
    at once, in place, for at most 64 pivots: each prime pivots on its first
    nonzero row still ``free`` (P, m), and a prime with no pivot in a column
    where another has one is dropped.  Entries off the pivot row and column
    grow by under 2^42 a step and are reduced at the end.  Returns the kept
    residues, free rows and prime indices, the pivot columns and each kept
    prime's pivot rows (P, s)."""
    keep, cols, rows = np.arange(len(ps)), [], []
    k, p, left = keep, ps[:, None], int(free[0].sum()) if len(ps) else 0
    for c in range(a.shape[2]):
        if len(cols) == left:
            break
        col = a[:, :, c] % p
        nz = (col != 0) & free
        has = nz.any(axis=1)
        if not has.all():
            if not has.any():
                continue
            a, free, col, nz, keep = a[has], free[has], col[has], nz[has], keep[has]
            k, p, rows = np.arange(len(keep)), ps[keep, None], [i[has] for i in rows]
        i = nz.argmax(axis=1)
        free[k, i] = False
        inv = [pow(x, -1, q) for x, q in zip(col[k, i].tolist(), p[:, 0].tolist())]
        prow = a[k, i, c:] % p * np.array(inv)[:, None] % p
        col[k, i] = 0
        a[:, :, c:] -= col[:, :, None] * prow[:, None]
        a[k, i, c:] = prow
        cols.append(c)
        rows.append(i)
    a %= p[:, :, None]
    return a, free, keep, cols, np.array(rows, dtype=np.int64).reshape(len(cols), len(keep)).T


def _gauss_jordan(a: np.ndarray, ps: np.ndarray):
    """Gauss-Jordan elimination of residues ``a`` (P, m, n): ``_steps`` on
    each panel of 64 columns, then the later columns X by two products,
    X <- X - L Y and X_s <- Y = S^-1 X_s, with L the panel's pivot columns,
    S and X_s their pivot rows.  Returns the kept primes' pivot rows in pivot
    order, the kept primes and the pivot columns."""
    free = np.ones(a.shape[:2], dtype=bool)
    n, cols, rows = a.shape[2], [], np.zeros((len(ps), 0), dtype=np.int64)
    for c0 in range(0, n, 64):
        panel, free, keep, pc, pr = _steps(a[:, :, c0:c0 + 64].copy(), ps, free)
        if len(keep) < len(ps):
            a, ps, rows = a[keep], ps[keep], rows[keep]
        k, s, p3 = np.arange(len(ps))[:, None], len(pc), ps[:, None, None]
        if s and c0 + 64 < n:
            x, lead = a[:, :, c0 + 64:], a[:, :, [c0 + j for j in pc]]
            eye = np.broadcast_to(np.eye(s, dtype=np.int64), (len(ps), s, s))
            inv, *_, ir = _steps(np.concatenate([lead[k, pr], eye], axis=2), ps,
                                 np.ones((len(ps), s), dtype=bool))
            y = _dot(inv[k, ir, s:], x[k, pr]).astype(np.int64) % p3
            for i in range(0, a.shape[1], 256):  # row blocks bound the float64 temporaries
                xi = x[:, i:i + 256]
                np.subtract(xi, _dot(lead[:, i:i + 256], y), out=xi, casting="unsafe")
            np.remainder(x, p3, out=x)
            x[k, pr] = y
        a[:, :, c0:c0 + 64] = panel
        cols += [c0 + j for j in pc]
        rows = np.concatenate([rows, pr], axis=1)
    z = np.empty((len(ps), rows.shape[1], a.shape[2]), dtype=np.int32)
    for i in range(len(ps)):  # one prime at a time to bound the temporaries
        z[i] = a[i, rows[i]]
    return z, ps, cols


def _garner(zs: list[np.ndarray], ps: np.ndarray, D: int) -> np.ndarray:
    """Mixed-radix digits v of D*z from the residues zs[k] of z modulo ps[k]:
    D*z = v_0 + v_1 p_0 + v_2 p_0 p_1 + ... modulo every prime, 0 <= v_k < p_k,
    as int32, one int64 plane at a time."""
    v = np.empty((len(ps),) + zs[0].shape, dtype=np.int32)
    for k, p in enumerate(ps.tolist()):
        t, w = zs[k].astype(np.int64) * (D % p), 1  # w = p_0 ... p_{j-1} mod p
        for j, q in enumerate(ps[:k].tolist()):
            t -= v[j] * np.int64(w)
            w = w * q % p
        v[k] = t % p * pow(w, -1, p) % p
    return v


def _denominator(u: int, M: int, N: int) -> int | None:
    """Rational reconstruction (Wang 1981): the denominator b of u mod M whose
    numerator is at most N in size, if b < M / (2N)."""
    r0, r1, t0, t1 = M, u, 0, 1
    while r1 > N:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return abs(t1) if 2 * N * abs(t1) < M else None


def _lift(zs: list[np.ndarray], ps: np.ndarray):
    """Rationals z from residues zs[k] modulo ps[k], over a common denominator
    D grown from the first and last entry of each row D does not yet clear,
    in blocks of 64 rows: a block that grows D is redone at once, and a block
    again only if D grew after its digits were made.  Returns D, the first
    h = ceil(K/2) mixed-radix digits of D*z, its sign mask and the prefix
    products W[0..h] of the primes, where |D*z| < W[h] makes
    D*z = sum_k v_k W[k] - W[h] * negative; None if the primes do not suffice."""
    W = [1]
    for p in ps.tolist():
        W.append(W[-1] * p)
    K, D = len(ps), 1
    h = (K + 1) // 2
    digits = np.empty((h,) + zs[0].shape, dtype=np.int32)
    neg = np.empty(zs[0].shape, dtype=bool)
    blocks, made = range(0, len(neg), 64), {}  # block start -> D of its digits
    while stale := [i0 for i0 in blocks if made.get(i0) != D]:
        for i0 in stale:
            b = 0
            while b != 1:
                if 2 * D * W[h] >= W[K]:
                    return None
                v = _garner([z[i0:i0 + 64] for z in zs], ps, D)
                digits[:, i0:i0 + 64] = v[:h]
                neg[i0:i0 + 64] = (v[h:] == ps[h:, None, None] - 1).all(axis=0)
                bad, b = ~(neg[i0:i0 + 64] | (v[h:] == 0).all(axis=0)), 1
                for i in np.flatnonzero(bad.any(axis=1)).tolist():
                    js = np.flatnonzero(bad[i])
                    for j in {js[0], js[-1]}:
                        d = _denominator(sum(x * w for x, w in zip(v[:, i, j].tolist(), W)),
                                         W[K], W[h] - 1)
                        if d is None:
                            return None
                        b = lcm(b, d)
                D *= b
            made[i0] = D
    return D, digits, neg, W[:h + 1]


def _certified(limbs: list[np.ndarray], bound: int, piv: list[int], lifted, first: int) -> bool:
    """Whether D*A = A[:, piv] (D*R) holds modulo the primes from index
    ``first`` on whose product exceeds the most the sides can differ, and so
    over Z.  It holds on the pivot columns by construction (D*R is D*I
    there), so only the others are checked."""
    D, v, neg, W = lifted
    K, r = len(v), len(piv)
    other = sorted(set(range(limbs[0].shape[1])) - set(piv))
    small = W[K]
    limit, last, modulus = bound * (D + r * small) + small, first, 1
    while modulus <= limit:
        modulus, last = modulus * int(_primes(last, last + 1)[0]), last + 1
    step = max(1, (1 << 20) // max(1, v[0].size))  # primes per pass, to bound memory
    for lo in range(first, last, step):
        qs = _primes(lo, min(lo + step, last))
        q3 = qs[:, None, None]
        wq = np.array([[w % q for w in W + [D]] for q in qs.tolist()], dtype=np.int64)
        dz = neg[:, other] * -wq[:, K, None, None]
        for k in range(K):
            dz += v[k][:, other] * wq[:, k, None, None]
        dz %= q3
        aq = _residues(limbs, qs)
        diff = aq[:, :, other] * wq[:, K + 1, None, None] - sum(
            _dot(aq[:, :, piv[j:j + _CHUNK]], dz[:, j:min(j + _CHUNK, r)]).astype(np.int64) % q3
            for j in range(0, r, _CHUNK))
        if (diff % q3).any():
            return False
    return True


def _reduce(nums: list[list[int]]):
    """Exact Gauss-Jordan elimination of the integer rows ``nums``, as the
    module docstring describes.  Returns the pivot columns, the echelon rows
    as integer rows over their common denominator D, and D."""
    limbs = _limbs(nums, (len(nums), len(nums[0]) if nums else 0))
    # max|A| <= sum_j max|L_j| 2^(31 j), in Python ints: |-2^63| does not fit int64
    bound = sum(max(int(x.max()), -int(x.min())) << 31 * j
                for j, x in enumerate(limbs)) if limbs[0].size else 0
    piv, kept, zs, used = None, [], [], 0
    while True:
        ps = _primes(used, used + max(4, len(kept) // 2))
        used += len(ps)
        z, ps, p = _gauss_jordan(_residues(limbs, ps), ps)
        # keep the primes of largest rank, then lexicographically least pivots
        if piv is None or (-len(p), p) < (-len(piv), piv):
            piv, kept, zs = p, [], []
        if p == piv:
            kept, zs = kept + ps.tolist(), zs + list(z)
        del z
        lifted = _lift(zs, np.array(kept))
        if lifted is not None and _certified(limbs, bound, piv, lifted, used):
            break
    D, v, neg, W = lifted
    del zs, lifted, limbs
    h, out = len(v), []
    dt = np.int64 if W[h] < 1 << 63 else object
    for i in range(0, len(neg), 256):  # D*z as int64 if it fits, else Python ints
        num = -neg[i:i + 256].astype(dt) * W[h]
        for g in range(0, h, 3):  # three 21-bit digits at a time fit in int64
            num += sum(v[k, i:i + 256] * np.int64(W[k] // W[g])
                       for k in range(g, min(g + 3, h))).astype(dt) * W[g]
        out += num.tolist()
    return piv, out, D


class RationalMatrix:
    """Dense rational matrix with optional row/column labels.  Row i is the
    integers ``nums[i]`` over ``dens[i]`` > 0, sharing no factor with all of
    them, so a zero row has denominator 1 and equal rows are stored alike.
    ``rows`` are rationals, or, when ``dens`` is given (the kernels), integer
    rows over those denominators; the ``rows`` property is the rational view."""

    __slots__ = ("nums", "dens", "row_labels", "col_labels", "pivot_cols")

    def __init__(self, rows, row_labels=(), col_labels=(), pivot_cols=(), dens=None):
        if dens is None:
            pairs = [[x.as_integer_ratio() for x in row] for row in rows]
            dens = [lcm(*(d for _, d in row)) for row in pairs]
            rows = [[n * (den // d) for n, d in row] for row, den in zip(pairs, dens)]
        else:
            gs = [gcd(d, *row) for row, d in zip(rows, dens)]
            rows = [row if g == 1 else [n // g for n in row] for row, g in zip(rows, gs)]
            dens = [d // g for d, g in zip(dens, gs)]
        self.nums, self.dens = rows, dens
        self.row_labels, self.col_labels = list(row_labels), list(col_labels)
        self.pivot_cols = tuple(pivot_cols)

    @property
    def rows(self) -> list[list[Fraction]]:
        """The entries as rationals, built on each call."""
        return [[Fraction(n, d) for n in row] for row, d in zip(self.nums, self.dens)]

    @property
    def nrows(self) -> int:
        return len(self.nums)

    @property
    def ncols(self) -> int:
        return len(self.nums[0]) if self.nums else len(self.col_labels)

    def rref(self) -> "RationalMatrix":
        """Reduced row echelon form: unit pivots, zeros above and below."""
        pivots, nums, D = _reduce(self.nums)
        pad = self.nrows - len(pivots)
        return RationalMatrix(nums + [[0] * self.ncols for _ in range(pad)], [None] * self.nrows,
                              self.col_labels, pivots, [D] * len(pivots) + [1] * pad)

    @property
    def rank(self) -> int:
        if self.pivot_cols:
            return len(self.pivot_cols)
        # the column rank: the transpose's nonzero rows, fewer where columns vanish
        return len(_reduce([col for col in zip(*self.nums) if any(col)])[0])

    def stack(self, other: "RationalMatrix") -> "RationalMatrix":
        if other.ncols != self.ncols:
            raise ValueError("column count mismatch")
        return RationalMatrix(self.nums + other.nums, self.row_labels + other.row_labels,
                              self.col_labels, dens=self.dens + other.dens)


def same_rowspace(a: RationalMatrix, b: RationalMatrix) -> bool:
    """Rowspace equality via the canonical reduced echelon form."""
    ra, rb = a.rref(), b.rref()
    r = len(ra.pivot_cols)
    return (ra.pivot_cols, ra.nums[:r], ra.dens[:r]) == (rb.pivot_cols, rb.nums[:r], rb.dens[:r])


# ---------------------------------------------------------------------------
# zeta coefficient matrices

def _expr_row(e: LsiExpr, basis: MonomialBasis,
              pos: dict[LsiMonomial, int]) -> tuple[list[int], int]:
    """The real expression ``e`` over ``basis`` (``pos`` its positions): its
    integer numerators in basis order and its denominator."""
    row = [0] * len(basis)
    for m, n in e._terms.items():
        if e.is_imag(m):
            raise ValueError(f"expression has a non-real coefficient at {m}")
        j = pos.get(m)
        if j is None:
            raise ValueError(f"monomial outside declared basis: {m}")
        row[j] = n
    return row, e.den


def _matrix(exprs: list[LsiExpr], labels: list, basis: MonomialBasis) -> RationalMatrix:
    pos = basis.position()
    rows = [_expr_row(e, basis, pos) for e in exprs]
    return RationalMatrix([row for row, _ in rows], labels, basis.monomials,
                          dens=[den for _, den in rows])


def _zeta_rows(indices: list[Index], half: int) -> list[LsiExpr]:
    exprs = []
    for i, k in enumerate(indices):
        exprs.append(zeta_expr(k, half))
        _LOG.info("expanded %d/%d (weight %d)", i + 1, len(indices), k.weight)
    return exprs


def re_matrix(w: int) -> RationalMatrix:
    """Real parts of weight-w zeta expressions over the matching-parity basis."""
    indices = dedupe_by_duality(enumerate_admissible(w))
    return _matrix(_zeta_rows(indices, 0), indices, build_basis(w, _parity_name(w)))


def im_matrix(w: int) -> RationalMatrix:
    """Imaginary parts of weight-w zeta expressions (self-dual rows dropped)."""
    indices = dedupe_by_duality(enumerate_admissible(w), drop_self_dual=True)
    return _matrix(_zeta_rows(indices, 1), indices, build_basis(w, _parity_name(w + 1)))


# ---------------------------------------------------------------------------
# relations among log-sine monomials

def inject_cr_relation(k: int) -> RationalMatrix:
    """Relation among weight-(2k+1) monomials from the closed form of
    Re(Li_{2k+1}) at the sixth root of unity.

    Both Re(Li_{2k+1}(e^{i pi/3})) and (1/2)(1-2^(-2k))(1-3^(-2k)) zeta(2k+1)
    are expanded over the odd-parity weight-(2k+1) basis and subtracted;
    the difference vanishes numerically, giving one extra relation row.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    w = 2 * k + 1
    factor = Fraction(1, 2) * (1 - Fraction(1, 4**k)) * (1 - Fraction(1, 9**k))
    lhs = real_part(li_expand(Index((w,))))
    rhs = zeta_expr(Index((w,)), 0).scaled(factor)
    return _matrix([lhs - rhs], [f"cr:{k}"], build_basis(w, _parity_name(w)))


def ls_relations_for(w: int) -> RationalMatrix:
    """All relation rows among the weight-w matching-parity monomials.

    The rows come from two sources, in this order:

    - ``im{w+1}/pi^1``: echelon rows of the weight-(w+1) imaginary matrix
      whose pivot sits in a pi-divisible column, divided by pi;
    - ``im{w-1-2m}*pi^{1+2m}``: every echelon row of the imaginary matrix of
      weight w-1-2m, for w-1-2m = w-1, w-3, ..., 3, times pi^(1+2m).

    The closed-form rows of ``inject_cr_relation`` are not among them: lifted
    to odd w <= 11 they raise the rank by (w-3)/2 but leave l_w unchanged.
    """
    if w < 2:
        raise ValueError("weight must be >= 2")
    basis = build_basis(w, _parity_name(w))
    pos = basis.position()
    nums: list[list[int]] = []
    dens: list[int] = []
    labels: list = []

    def lift(src: RationalMatrix, shift: int, label: str, min_pi: int = 0) -> None:
        # move each echelon row of src whose pivot column has at least min_pi
        # factors of pi onto the weight-w basis, column label times pi^shift
        ech = src.rref()
        for row, den, pc in zip(ech.nums, ech.dens, ech.pivot_cols):
            if src.col_labels[pc].pi_pow >= min_pi:
                out = [0] * len(basis)
                for c, n in enumerate(row):
                    if n:
                        out[pos[src.col_labels[c].shifted(shift)]] = n
                nums.append(out)
                dens.append(den)
                labels.append(label)

    # a pivot in a pi-divisible column: the pi-ascending column order
    # guarantees the whole row is supported there
    lift(im_matrix(w + 1), -1, f"im{w + 1}/pi^1", min_pi=1)
    for src_w in range(w - 1, 2, -2):
        lift(im_matrix(src_w), w - src_w, f"im{src_w}*pi^{w - src_w}")
    return RationalMatrix(nums, labels, basis.monomials, dens=dens)


def _eliminate(matrix: RationalMatrix, relations: RationalMatrix) -> RationalMatrix:
    """Zero the relation pivot columns of ``matrix`` by exact substitution:
    each row less its pivot entries times the relations' echelon rows."""
    ech = relations.rref()
    D = lcm(*ech.dens)
    subs = [(c, [(j, n * (D // d)) for j, n in enumerate(row) if n])
            for c, row, d in zip(ech.pivot_cols, ech.nums, ech.dens)]
    nums = [[n * D for n in row] for row in matrix.nums]
    for row, out in zip(matrix.nums, nums):
        for c, terms in subs:
            if f := row[c]:
                for j, n in terms:
                    out[j] -= f * n
    return RationalMatrix(nums, matrix.row_labels, matrix.col_labels,
                          dens=[den * D for den in matrix.dens])


def reduce_mzv_matrix(w: int) -> RationalMatrix:
    """Real matrix of weight w after substituting all known monomial relations."""
    return _eliminate(re_matrix(w), ls_relations_for(w))


def compute_lk(w: int) -> int:
    """Upper bound for the dimension of the weight-w zeta span: the rank of
    ``reduce_mzv_matrix(w)``."""
    return reduce_mzv_matrix(w).rank


def reduce_real_expr(e: LsiExpr, w: int) -> LsiExpr:
    """Substitute the weight-w monomial relations into a real expression."""
    mat = _eliminate(_matrix([e], [None], build_basis(w, _parity_name(w))), ls_relations_for(w))
    return LsiExpr({m: n for m, n in zip(mat.col_labels, mat.nums[0]) if n}, 0, mat.dens[0])


# ---------------------------------------------------------------------------
# explicit zeta relations

class MzvRelation(_Frozen):
    """A Q-linear relation sum(c_k * zeta(k)) = 0 with coprime integer c_k."""

    __slots__ = _fields = ("coefficients",)  # ((Index, Fraction), ...)

    def __init__(self, coefficients: tuple[tuple[Index, Fraction], ...]):
        self._store(coefficients)

    def __str__(self) -> str:
        parts = []
        for k, c in self.coefficients:
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            coef = "" if mag == 1 else f"{mag}*"
            parts.append(f"{sign} {coef}zeta({k})".strip())
        return " ".join(parts) + " = 0"


def _normalize_relation(pairs: list[tuple[Index, int]]) -> MzvRelation:
    # nonzero integers over one denominator: divide by their gcd, make the
    # lexicographically first index's coefficient positive, order by depth
    g = gcd(*(n for _, n in pairs))
    if min(pairs, key=lambda kn: kn[0].parts)[1] < 0:
        g = -g
    pairs = sorted(pairs, key=lambda kn: (kn[0].depth, kn[0].parts))
    return MzvRelation(tuple((k, Fraction(n // g)) for k, n in pairs))


def mzv_relations(w: int) -> list[MzvRelation]:
    """Independent Q-linear relations among the weight-w zeta representatives:
    the reduced echelon basis of the left kernel {c : sum_j c_j E_j = 0} of
    E = ``reduce_mzv_matrix(w)``, since E_j is the real row j less a
    combination of the monomial relations.  With x_j = c_j / dens_j this is
    the null space of the transposed numerators (E's zero columns dropped),
    its columns last row first, so that each free column f gives the basis
    vector with leading entry c_f: x = D e_f - sum_i ech_i[f] e_(P_i) over
    the echelon rows ech_i / D."""
    mat = reduce_mzv_matrix(w)
    labels, dens = mat.row_labels[::-1], mat.dens[::-1]
    piv, ech, D = _reduce([col[::-1] for col in zip(*mat.nums) if any(col)])
    out = []
    for f in sorted(set(range(mat.nrows)) - set(piv), reverse=True):
        x = {f: D} | {p: -row[f] for p, row in zip(piv, ech) if row[f]}
        out.append(_normalize_relation([(labels[j], xj * dens[j]) for j, xj in x.items()]))
    return out
