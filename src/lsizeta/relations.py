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
   matrix by exact substitution.  Its rank, computed by ``compute_lk(w)`` as
   rank([re; rels]) - rank(rels), is the upper bound this method gives for
   the dimension of the weight-w zeta span.
5. ``mzv_relations(w)``: rows of the reduced matrix that vanish entirely give
   explicit Q-linear relations among the zeta values; coefficients are
   returned cleared to coprime integers with a deterministic sign.

Entries are ``fractions.Fraction``, row-reduced exactly on rows cleared to
integers; echelon forms are fully reduced with unit pivots.  Each zeta row built
for a matrix logs ``expanded i/n (weight w)`` at INFO on ``lsizeta.relations``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .algebra import (
    LsiExpr,
    LsiMonomial,
    imag_part,
    rational_coeffs,
    real_part,
)
from .indices import Index, dedupe_by_duality, enumerate_admissible
from .polylog import li_expand, zeta_expr

_ZERO = Fraction(0)
_ONE = Fraction(1)
_LOG = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# monomial bases

@dataclass(frozen=True)
class MonomialBasis:
    """Ordered basis of canonical monomials of one weight and parity class."""

    weight: int
    parity: str  # "odd" or "even"
    monomials: tuple[LsiMonomial, ...]

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
        monos.append(LsiMonomial(w))
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
                monos.append(LsiMonomial(pi, ks, ls))
    monos.sort(key=lambda m: m.sort_key())
    return MonomialBasis(w, parity, tuple(monos))


def _parity_name(n: int) -> str:
    return "odd" if n % 2 else "even"


# ---------------------------------------------------------------------------
# exact rational matrices

def _fraction_free(rows: list[list[Fraction]], npivot: int):
    """Fraction-free Gauss-Jordan elimination (after Bareiss 1968): clear rows
    to integers; clear each column nonzero in an unused row among the
    first ``npivot`` from all others by ``row = (pv/g)*row - (f/g)*pivot_row``
    and division by the row content.  Returns the integer rows, pivot rows
    first, and the pivot columns."""
    m = []
    for row in rows:
        d = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (d // x.denominator) for x in row])
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pr = next((i for i in range(r, npivot) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                g = gcd(pv, f)
                a, b = pv // g, f // g
                new = [a * x - b * y for x, y in zip(row, m[r])]
                g = gcd(*new)
                m[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        if len(pivots) == npivot:
            break
    return m, pivots


@dataclass
class RationalMatrix:
    """Dense matrix of Fractions with optional row/column labels."""

    rows: list[list[Fraction]]
    row_labels: list = field(default_factory=list)
    col_labels: list = field(default_factory=list)
    pivot_cols: tuple[int, ...] = ()

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else len(self.col_labels)

    def rref(self) -> "RationalMatrix":
        """Reduced row echelon form: unit pivots, zeros above and below."""
        m, pivots = _fraction_free(self.rows, self.nrows)
        rows = [[Fraction(x, row[c]) if x else _ZERO for x in row]
                for row, c in zip(m, pivots)]
        rows += [[_ZERO] * len(row) for row in m[len(pivots):]]
        return RationalMatrix(rows, [None] * self.nrows, list(self.col_labels),
                              tuple(pivots))

    @property
    def rank(self) -> int:
        if self.pivot_cols:
            return len(self.pivot_cols)
        return len(_fraction_free(self.rows, self.nrows)[1])

    def nonzero_rows(self) -> list[list[Fraction]]:
        return [row for row in self.rows if any(row)]

    def stack(self, other: "RationalMatrix") -> "RationalMatrix":
        if other.ncols != self.ncols:
            raise ValueError("column count mismatch")
        return RationalMatrix(
            [row[:] for row in self.rows] + [row[:] for row in other.rows],
            list(self.row_labels) + list(other.row_labels),
            list(self.col_labels))


def same_rowspace(a: RationalMatrix, b: RationalMatrix) -> bool:
    """Rowspace equality via the canonical reduced echelon form."""
    ra = [row for row in a.rref().rows if any(row)]
    rb = [row for row in b.rref().rows if any(row)]
    return ra == rb


# ---------------------------------------------------------------------------
# zeta coefficient matrices

def _expr_row(e: LsiExpr, basis: MonomialBasis, pos: dict[LsiMonomial, int]) -> list[Fraction]:
    row = [_ZERO] * len(basis)
    for m, c in rational_coeffs(e).items():
        j = pos.get(m)
        if j is None:
            raise ValueError(f"monomial outside declared basis: {m}")
        row[j] = c
    return row


def _zeta_rows(indices: list[Index]) -> list[LsiExpr]:
    exprs = []
    for i, k in enumerate(indices):
        exprs.append(zeta_expr(k))
        _LOG.info("expanded %d/%d (weight %d)", i + 1, len(indices), k.weight)
    return exprs


def re_matrix(w: int) -> RationalMatrix:
    """Real parts of weight-w zeta expressions over the matching-parity basis."""
    indices = dedupe_by_duality(enumerate_admissible(w))
    basis = build_basis(w, _parity_name(w))
    pos = basis.position()
    exprs = _zeta_rows(indices)
    rows = [_expr_row(real_part(e), basis, pos) for e in exprs]
    return RationalMatrix(rows, list(indices), list(basis.monomials))


def im_matrix(w: int) -> RationalMatrix:
    """Imaginary parts of weight-w zeta expressions (self-dual rows dropped)."""
    indices = dedupe_by_duality(enumerate_admissible(w), drop_self_dual=True)
    basis = build_basis(w, _parity_name(w + 1))
    pos = basis.position()
    exprs = _zeta_rows(indices)
    rows = [_expr_row(imag_part(e), basis, pos) for e in exprs]
    return RationalMatrix(rows, list(indices), list(basis.monomials))


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
    rhs = real_part(zeta_expr(Index((w,)))).scaled(factor)
    basis = build_basis(w, _parity_name(w))
    pos = basis.position()
    row = _expr_row(lhs - rhs, basis, pos)
    return RationalMatrix([row], [f"cr:{k}"], list(basis.monomials))


def ls_relations_for(w: int, use_cr: tuple[int, ...] = ()) -> RationalMatrix:
    """All relation rows among the weight-w matching-parity monomials.

    The rows come from two sources, in this order:

    - ``im{w+1}/pi^1``: echelon rows of the weight-(w+1) imaginary matrix
      whose pivot sits in a pi-divisible column, divided by pi;
    - ``im{w-1-2m}*pi^{1+2m}``: every echelon row of the imaginary matrix of
      weight w-1-2m, for w-1-2m = w-1, w-3, ..., 3, times pi^(1+2m).

    ``use_cr`` appends the closed-form rows ``cr:{k}*pi^{w-2k-1}`` of
    ``inject_cr_relation`` for the given k values.  At odd w <= 11 all of
    them together raise the rank by (w-3)/2 but leave l_w unchanged.
    """
    if w < 2:
        raise ValueError("weight must be >= 2")
    basis = build_basis(w, _parity_name(w))
    pos = basis.position()
    rows: list[list[Fraction]] = []
    labels: list = []

    def lift(src: RationalMatrix, src_rows, shift: int, label: str) -> None:
        # move each row onto the weight-w basis, column label times pi^shift
        for row in src_rows:
            out = [_ZERO] * len(basis)
            for c, val in enumerate(row):
                if val:
                    out[pos[src.col_labels[c].shifted(shift)]] = val
            rows.append(out)
            labels.append(label)

    src = im_matrix(w + 1)
    ech = src.rref()
    # a pivot in a pi-divisible column: the pi-ascending column order
    # guarantees the whole row is supported there
    lift(src, [row for row, pc in zip(ech.rows, ech.pivot_cols)
               if src.col_labels[pc].pi_pow >= 1], -1, f"im{w + 1}/pi^1")

    for src_w in range(w - 1, 2, -2):
        src = im_matrix(src_w)
        lift(src, src.rref().nonzero_rows(), w - src_w, f"im{src_w}*pi^{w - src_w}")

    for k in use_cr:
        shift = w - 2 * k - 1
        if shift < 0 or shift % 2:
            raise ValueError(f"cr relation of weight {2 * k + 1} unusable at weight {w}")
        src = inject_cr_relation(k)
        lift(src, src.nonzero_rows(), shift, f"cr:{k}*pi^{shift}")

    return RationalMatrix(rows, labels, list(basis.monomials))


def _eliminate(matrix: RationalMatrix, relations: RationalMatrix) -> RationalMatrix:
    """Zero the relation pivot columns of ``matrix`` by exact substitution."""
    # a last column, 1 on matrix rows and 0 on relations, carries each row's scale
    m, _ = _fraction_free([row + [_ZERO] for row in relations.rows]
                          + [row + [_ONE] for row in matrix.rows], relations.nrows)
    rows = [[Fraction(x, row[-1]) if x else _ZERO for x in row[:-1]]
            for row in m[relations.nrows:]]
    return RationalMatrix(rows, list(matrix.row_labels), list(matrix.col_labels))


def reduce_mzv_matrix(w: int, use_cr: tuple[int, ...] = ()) -> RationalMatrix:
    """Real matrix of weight w after substituting all known monomial relations."""
    base = re_matrix(w)
    rels = ls_relations_for(w, use_cr)
    if not rels.rows:
        return base
    return _eliminate(base, rels)


def compute_lk(w: int, use_cr: tuple[int, ...] = ()) -> int:
    """Upper bound for the dimension of the weight-w zeta span: the rank of
    ``reduce_mzv_matrix(w)``, which is zero on the relation pivots, so equals
    rank([re; rels]) - rank(rels)."""
    rels = ls_relations_for(w, use_cr)
    return re_matrix(w).stack(rels).rank - rels.rank


def reduce_real_expr(e: LsiExpr, w: int) -> LsiExpr:
    """Substitute the weight-w monomial relations into a real expression."""
    basis = build_basis(w, _parity_name(w))
    pos = basis.position()
    mat = RationalMatrix([_expr_row(e, basis, pos)], [None], list(basis.monomials))
    rels = ls_relations_for(w)
    if rels.rows:
        mat = _eliminate(mat, rels)
    return LsiExpr(dict(zip(basis.monomials, mat.rows[0])))


# ---------------------------------------------------------------------------
# explicit zeta relations

@dataclass(frozen=True)
class MzvRelation:
    """A Q-linear relation sum(c_k * zeta(k)) = 0 with coprime integer c_k."""

    coefficients: tuple[tuple[Index, Fraction], ...]

    def coeff_map(self) -> dict[Index, Fraction]:
        return dict(self.coefficients)

    def __str__(self) -> str:
        parts = []
        for k, c in self.coefficients:
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            coef = "" if mag == 1 else f"{mag}*"
            parts.append(f"{sign} {coef}zeta({k})".strip())
        return " ".join(parts) + " = 0"


def _normalize_relation(pairs: list[tuple[Index, Fraction]]) -> MzvRelation:
    pairs = [(k, c) for k, c in pairs if c]
    denoms = lcm(*(c.denominator for _, c in pairs)) if pairs else 1
    ints = [(k, c * denoms) for k, c in pairs]
    g = gcd(*(int(c) for _, c in ints)) if ints else 1
    ints = [(k, Fraction(int(c) // g)) for k, c in ints]
    # fix sign: lexicographically-first index gets a positive coefficient
    lexfirst = min(ints, key=lambda kc: kc[0].parts)
    if lexfirst[1] < 0:
        ints = [(k, -c) for k, c in ints]
    ints.sort(key=lambda kc: (kc[0].depth, kc[0].parts))
    return MzvRelation(tuple(ints))


def mzv_relations(w: int) -> list[MzvRelation]:
    """Independent Q-linear relations among the weight-w zeta representatives.

    Row-reduce the relation-reduced real matrix augmented with an identity
    block tracking the zeta combination of each row; rows whose monomial part
    vanishes entirely are relations.
    """
    reduced = reduce_mzv_matrix(w)
    n = reduced.nrows
    nc = reduced.ncols
    aug = RationalMatrix(
        [row[:] + [_ONE if i == j else _ZERO for j in range(n)]
         for i, row in enumerate(reduced.rows)],
        list(reduced.row_labels),
        list(reduced.col_labels) + list(reduced.row_labels))
    ech = aug.rref()
    out = []
    for row in ech.rows:
        if any(row[:nc]) or not any(row[nc:]):
            continue
        pairs = [(reduced.row_labels[j], row[nc + j]) for j in range(n) if row[nc + j]]
        out.append(_normalize_relation(pairs))
    return out
