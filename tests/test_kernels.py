"""The integer kernels against ``Fraction`` and modular witnesses.

``algebra`` and ``polylog`` sum integer numerators over one common denominator
and store an expression as integer numerators over one positive denominator,
each coefficient's power of i implied by the phase bit.
The functions below are the earlier per-term formulation of the same kernels,
kept here only as an independent reference: every coefficient is a Gaussian
rational, a local pair of ``Fraction``s, so the witness assumes no phase rule,
and every step takes a gcd.  They share nothing with the library but the
shuffle interleavings and the single reduction step.

``relations`` row-reduces modulo many primes and lifts the result, with a
certificate.  Its witnesses: ``ref_rref`` and ``ref_eliminate``, the earlier
``Fraction`` Gauss-Jordan loop and substitution; ``_fraction_free``, the
earlier integer Gauss-Jordan kernel (Bareiss 1968), with ``ff_eliminate``,
its scale-column substitution; and ``mod_rank``, an independent rank over two
31-bit primes.
"""

import os
import random
from fractions import Fraction
from itertools import chain, zip_longest
from math import factorial, gcd, lcm

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lsizeta.algebra import (
    LsiExpr,
    LsiMonomial,
    _interleavings,
    _reduce_step,
    canonicalize,
    conjugate,
    imag_part,
    monomial_from_cols,
    multiply,
    real_part,
)
from lsizeta import algebra, polylog, relations
from lsizeta.indices import Index, dual, enumerate_admissible, truncate
from lsizeta.polylog import li_expand, zeta_expr
from lsizeta.relations import (
    RationalMatrix,
    _eliminate,
    _primes,
    compute_lk,
    im_matrix,
    ls_relations_for,
    mzv_relations,
    re_matrix,
    reduce_mzv_matrix,
)

# ---------------------------------------------------------------------------
# Q(i) as (re, im) pairs of Fractions; an expression as {monomial: pair}

ZERO, ONE = Fraction(0), Fraction(1)


def q_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def i_pow(r, mag=ONE):
    """mag * i^r."""
    return ((mag, ZERO), (ZERO, mag), (-mag, ZERO), (ZERO, -mag))[r % 4]


def q_add_into(acc, key, v):
    s = acc.get(key)
    s = v if s is None else (s[0] + v[0], s[1] + v[1])
    if any(s):
        acc[key] = s
    elif key in acc:
        del acc[key]


def qi(e):
    """The Gaussian-rational map of an ``LsiExpr``."""
    return {m: (ZERO, c) if e.is_imag(m) else (c, ZERO) for m, c in e.terms()}


def lsi(d):
    """The ``LsiExpr`` of a map whose coefficients are i^(q + t) times
    rationals for one t, q the monomial's phase."""
    bits = {(m.phase + bool(im)) % 2 for m, (re, im) in d.items()}
    assert len(bits) <= 1 and not any(re and im for re, im in d.values())
    return LsiExpr({m: re or im for m, (re, im) in d.items()}, bits.pop() if bits else 0)


# ---------------------------------------------------------------------------
# reference kernels: one Fraction operation per term

_REF_CANON: dict = {}
_REF_PRODUCT: dict = {}


def ref_canon_cols(cols, strategy="leftmost"):
    cached = _REF_CANON.get((cols, strategy))
    if cached is not None:
        return cached
    reducible = [j for j, (k, l) in enumerate(cols, 1) if k - 1 - l == 0]
    if not reducible:
        result = {monomial_from_cols(0, cols): Fraction(1)}
    else:
        j = reducible[0] if strategy == "leftmost" else reducible[-1]
        result = {}
        for n, d, dpi, child in _reduce_step(cols, j):
            for mono, g in ref_canon_cols(child, strategy).items():
                key = mono.shifted(dpi)
                result[key] = result.get(key, 0) + Fraction(n, d) * g
        result = {m: c for m, c in result.items() if c}
    _REF_CANON[(cols, strategy)] = result
    return result


def ref_canonicalize(e, strategy="leftmost"):
    """Canonical form of an ``LsiExpr`` or Gaussian-rational map, reducing at
    the ``strategy`` end first."""
    acc = {}
    for m, (re, im) in (qi(e) if isinstance(e, LsiExpr) else e).items():
        for mono, f in ref_canon_cols(m.cols(), strategy).items():
            q_add_into(acc, mono.shifted(m.pi_pow), (re * f, im * f))
    return acc


def ref_product_cols(a, b):
    if b < a:
        a, b = b, a
    cached = _REF_PRODUCT.get((a, b))
    if cached is not None:
        return cached
    acc = {}
    for cols in _interleavings(a, b):
        for mono, f in ref_canon_cols(cols).items():
            acc[mono] = acc.get(mono, 0) + f
    acc = {m: c for m, c in acc.items() if c}
    _REF_PRODUCT[(a, b)] = acc
    return acc


def ref_multiply(a, b):
    acc = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            re, im = q_mul(ca, cb)
            dpi = ma.pi_pow + mb.pi_pow
            for mono, f in ref_product_cols(ma.cols(), mb.cols()).items():
                q_add_into(acc, mono.shifted(dpi), (re * f, im * f))
    return acc


def ref_multiply_half(a, b, half, conj):
    """The real (half 0) or imaginary (half 1) part of a times b, b conjugated
    if ``conj``, as a map of real pairs: one Fraction product per pair of
    terms, each signed by i*i = -1 and by the conjugation, and kept if its
    part is the half's."""
    acc = {}
    for ma, (ra, ia) in a.items():
        for mb, (rb, ib) in b.items():
            ib = -ib if conj else ib
            c = (ra * ib + ia * rb) if half else (ra * rb - ia * ib)
            dpi = ma.pi_pow + mb.pi_pow
            for mono, f in ref_product_cols(ma.cols(), mb.cols()).items():
                q_add_into(acc, mono.shifted(dpi), (c * f, ZERO))
    return acc


def _ref_inner_factor_terms(e):
    out = []
    for a_next in range(e + 1):
        for a_cur in range(e + 1 - a_next):
            for t_next in range(e + 1 - a_next - a_cur):
                t_cur = e - a_next - a_cur - t_next
                sign = -1 if (a_cur + t_next) % 2 else 1
                mag = Fraction(sign, 2 ** (t_next + t_cur)
                               * factorial(a_next) * factorial(a_cur)
                               * factorial(t_next) * factorial(t_cur))
                out.append((a_next, t_next, a_cur, t_cur, i_pow(t_next + t_cur, mag)))
    return out


def _ref_last_factor_terms(e):
    out = []
    for a_cur in range(e + 1):
        for t_cur in range(e + 1 - a_cur):
            c_pi = e - a_cur - t_cur
            sign = -1 if (a_cur + c_pi) % 2 else 1
            mag = Fraction(sign, 2 ** t_cur * 6 ** c_pi
                           * factorial(a_cur) * factorial(t_cur) * factorial(c_pi))
            out.append((c_pi, a_cur, t_cur, i_pow(t_cur + c_pi, mag)))
    return out


def ref_li_raw(k):
    """The state convolution of Li_k before canonicalization, as a Gaussian-rational map."""
    n = k.depth
    if n == 0:
        return {LsiMonomial(): (ONE, ZERO)}
    states = {(0, 0, 0, ()): (ONE, ZERO)}
    for u, ku in enumerate(k.parts):
        last = u == n - 1
        terms = _ref_last_factor_terms(ku - 1) if last else _ref_inner_factor_terms(ku - 1)
        new = {}
        for (carry_a, carry_t, pi, cols), coeff in states.items():
            for term in terms:
                if last:
                    c_pi, a_cur, t_cur, c = term
                    l = carry_t + t_cur
                    key = (0, 0, pi + c_pi, cols + ((carry_a + a_cur + l + 1, l),))
                else:
                    a_next, t_next, a_cur, t_cur, c = term
                    l = carry_t + t_cur
                    key = (a_next, t_next, pi, cols + ((carry_a + a_cur + l + 1, l),))
                q_add_into(new, key, q_mul(coeff, c))
        states = new
    front = i_pow(n, Fraction((-1) ** n))
    acc = {}
    for (_, _, pi, cols), coeff in states.items():
        q_add_into(acc, monomial_from_cols(pi, cols), q_mul(coeff, front))
    return acc


def ref_zeta_expr(k):
    w, kd = k.weight, dual(k)
    total = {}
    for m in range(w + 1):
        left = ref_canonicalize(ref_li_raw(truncate(k, m)))
        right = ref_canonicalize(ref_li_raw(truncate(kd, w - m)))
        conj = {mono: (re, -im) for mono, (re, im) in right.items()}
        for mono, c in ref_multiply(left, conj).items():
            q_add_into(total, mono, c)
    return total


# ---------------------------------------------------------------------------
# the expansion pipeline against the witness, every admissible index


def _truncations(k):
    seen = set()
    for kk in (k, dual(k)):
        for m in range(kk.weight + 1):
            t = truncate(kk, m)
            if t not in seen:
                seen.add(t)
                yield t


@pytest.mark.parametrize("w", range(2, 9))
def test_expansions_match_witness(w):
    seen = set()
    for k in enumerate_admissible(w):
        assert qi(zeta_expr(k)) == ref_zeta_expr(k), k
        for t in _truncations(k):
            if t in seen:
                continue
            seen.add(t)
            raw = ref_li_raw(t)
            assert qi(li_expand(t)) == ref_canonicalize(raw), t
            # the other reduction order reaches the same canonical form
            assert qi(canonicalize(lsi(raw))) == ref_canonicalize(raw, "rightmost"), t


def test_expansion_order_does_not_matter(fresh_caches):
    # Each expansion starts from the inner states of the index expanded before
    # it, so any request order must give the witness's expansions.
    ts = sorted({t for w in range(2, 9) for k in enumerate_admissible(w)
                 for t in _truncations(k)}, key=lambda t: t.parts)
    random.Random(9).shuffle(ts)
    for t in ts:
        assert qi(li_expand(t)) == ref_canonicalize(ref_li_raw(t)), t
    polylog._li_expand_uncached(Index((2, 3)))
    assert [part for part, _, _ in polylog._PREFIX] == [2]
    polylog.clear_caches()
    assert not polylog._PREFIX


def test_alternating_families(fresh_caches):
    a, b = (list(_truncations(Index(p))) for p in [(2, 3, 4), (3, 1, 2)])
    for t in chain.from_iterable(zip_longest(a, b)):
        if t is not None:
            assert qi(li_expand(t)) == ref_canonicalize(ref_li_raw(t)), t


def _phase_ok(d):
    # the coefficient of m is i^q times a nonzero rational, q = m.phase
    return all(any(c) and not c[(m.phase + 1) % 2] for m, c in d.items())


def test_phase_is_depth_plus_pi_power_plus_sum_l():
    assert LsiMonomial(2, (3, 2), (1, 0)).phase == 2 + 2 + 1
    assert LsiMonomial(4).phase == 4


@pytest.mark.parametrize("w", range(2, 10))
def test_phase_invariant(w):
    # The witness's raw expansions are i^q times rationals, and every reduction
    # step keeps q, so phase bit 0 represents the expansions exactly.
    seen = set()
    for k in enumerate_admissible(w):
        assert zeta_expr(k).t == 0, k
        for t in _truncations(k):
            if t in seen:
                continue
            seen.add(t)
            raw = ref_li_raw(t)
            assert _phase_ok(raw) and li_expand(t).t == 0, t
            for m in raw:
                for j, (kj, lj) in enumerate(m.cols(), 1):
                    if kj - 1 - lj == 0:
                        assert all(monomial_from_cols(m.pi_pow + dpi, child).phase == m.phase
                                   for *_, dpi, child in _reduce_step(m.cols(), j)), (m, j)


# ---------------------------------------------------------------------------
# random expressions: rational coefficients under a random phase bit


@st.composite
def monomials(draw, max_depth=3):
    ks = draw(st.lists(st.integers(1, 4), max_size=max_depth))
    ls = [draw(st.integers(0, k - 1)) for k in ks]
    return LsiMonomial(draw(st.integers(0, 2)), tuple(ks), tuple(ls))


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=36)


def exprs(max_depth=3, max_size=4):
    return st.builds(LsiExpr, st.dictionaries(monomials(max_depth), rationals,
                                              max_size=max_size), st.integers(0, 1))


@settings(max_examples=150, deadline=None)
@given(exprs())
def test_canonicalize_matches_witness(e):
    got = canonicalize(e)
    assert qi(got) == ref_canonicalize(e) == ref_canonicalize(e, "rightmost")
    assert canonicalize(e - got) == LsiExpr.zero()  # every term cancels


@settings(max_examples=150, deadline=None)
@given(exprs(2, 3), exprs(2, 3))
def test_multiply_matches_witness(a, b):
    assert qi(multiply(a, b)) == ref_multiply(qi(a), qi(b))
    assert multiply(a, b, (a, -b)) == LsiExpr.zero()
    c = canonicalize(a)  # a - c is zero once canonical, so is its product
    assert multiply(a - c, b) == LsiExpr.zero()
    assert ref_multiply(qi(a - c), qi(b)) == {}


@settings(max_examples=150, deadline=None)
@given(exprs(2, 3), exprs(2, 3), st.integers(0, 1), st.booleans())
def test_one_half_product_matches_witness(a, b, half, conj):
    got = multiply(a, b, half=half, conj=conj)
    assert qi(got) == ref_multiply_half(qi(a), qi(b), half, conj)
    assert got == (imag_part if half else real_part)(multiply(a, conjugate(b) if conj else b))
    # sums that cancel: a pair negated, a non-canonical difference, and the
    # imaginary half of a times its conjugate, whose pairs cancel two by two
    assert multiply(a, b, (a, -b), half=half, conj=conj) == LsiExpr.zero()
    c = canonicalize(a)
    assert multiply(a - c, b, half=half, conj=conj) == LsiExpr.zero()
    assert ref_multiply_half(qi(a - c), qi(b), half, conj) == {}
    assert multiply(a, a, half=1, conj=True) == LsiExpr.zero()
    assert ref_multiply_half(qi(a), qi(a), 1, True) == {}


@settings(max_examples=60, deadline=None)
@given(exprs(2, 3), exprs(2, 3), exprs(2, 3), exprs(2, 3))
def test_further_pairs_add_their_products(a, b, c, d):
    d = LsiExpr(dict(d.terms()), a.t ^ b.t ^ c.t)  # both products on one phase bit
    assert multiply(a, b, (c, d)) == multiply(a, b) + multiply(c, d)


def assert_normal(e, what):
    # one positive denominator sharing no factor with all the numerators, none zero
    nums = [n for _, n in e.numerators()]
    assert e.den > 0 and gcd(e.den, *nums) == 1 and all(nums), what


@settings(max_examples=100, deadline=None)
@given(exprs(2, 3), exprs(2, 3), rationals.filter(bool), st.integers(0, 1))
def test_every_operation_keeps_the_normal_form(a, b, r, half):
    b = LsiExpr(dict(b.terms()), a.t)  # on a's bit, so that + and - apply
    built = {"constructor": a, "multiply": multiply(a, b), "pairs": multiply(a, b, (b, a)),
             "half": multiply(a, b, half=half, conj=True), "canonicalize": canonicalize(a),
             "+": a + b, "-": a - b, "cancel": a - a, "neg": -a, "scaled": a.scaled(r),
             "conjugate": conjugate(a), "real": real_part(a), "imag": imag_part(a)}
    for what, e in built.items():
        assert_normal(e, what)


@settings(max_examples=100, deadline=None)
@given(exprs(2, 3), exprs(2, 3), rationals.filter(bool))
def test_equal_values_compare_and_hash_equal(a, b, r):
    # the same value reached by different routes has one denominator and one hash
    b = LsiExpr(dict(b.terms()), a.t)
    p = multiply(a, b)
    routes = [(LsiExpr(dict(p.terms()), p.t), p),  # the public constructor from Fractions
              (multiply(b, a), p),
              (multiply(a, b, half=0), real_part(p)), (multiply(a, b, half=1), imag_part(p)),
              ((a + b) - b, a), (-(-a), a), (a.scaled(r).scaled(1 / r), a),
              (a.scaled(r), LsiExpr({m: c * r for m, c in a.terms()}, a.t)),
              (real_part(a) + LsiExpr(dict(imag_part(a).terms()), a.t), a)]
    for got, want in routes:
        assert got == want and hash(got) == hash(want) and got.den == want.den, (got, want)


# ---------------------------------------------------------------------------
# row reduction against the Fraction Gauss-Jordan loop


def ref_rref(rows):
    """Reduced row echelon form, one ``Fraction`` operation per entry."""
    m = [row[:] for row in rows]
    nr = len(m)
    nc = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        if pv != 1:
            m[r] = [x / pv for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return m, tuple(pivots)


def ref_eliminate(rows, relations):
    """Subtract from each row the echelon relation rows that clear their pivots."""
    ech, pivots = ref_rref(relations)
    out = [row[:] for row in rows]
    for rrow, pc in zip(ech, pivots):
        for row in out:
            f = row[pc]
            if f:
                for c in range(len(row)):
                    if rrow[c]:
                        row[c] -= f * rrow[c]
    return out


def _fraction_free(rows, npivot):
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


def ff_rref(rows):
    m, pivots = _fraction_free(rows, len(rows))
    out = [[Fraction(x, row[c]) for x in row] for row, c in zip(m, pivots)]
    return out + [[ZERO] * len(row) for row in m[len(pivots):]], tuple(pivots)


def ff_eliminate(rows, relations):
    """Substitution by ``_fraction_free`` with a last column, 1 on the rows and
    0 on the relations, that carries each row's scale."""
    m, _ = _fraction_free([row + [ZERO] for row in relations]
                         + [row + [ONE] for row in rows], len(relations))
    return [[Fraction(x, row[-1]) for x in row[:-1]] for row in m[len(relations):]]


def assert_normal_form(matrix):
    """Row i is the ints nums[i] over dens[i] > 0, sharing no factor with all
    of them (so a zero row has denominator 1)."""
    assert len(matrix.nums) == len(matrix.dens)
    for row, den in zip(matrix.nums, matrix.dens):
        assert type(den) is int and den > 0 and gcd(den, *row) == 1
        assert all(type(n) is int for n in row)


def assert_rref_matches(matrix):
    got = matrix.rref()
    rows, pivots = ref_rref(matrix.rows)
    assert_normal_form(matrix)
    assert_normal_form(got)
    assert got.pivot_cols == pivots
    assert got.rows == rows
    assert all(type(x) is Fraction for row in got.rows for x in row)
    assert matrix.rank == len(pivots)


def mzv_augmented(w):
    """The earlier route to ``mzv_relations(w)``: the relation-reduced real
    rows beside an identity."""
    reduced = reduce_mzv_matrix(w)
    n = reduced.nrows
    return RationalMatrix([row + [Fraction(int(i == j)) for j in range(n)]
                           for i, row in enumerate(reduced.rows)])


def mzv_stacked(w):
    """The matrix ``mzv_relations(w)`` row-reduces: the relation rows padded
    with zeros over the real rows beside an identity."""
    base, rels = re_matrix(w), ls_relations_for(w)
    n = base.nrows
    return RationalMatrix([row + [ZERO] * n for row in rels.rows]
                          + [row + [Fraction(int(i == j)) for j in range(n)]
                             for i, row in enumerate(base.rows)])


@pytest.mark.parametrize("build,w", [
    *(pytest.param(im_matrix, w, id=f"im{w}") for w in range(3, 10)),
    *(pytest.param(re_matrix, w, id=f"re{w}") for w in range(2, 9)),
    *(pytest.param(ls_relations_for, w, id=f"rels{w}") for w in range(2, 9)),
    *(pytest.param(mzv_augmented, w, id=f"mzv{w}") for w in range(2, 8)),
    *(pytest.param(mzv_stacked, w, id=f"mzv-stacked{w}") for w in range(2, 8)),
])
def test_rref_matches_witness(build, w):
    assert_rref_matches(build(w))
    if build is im_matrix:
        assert ff_rref(build(w).rows) == ref_rref(build(w).rows)


def zeta_parts(ech, labels, nc):
    """The relations read from the echelon rows of a matrix [M | I] whose
    pivot lies in the identity block, so whose monomial part M vanishes."""
    out = []
    for row, pc in zip(ech.rows, ech.pivot_cols):
        if pc >= nc:
            d = lcm(*(x.denominator for x in row))
            out.append(relations._normalize_relation(
                [(k, int(x * d)) for k, x in zip(labels, row[nc:]) if x]))
    return out


@pytest.mark.parametrize("w", range(2, 9))
def test_mzv_relations_match_the_reduced_route(w):
    # the left kernel of reduce_mzv_matrix(w) against the two earlier routes:
    # the relation-reduced rows beside an identity, and the relation rows over
    # the real rows beside an identity; the same space, so the same basis
    base = re_matrix(w)
    got = mzv_relations(w)
    assert got == zeta_parts(mzv_augmented(w).rref(), base.row_labels, base.ncols)
    assert got == zeta_parts(mzv_stacked(w).rref(), base.row_labels, base.ncols)


@pytest.mark.parametrize("w", range(2, 9))
def test_eliminate_matches_witness(w):
    base, rels = re_matrix(w), ls_relations_for(w)
    got = _eliminate(base, rels)
    assert_normal_form(got)
    assert got.rows == ref_eliminate(base.rows, rels.rows) == ff_eliminate(base.rows, rels.rows)
    assert got.row_labels == base.row_labels and got.col_labels == base.col_labels


big_rationals = st.builds(Fraction, st.integers(-2**40, 2**40), st.integers(1, 2**40))
entries = st.one_of(st.just(Fraction(0)), big_rationals,
                    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))


@st.composite
def rational_matrices(draw, nc=None):
    nr = draw(st.integers(1, 6))
    nc = nc or draw(st.integers(1, 7))
    rows = [[draw(entries) for _ in range(nc)] for _ in range(nr)]
    for _ in range(draw(st.integers(0, 2))):  # repeated and scaled rows
        row = draw(st.sampled_from(rows))
        f = draw(big_rationals)
        rows.insert(draw(st.integers(0, len(rows))), [f * x for x in row])
    return rows


ZERO3x4 = [[Fraction(0)] * 4 for _ in range(3)]
ROW = [[Fraction(3, 2**40), Fraction(0), Fraction(-5, 7)]]
COL = [[Fraction(0)], [Fraction(2, 2**40 - 1)], [Fraction(-4)]]
DUP = [[Fraction(1, 3), Fraction(2)], [Fraction(1, 3), Fraction(2)]]


@settings(max_examples=300, deadline=None)
@given(rational_matrices())
@example(ZERO3x4).via("all-zero")
@example(ROW).via("1xn")
@example(COL).via("nx1")
@example(DUP).via("duplicated rows")
def test_rref_matches_witness_on_random_matrices(rows):
    matrix = RationalMatrix(rows)
    assert matrix.rows == rows
    assert all(type(x) is Fraction for row in matrix.rows for x in row)
    assert_rref_matches(matrix)
    assert_normal_form(matrix.stack(matrix))


@pytest.mark.parametrize("rows", [ZERO3x4, [], [[], []], [[0, 2, 0], [0, -4, 0], [0, 0, 0]]],
                         ids=["all-zero", "empty", "no-columns", "zero-columns"])
def test_rank_is_the_rref_pivot_count(rows):
    # rank row-reduces the transpose's nonzero rows, rref the matrix itself
    matrix = RationalMatrix(rows)
    assert matrix.rank == len(matrix.rref().pivot_cols) == int(any(map(any, rows)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7).flatmap(lambda nc: st.tuples(rational_matrices(nc),
                                                      rational_matrices(nc))))
@example((ZERO3x4, ZERO3x4)).via("all-zero")
@example((ROW, ROW)).via("1xn")
@example((COL, COL)).via("nx1")
def test_eliminate_matches_witness_on_random_matrices(pair):
    rows, relations = pair
    got = _eliminate(RationalMatrix(rows), RationalMatrix(relations))
    assert_normal_form(got)
    assert got.rows == ref_eliminate(rows, relations)


# entries beyond int64: numerators up to 2^70 over denominators up to 2^40
huge = st.builds(Fraction, st.integers(-2**70, 2**70), st.integers(1, 2**40))


@st.composite
def huge_matrices(draw, nc=None):
    nc = nc or draw(st.integers(1, 6))
    rows = [[draw(st.one_of(st.just(ZERO), huge)) for _ in range(nc)]
            for _ in range(draw(st.integers(1, 5)))]
    if draw(st.booleans()):  # a dependent row
        f, g = draw(huge), draw(huge)
        rows.append([f * x + g * y for x, y in zip(rows[0], rows[-1])])
    return rows


@settings(max_examples=60, deadline=None)
@given(huge_matrices())
def test_rref_matches_witnesses_beyond_int64(rows):
    got = RationalMatrix(rows).rref()
    assert_normal_form(got)
    assert (got.rows, got.pivot_cols) == ref_rref(rows) == ff_rref(rows)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6).flatmap(lambda nc: st.tuples(huge_matrices(nc), huge_matrices(nc))))
def test_eliminate_matches_witnesses_beyond_int64(pair):
    rows, relations = pair
    got = _eliminate(RationalMatrix(rows), RationalMatrix(relations))
    assert_normal_form(got)
    assert got.rows == ref_eliminate(rows, relations) == ff_eliminate(rows, relations)


@pytest.mark.usefixtures("fresh_caches")
def test_relation_matrices_build_no_fraction(monkeypatch):
    # integer rows go from the expansions through _reduce to the echelon form
    # and the relations; Fractions appear only at the public edges
    made = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return super().__new__(cls, *args, **kwargs)

    for module in (algebra, polylog, relations):
        monkeypatch.setattr(module, "Fraction", Counted)
    ls_relations_for(7)
    compute_lk(9)
    assert not made
    assert im_matrix(4).rows and made  # the patch is seen: the rows view is an edge


def spy(monkeypatch, name, change=None):
    """Record each call of a ``relations`` kernel function, with its result
    passed through ``change`` (the call number and the result) if given."""
    calls, original = [], getattr(relations, name)

    def wrapper(*args):
        result = original(*args)
        if change is not None:
            result = change(len(calls), result)
        calls.append((args, result))
        return result

    monkeypatch.setattr(relations, name, wrapper)
    return calls


def test_prime_without_the_pivot_is_dropped(monkeypatch):
    # column 0 is p_0 and 0: modulo the first prime it has no pivot, so that
    # prime would give rank 1 and pivots (1,) where the others give (0, 1)
    p0 = int(_primes(0, 1)[0])
    rows = [[Fraction(p0), ONE], [ZERO, Fraction(1, 3)]]
    eliminations = spy(monkeypatch, "_gauss_jordan")
    assert_rref_matches(RationalMatrix(rows))
    for (_, primes), (_, kept, pivots) in eliminations:
        assert primes[0] != p0 or p0 not in kept.tolist()
        assert pivots == [0, 1]
    assert any(primes[0] == p0 for (_, primes), _ in eliminations)


def test_corrupted_reconstruction_is_rejected(monkeypatch):
    # one entry of D*R off by one: the certificate must fail, and the kernel
    # must lift again from more primes instead of returning a wrong R
    matrix = im_matrix(6)
    ech, pivots = ref_rref(matrix.rows)
    j = next(c for c, x in enumerate(ech[0]) if x and c not in pivots)

    def corrupt(n, lifted):
        if n or lifted is None:
            return lifted
        D, v, neg, W = lifted
        v = v.copy()
        v[0, 0, j] = (v[0, 0, j] + 1) % relations._PRIMES[0]
        return D, v, neg, W

    lifts = spy(monkeypatch, "_lift", corrupt)
    checks = spy(monkeypatch, "_certified")
    assert_rref_matches(matrix)
    assert checks[0][1] is False and checks[-1][1] is True
    assert len(lifts[1][0][1]) > len(lifts[0][0][1])  # the retry has more primes


def test_bound_covers_the_most_negative_int64(monkeypatch):
    # -2^63 fits int64 but its magnitude does not: the certificate's bound on
    # max|A| must still reach 2^63, or too few primes would be checked
    rows = [[Fraction(-2**63), ONE, Fraction(3)], [ONE, ZERO, Fraction(-2**63)]]
    checks = spy(monkeypatch, "_certified")
    got = RationalMatrix(rows).rref()
    assert (got.rows, got.pivot_cols) == ref_rref(rows)
    assert checks and all(args[1] >= 2**63 for args, _ in checks)


def test_lift_redoes_a_block_only_if_d_grew_after_it(monkeypatch):
    # im(4) is one block whose echelon row has denominators: a pass at D = 1
    # finds them, and one more makes the digits at the grown D
    garners = spy(monkeypatch, "_garner")
    im_matrix(4).rref()
    assert len(garners) == 2
    # three blocks of rows, halves in the second: that block is redone at
    # once, the third made at the grown D, and the first made again; growing
    # D by whole sweeps took six passes
    garners.clear()
    rows = [[Fraction(2 * (j == i) + (i >= 64 and j == 130)) for j in range(131)]
            for i in range(130)]
    got = RationalMatrix(rows).rref()
    assert [args[2] for args, _ in garners] == [1, 1, 2, 2, 2]
    assert got.pivot_cols == tuple(range(130))
    assert got.rows == [[Fraction(j == i) + (i >= 64 and j == 130) / Fraction(2)
                         for j in range(131)] for i in range(130)]


# ---------------------------------------------------------------------------
# ranks against an independent rank modulo two 31-bit primes

PRIMES = (2_147_483_647, 2_147_483_629)

STRETCH = pytest.mark.skipif(os.environ.get("LSIZETA_STRETCH") == "0",
                             reason="stretch tier disabled")


def mod_rank(rows, p):
    """Rank over GF(p) of rational rows, each first cleared to integers."""
    if not rows:
        return 0
    ints = []
    for row in rows:
        d = lcm(*(x.denominator for x in row))
        ints.append([x.numerator * (d // x.denominator) % p for x in row])
    a = np.array(ints, dtype=np.int64)
    rank = 0
    for c in range(a.shape[1]):
        nz = np.flatnonzero(a[rank:, c])
        if not nz.size:
            continue
        a[[rank, rank + nz[0]]] = a[[rank + nz[0], rank]]
        a[rank] = a[rank] * pow(int(a[rank, c]), -1, p) % p
        # entries stay below p < 2**31, so each product fits in int64
        a[rank + 1:] = (a[rank + 1:] - a[rank + 1:, c:c + 1] * a[rank] % p) % p
        rank += 1
        if rank == a.shape[0]:
            break
    return rank


def assert_rank_matches(matrix):
    assert {mod_rank(matrix.rows, p) for p in PRIMES} == {matrix.rank}


@pytest.mark.parametrize("w", [*range(2, 10), pytest.param(10, marks=STRETCH)])
def test_lk_matches_modular_rank(w):
    base, rels = re_matrix(w), ls_relations_for(w)
    lk = compute_lk(w)
    for p in PRIMES:
        assert mod_rank(base.rows + rels.rows, p) - mod_rank(rels.rows, p) == lk
        if w < 10:  # the substitution path; at weight 10 it would redo im(11)
            assert mod_rank(reduce_mzv_matrix(w).rows, p) == lk
    for matrix in (base, rels, base.stack(rels), im_matrix(w)):
        assert_rank_matches(matrix)
