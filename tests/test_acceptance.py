"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria 1-12 are required; the final weights-9/10 check is the stretch tier.
Every tolerance is pinned here: symbolic checks are exact equality of
rational data, numeric checks carry their stated absolute bound.
"""

import math
import os
import random
import time
from fractions import Fraction
from math import factorial

import pytest

from lsizeta.algebra import (
    LsiExpr,
    LsiMonomial,
    canonicalize,
    conjugate,
    imag_part,
    multiply,
    real_part,
    reduce_at,
    shuffle,
)
from lsizeta.indices import Index, dual, enumerate_admissible
from lsizeta.oracle import (
    check_ccs_identity,
    eval_expr,
    eval_ls,
    eval_mzv,
    euler_even_zeta,
)
from lsizeta.polylog import li_expand, mgl_value, zeta_expr
from lsizeta.relations import (
    RationalMatrix,
    compute_lk,
    im_matrix,
    mzv_relations,
    re_matrix,
    reduce_mzv_matrix,
    reduce_real_expr,
    same_rowspace,
)
from published_data import (
    LK_STRETCH,
    LK_TABLE,
    W5_COLS,
    W5_MATRIX,
    W5_REDUCED,
    W5_RELATION_VECTORS,
    W5_ROWS,
    W6_COLS,
    W6_MATRIX,
    W6_ROWS,
)
from test_kernels import qi, ref_canonicalize
from test_relations import lk_with_cr


def mono(ks, ls, pi=0):
    return LsiMonomial(pi, tuple(ks), tuple(ls))


def real(terms):
    """The expression with these real coefficients; all phases of one parity."""
    bits = {m.phase % 2 for m in terms}
    assert len(bits) <= 1
    return LsiExpr(terms, bits.pop() if bits else 0)


F = Fraction


def checked(number, description, budget_seconds):
    def outer(fn):
        def inner(*a, **kw):
            t0 = time.time()
            try:
                fn(*a, **kw)
            except Exception:
                print(f"\nFAIL criterion {number}: {description}")
                raise
            dt = time.time() - t0
            print(f"\nPASS criterion {number}: {description} ({dt:.2f}s)")
            assert dt < budget_seconds, f"runtime {dt:.1f}s over budget {budget_seconds}s"
        inner.__name__ = fn.__name__
        return inner
    return outer


def permuted(matrix, rows, cols):
    lookup = {(r, c): matrix.rows[i][j]
              for i, r in enumerate(matrix.row_labels)
              for j, c in enumerate(matrix.col_labels)}
    assert set(rows) == set(matrix.row_labels)
    assert set(cols) == set(matrix.col_labels)
    return [[lookup[(r, c)] for c in cols] for r in rows]


def solve_single_relation(e: LsiExpr, pivot: LsiMonomial) -> LsiExpr:
    # rewrite the vanishing expression e as: pivot = rest
    assert e == real_part(e)
    coeffs = dict(e.terms())
    lead = coeffs.pop(pivot)
    return LsiExpr({m: -c / lead for m, c in coeffs.items()}, e.t)


@checked(1, "zeta(2) = pi^2/6 exactly", 1.0)
def test_criterion_01_zeta2():
    assert qi(zeta_expr(Index((2,)))) == {LsiMonomial(2): (F("1/6"), 0)}


@checked(2, "zeta(3) expression exact term-for-term", 1.0)
def test_criterion_02_zeta3():
    expected = {
        mono((2,), (0,), pi=1): (F("1/2"), 0),
        mono((3,), (1,)): (F("-3/2"), 0),
        mono((3,), (0,)): (0, F("-1/2")),
        LsiMonomial(3): (0, F("-7/216")),
    }
    assert qi(zeta_expr(Index((3,)))) == expected


@checked(3, "imaginary parts pin Ls_3^(0) and Ls_4^(1)", 5.0)
def test_criterion_03_imaginary_extractions():
    im3 = imag_part(zeta_expr(Index((3,))))
    got = solve_single_relation(im3, mono((3,), (0,)))
    assert got == real({LsiMonomial(3): F("-7/108")})

    im14 = imag_part(zeta_expr(Index((1, 4))))
    got = solve_single_relation(im14, mono((4,), (1,), pi=1))
    assert got == real({LsiMonomial(5): F("-17/6480")})
    # equivalently Ls_4^(1) = -(17/6480) pi^4 after dividing out pi


@checked(4, "weight-4 closed forms after substitution", 5.0)
def test_criterion_04_weight4_closed_forms():
    expected = {
        Index((4,)): Fraction(1, 90),
        Index((1, 1, 2)): Fraction(1, 90),
        Index((1, 3)): Fraction(1, 360),
        Index((2, 2)): Fraction(1, 120),
    }
    for k, value in expected.items():
        e = reduce_real_expr(real_part(zeta_expr(k)), 4)
        assert e == real({LsiMonomial(4): value}), k


@checked(5, "weight-5/6 matrices match the published tables", 120.0)
def test_criterion_05_matrix_reproduction():
    assert permuted(re_matrix(5), W5_ROWS, W5_COLS) == W5_MATRIX
    assert permuted(im_matrix(6), W6_ROWS, W6_COLS) == W6_MATRIX
    assert permuted(reduce_mzv_matrix(5), W5_ROWS, W5_COLS) == W5_REDUCED


@checked(6, "weight-5 relations span the published pair", 120.0)
def test_criterion_06_weight5_relations():
    pos = {k: i for i, k in enumerate(W5_ROWS)}
    rows = []
    for rel in mzv_relations(5):
        row = [Fraction(0)] * len(W5_ROWS)
        for k, c in rel.coefficients:
            row[pos[k]] = c
        rows.append(row)
    assert same_rowspace(RationalMatrix(rows), RationalMatrix(W5_RELATION_VECTORS))


@checked(7, "l_k table equals 1,1,1,2,2,4,4 for k = 2..8", 2100.0)
def test_criterion_07_lk_table():
    got = {w: compute_lk(w) for w in range(2, 9)}
    assert got == LK_TABLE


@checked(8, "duality: zeta expressions conjugate-match for weight <= 6", 600.0)
def test_criterion_08_duality_suite():
    for w in range(2, 7):
        for k in enumerate_admissible(w):
            e, ed = zeta_expr(k), zeta_expr(dual(k))
            assert e == conjugate(ed), k
            assert real_part(e) == real_part(ed), k


@checked(9, "confluence and shuffle properties", 60.0)
def test_criterion_09_confluence_and_shuffle():
    # published worked examples
    assert shuffle(mono((1, 3), (0, 1)), mono((2,), (1,))) == real({
        mono((2, 1, 3), (1, 0, 1)): 1,
        mono((1, 2, 3), (0, 1, 1)): 1,
        mono((1, 3, 2), (0, 1, 1)): 1})
    assert reduce_at(mono((2,), (1,)), 1) == real({LsiMonomial(2): F("-1/18")})
    assert reduce_at(mono((1, 3), (0, 1)), 1) == real({mono((4,), (2,)): -1})
    assert canonicalize(LsiExpr.of_monomial(mono((2, 1, 3), (1, 0, 1)))) == \
        real({mono((6,), (4,)): F("1/6")})
    assert multiply(LsiExpr.of_monomial(mono((1, 3), (0, 1))),
                    LsiExpr.of_monomial(mono((2,), (1,)))) == \
        real({mono((4,), (2,), pi=2): F("1/18")})

    rng = random.Random(5081)

    def random_monomial():
        while True:
            depth = rng.randint(1, 3)
            ks = [rng.randint(1, 4) for _ in range(depth)]
            if sum(ks) > 8:
                continue
            ls = [rng.randint(0, k - 1) for k in ks]
            return mono(ks, ls, pi=rng.randint(0, 1))

    confluent = 0
    while confluent < 100:
        m = random_monomial()
        if m.is_canonical:
            continue
        e = LsiExpr.of_monomial(m)
        assert qi(canonicalize(e)) == ref_canonicalize(e, "rightmost")
        confluent += 1

    def random_expr():
        terms = {}
        for _ in range(rng.randint(1, 2)):
            m = random_monomial()
            if m.weight <= 5:
                terms[m] = rng.randint(-3, 3)
        return LsiExpr(terms, rng.randint(0, 1))

    for _ in range(20):
        a, b, c = random_expr(), random_expr(), random_expr()
        assert multiply(a, b) == multiply(b, a)
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


@checked(10, "closed form of Re(i^w Li) at ones-and-a-two indices", 10.0)
def test_criterion_10_mgl_closed_form():
    for a in range(5):
        for b in range(5 - a):
            w = a + b + 2
            expected = Fraction((-1) ** (a + b + 1), 2 * factorial(w) * 3**w)
            assert mgl_value(a, b) == expected, (a, b)


@checked(11, "numeric oracle suite", 600.0)
def test_criterion_11_numeric_oracle():
    # closed forms from criterion 3, numerically to 1e-8
    assert abs(eval_ls(mono((3,), (0,))) + 7 * math.pi**3 / 108) < 1e-8
    assert abs(eval_ls(mono((4,), (1,))) + 17 * math.pi**4 / 6480) < 1e-8
    assert abs(eval_ls(mono((2,), (1,))) + math.pi**2 / 18) < 1e-8

    # every reduction identity of weight <= 6, depth <= 3, numerically to 1e-6
    def compositions(total, depth_cap):
        if total == 0:
            yield ()
            return
        for first in range(1, total + 1):
            if depth_cap > 1:
                for rest in compositions(total - first, depth_cap - 1):
                    yield (first,) + rest
            elif first == total:
                yield (total,)

    checked_reductions = 0
    for w in range(2, 7):
        for ks in {c for c in compositions(w, 3) if c}:
            lchoices = [()]
            for k in ks:
                lchoices = [c + (l,) for c in lchoices for l in range(k)]
            for ls in lchoices:
                m = mono(ks, ls)
                if m.is_canonical:
                    continue
                lhs = eval_ls(m)
                rhs = eval_expr(canonicalize(LsiExpr.of_monomial(m)))
                assert abs(lhs - rhs.real) < 1e-6 and abs(rhs.imag) == 0, m
                checked_reductions += 1
    assert checked_reductions > 100

    # shuffle identities with both factors and all outputs inside the caps
    rng = random.Random(271828)
    checked_shuffles = 0
    while checked_shuffles < 25:
        d1, d2 = rng.choice([(1, 1), (1, 2)])
        ks1 = [rng.randint(1, 3) for _ in range(d1)]
        ks2 = [rng.randint(1, 3) for _ in range(d2)]
        if sum(ks1) + sum(ks2) > 6:
            continue
        a = mono(ks1, [rng.randint(0, k - 1) for k in ks1])
        b = mono(ks2, [rng.randint(0, k - 1) for k in ks2])
        lhs = eval_ls(a) * eval_ls(b)
        rhs = eval_expr(shuffle(a, b))
        assert abs(lhs - rhs.real) < 1e-6, (a, b)
        checked_shuffles += 1

    # even zeta values against the Bernoulli closed form, to 1e-8
    for k in (1, 2, 3):
        assert abs(eval_mzv(Index((2 * k,))) - euler_even_zeta(k)) < 1e-8

    # closed form of Re(Li) at odd weights 3 and 5, to 1e-6
    for k in (1, 2):
        w = 2 * k + 1
        lhs = eval_expr(li_expand(Index((w,)))).real
        rhs = 0.5 * (1 - 2.0 ** (-2 * k)) * (1 - 3.0 ** (-2 * k)) * eval_mzv(Index((w,)))
        assert abs(lhs - rhs) < 1e-6

    # depth-one moment identity, to 1e-8
    for m in (0, 1):
        assert check_ccs_identity(m) < 1e-8


@checked(12, "closed-form relation injection leaves l_7 at 4", 2100.0)
def test_criterion_12_cr_injection_stability():
    assert lk_with_cr(7, (2,)) == (1, 4)


@pytest.mark.skipif(os.environ.get("LSIZETA_STRETCH") == "0",
                    reason="stretch tier disabled")
@checked("stretch", "l_9 = l_10 = 9", 3600.0)
def test_stretch_lk_9_10():
    got = {w: compute_lk(w) for w in (9, 10)}
    assert got == LK_STRETCH
