import hashlib
import random
from fractions import Fraction
from math import lcm

import pytest

from lsizeta.algebra import LsiExpr, LsiMonomial, imag_part, real_part
from lsizeta.indices import Index, dual
from lsizeta.polylog import zeta_expr
from lsizeta.relations import (
    RationalMatrix,
    build_basis,
    compute_lk,
    im_matrix,
    inject_cr_relation,
    ls_relations_for,
    mzv_relations,
    re_matrix,
    reduce_mzv_matrix,
    reduce_real_expr,
    same_rowspace,
)
from lsizeta.relations import _expr_row  # declared error surface
from published_data import (
    LK_STRETCH,
    LK_TABLE,
    W4_IM_COLS,
    W4_IM_ROW,
    W5_COLS,
    W5_IM_RELATION_ROWS,
    W5_MATRIX,
    W5_REDUCED,
    W5_ROWS,
    W6_COLS,
    W6_MATRIX,
    W6_ROWS,
    W6_RREF,
)

# SHA-256 of f"{w} {label}: {row entries joined by spaces}\n" over the rows of
# ls_relations_for(w), w = 2..9: the row order and labels `lsi verify` prints
LS_RELATIONS_SHA256 = "1cb2549de5d73b0e306ee24e9d64a5ebde8de24806d767035c8beb1d132dce12"


def mono(ks, ls, pi=0):
    return LsiMonomial(pi, tuple(ks), tuple(ls))


def fr(rows):
    return [[Fraction(x) for x in row] for row in rows]


def as_label_map(matrix: RationalMatrix):
    return {(r, c): matrix.rows[i][j]
            for i, r in enumerate(matrix.row_labels)
            for j, c in enumerate(matrix.col_labels)}


def permute_to(matrix: RationalMatrix, rows, cols) -> RationalMatrix:
    lookup = as_label_map(matrix)
    assert set(rows) == set(matrix.row_labels)
    assert set(cols) == set(matrix.col_labels)
    return RationalMatrix([[lookup[(r, c)] for c in cols] for r in rows],
                          list(rows), list(cols))


def bareiss_rank(rows) -> int:
    # fraction-free elimination oracle over scaled integer rows
    m = []
    for row in rows:
        scale = lcm(*(x.denominator for x in row)) if row else 1
        m.append([int(x * scale) for x in row])
    if not m:
        return 0
    nr, nc = len(m), len(m[0])
    rank = 0
    prev = 1
    for c in range(nc):
        piv = next((i for i in range(rank, nr) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, nr):
            for j in range(c + 1, nc):
                m[i][j] = (m[i][j] * m[rank][c] - m[i][c] * m[rank][j]) // prev
            m[i][c] = 0
        prev = m[rank][c]
        rank += 1
        if rank == nr:
            break
    return rank


class TestBuildBasis:
    def test_weight5_odd_is_published_vector(self):
        assert set(build_basis(5, "odd").monomials) == set(W5_COLS)

    def test_weight6_odd_is_published_vector(self):
        assert set(build_basis(6, "odd").monomials) == set(W6_COLS)

    def test_weight2_odd(self):
        assert build_basis(2, "odd").monomials == (mono((2,), (0,)),)

    def test_even_basis_contains_pure_power(self):
        b = build_basis(4, "even")
        assert LsiMonomial(4) in b.monomials
        assert LsiMonomial(5) not in build_basis(5, "odd").monomials

    def test_all_canonical_right_weight_and_parity(self):
        for w, parity, want in [(5, "odd", 1), (6, "even", 0), (7, "even", 0)]:
            for m in build_basis(w, parity).monomials:
                assert m.weight == w
                assert m.parity == want or m.is_pure
                assert m.is_canonical or m.is_pure

    def test_pi_columns_form_suffix(self):
        for w, parity in [(5, "odd"), (6, "odd"), (6, "even")]:
            pis = [m.pi_pow >= 1 for m in build_basis(w, parity).monomials]
            assert pis == sorted(pis)


class TestZetaMatrices:
    def test_re_matrix_5_matches_publication(self):
        got = permute_to(re_matrix(5), W5_ROWS, W5_COLS)
        assert got.rows == W5_MATRIX

    def test_im_matrix_4_matches_publication(self):
        got = im_matrix(4)
        assert got.row_labels == [Index((4,))]
        assert permute_to(got, [Index((4,))], W4_IM_COLS).rows == [W4_IM_ROW]

    def test_im_matrix_6_matches_publication(self):
        got = permute_to(im_matrix(6), W6_ROWS, W6_COLS)
        assert got.rows == W6_MATRIX

    def test_im_matrix_drops_self_dual_rows(self):
        labels = im_matrix(6).row_labels
        assert Index((1, 2, 3)) not in labels and Index((2, 2, 2)) not in labels
        assert len(labels) == 6

    def test_re_rows_equal_for_dual_indices(self):
        basis = build_basis(5, "odd")
        pos = basis.position()
        for k in [Index((5,)), Index((2, 3))]:
            a = _expr_row(real_part(zeta_expr(k)), basis, pos)
            b = _expr_row(real_part(zeta_expr(dual(k))), basis, pos)
            assert a == b

    def test_monomial_outside_basis_is_hard_error(self):
        basis = build_basis(4, "even")
        stray = LsiExpr.of_monomial(mono((4,), (0,)))
        with pytest.raises(ValueError, match="outside declared basis"):
            _expr_row(stray, basis, basis.position())


class TestRref:
    def test_identity(self):
        eye = RationalMatrix(fr([["1", "0"], ["0", "1"]]))
        assert eye.rref().rows == eye.rows

    def test_published_weight6_echelon(self):
        got = permute_to(im_matrix(6), W6_ROWS, W6_COLS).rref()
        assert got.rows == W6_RREF

    def test_rank_matches_bareiss_on_random_matrices(self):
        rng = random.Random(1234)
        for _ in range(40):
            nr, nc = rng.randint(1, 6), rng.randint(1, 8)
            rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                     for _ in range(nc)] for _ in range(nr)]
            if rng.random() < 0.4 and nr >= 2:  # force dependence
                rows[-1] = [a + b for a, b in zip(rows[0], rows[-2 if nr > 1 else 0])]
            m = RationalMatrix(rows)
            assert m.rank == bareiss_rank(rows)

    def test_rowspace_preserved(self):
        rng = random.Random(77)
        for _ in range(20):
            rows = [[Fraction(rng.randint(-3, 3)) for _ in range(8)] for _ in range(5)]
            m = RationalMatrix(rows)
            assert same_rowspace(m, m.rref())

    def test_pivots_are_unit_with_clear_columns(self):
        rng = random.Random(5)
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(6)] for _ in range(4)]
        ech = RationalMatrix(rows).rref()
        for i, c in enumerate(ech.pivot_cols):
            assert ech.rows[i][c] == 1
            assert all(ech.rows[r][c] == 0 for r in range(ech.nrows) if r != i)


class TestLsRelations:
    def test_weight5_matches_published_rows(self):
        got = ls_relations_for(5)
        assert got.col_labels == list(build_basis(5, "odd").monomials)
        published = permute_to(
            RationalMatrix(W5_IM_RELATION_ROWS, ["r1", "r2"], W5_COLS),
            ["r1", "r2"], got.col_labels)
        assert same_rowspace(got, published)

    def test_weight4_contains_lifted_weight3_row(self):
        # pi * Ls_3^(0) = -(7/108) pi^4
        got = ls_relations_for(4)
        basis = got.col_labels
        target = {mono((3,), (0,), 1): Fraction(1), LsiMonomial(4): Fraction(7, 108)}
        expected = [target.get(m, Fraction(0)) for m in basis]
        assert any(
            row == expected or [x / row[next(j for j, v in enumerate(row) if v)]
                                for x in row] == expected
            for row in got.rows if any(row))

    def test_weight3_relation_set_is_empty(self):
        # the weight-3 imaginary relation pivots on a pi-free monomial, so
        # nothing divides down; it enters the pipeline at weight 4 instead
        assert ls_relations_for(3).rows == []

    def test_weight3_im_matrix_solves_ls30(self):
        ech = im_matrix(3).rref()
        pos = {m: j for j, m in enumerate(ech.col_labels)}
        row = ech.rows[0]
        assert row[pos[mono((3,), (0,))]] == 1
        assert row[pos[LsiMonomial(3)]] == Fraction(7, 108)

    def test_rows_and_labels_are_byte_stable(self):
        digest = hashlib.sha256()
        for w in range(2, 10):
            rels = ls_relations_for(w)
            for label, row in zip(rels.row_labels, rels.rows):
                digest.update(f"{w} {label}: {' '.join(map(str, row))}\n".encode())
        assert digest.hexdigest() == LS_RELATIONS_SHA256


class TestReduceAndRank:
    def test_weight5_reduction_matches_publication(self):
        got = permute_to(reduce_mzv_matrix(5), W5_ROWS, W5_COLS)
        assert got.rows == W5_REDUCED

    def test_weight2_trivial(self):
        got = reduce_mzv_matrix(2)
        assert got.rows == [[Fraction(1, 6)]]
        assert got.col_labels == [LsiMonomial(2)]

    def test_weight4_closed_forms(self):
        got = reduce_mzv_matrix(4)
        pos = {m: j for j, m in enumerate(got.col_labels)}
        pure = pos[LsiMonomial(4)]
        expected = {Index((4,)): Fraction(1, 90), Index((1, 3)): Fraction(1, 360),
                    Index((2, 2)): Fraction(1, 120)}
        for label, row in zip(got.row_labels, got.rows):
            assert row[pure] == expected[label]
            assert all(v == 0 for j, v in enumerate(row) if j != pure)

    @pytest.mark.parametrize("w,expected", [(2, 1), (3, 1), (4, 1), (5, 2), (6, 2)])
    def test_lk_small_weights(self, w, expected):
        assert compute_lk(w) == expected

    @pytest.mark.parametrize("w", range(2, 10))
    def test_lk_from_ranks_matches_substitution(self, w):
        # the rank of the reduced matrix against the earlier rank difference
        rels = ls_relations_for(w)
        assert compute_lk(w) == re_matrix(w).stack(rels).rank - rels.rank

    def test_reduce_real_expr_dual_of_weight4(self):
        # zeta(1,1,2) is not a representative; reduce its expression directly
        e = reduce_real_expr(real_part(zeta_expr(Index((1, 1, 2)))), 4)
        assert e == LsiExpr({LsiMonomial(4): Fraction(1, 90)}) and not imag_part(e)


def relation_vectors(relations, index_order):
    pos = {k: i for i, k in enumerate(index_order)}
    out = []
    for r in relations:
        row = [Fraction(0)] * len(index_order)
        for k, c in r.coefficients:
            row[pos[k]] = c
        out.append(row)
    return out


class TestMzvRelations:
    def test_weight2_empty(self):
        assert mzv_relations(2) == []

    def test_weight5_spans_published_pair(self):
        order = W5_ROWS
        got = RationalMatrix(relation_vectors(mzv_relations(5), order))
        published = RationalMatrix(fr([
            ["-1/2", "3", "1", "0"],   # zeta(2,3) + 3 zeta(1,4) - zeta(5)/2
            ["-1/2", "-2", "0", "1"],  # zeta(3,2) - 2 zeta(1,4) - zeta(5)/2
        ]))
        assert same_rowspace(got, published)

    def test_weight4_pins_ratios(self):
        order = [Index((4,)), Index((1, 3)), Index((2, 2))]
        got = RationalMatrix(relation_vectors(mzv_relations(4), order))
        published = RationalMatrix(fr([
            ["1", "-4", "0"],   # zeta(4) = 4 zeta(1,3)
            ["3", "0", "-4"],   # 3 zeta(4) = 4 zeta(2,2)
        ]))
        assert same_rowspace(got, published)

    def test_normalization_integral_coprime_signed(self):
        for r in mzv_relations(5) + mzv_relations(4):
            coeffs = [c for _, c in r.coefficients]
            assert all(c.denominator == 1 for c in coeffs)
            from math import gcd
            assert gcd(*(int(c) for c in coeffs)) == 1
            lexfirst = min(r.coefficients, key=lambda kc: kc[0].parts)
            assert lexfirst[1] > 0

    def test_relations_deterministic(self):
        a = [str(r) for r in mzv_relations(5)]
        b = [str(r) for r in mzv_relations(5)]
        assert a == b

    @pytest.mark.parametrize("w", range(2, 10))
    def test_count_is_representatives_less_lk(self, w):
        # the left kernel's dimension against the rank of the same matrix
        assert len(mzv_relations(w)) == len(re_matrix(w).row_labels) - compute_lk(w)

    @pytest.mark.parametrize("w", range(2, 10))
    def test_relations_lie_in_the_monomial_relation_span(self, w):
        # the defining property, exactly: sum_j c_j re_j is a combination of
        # the monomial relation rows, so stacking it on them keeps their rank
        base, rels = re_matrix(w), ls_relations_for(w)
        re_rows, rank = dict(zip(base.row_labels, base.rows)), rels.rank
        found = mzv_relations(w)
        assert found or w < 4
        for rel in found:
            row = [sum(c * re_rows[k][i] for k, c in rel.coefficients) for i in range(base.ncols)]
            assert rels.stack(RationalMatrix([row])).rank == rank, rel


def cr_rows(w: int, ks) -> RationalMatrix:
    """The rows of ``inject_cr_relation(k)`` for each k in ``ks``, times
    pi^(w-2k-1), over the columns of ``ls_relations_for(w)`` at odd w."""
    basis = build_basis(w, "odd")
    pos = basis.position()
    rows = []
    for k in ks:
        src = inject_cr_relation(k)
        for row in filter(any, src.rows):
            out = [Fraction(0)] * len(basis)
            for m, v in zip(src.col_labels, row):
                if v:
                    out[pos[m.shifted(w - 2 * k - 1)]] = v
            rows.append(out)
    return RationalMatrix(rows, [None] * len(rows), list(basis.monomials))


def lk_with_cr(w: int, ks) -> tuple[int, int]:
    """The rank the closed-form rows of ``ks`` add to the relations of weight
    w, and l_w computed with them."""
    rels = ls_relations_for(w)
    with_cr = rels.stack(cr_rows(w, ks))
    return with_cr.rank - rels.rank, re_matrix(w).stack(with_cr).rank - with_cr.rank


class TestCrInjection:
    def test_weight3_relation_is_trivial(self):
        # at weight 3 the closed form is already implied; the row vanishes
        assert not any(map(any, inject_cr_relation(1).rows))

    def test_weight5_relation_is_new(self):
        base = ls_relations_for(5)
        cr = inject_cr_relation(2)
        assert any(map(any, cr.rows))
        stacked = base.stack(cr)
        assert stacked.rank == base.rank + 1

    @pytest.mark.parametrize("w", [3, 5, 7, 9])
    def test_lk_unchanged_by_cr(self, w):
        # every closed-form row usable at w is new past w = 3, yet l_w stays
        added, lk = lk_with_cr(w, range(1, (w - 1) // 2 + 1))
        assert added == (w - 3) // 2
        assert lk == {**LK_TABLE, **LK_STRETCH}[w]
