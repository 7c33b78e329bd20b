import math
import random
from fractions import Fraction

import pytest

from lsizeta.algebra import (
    LsiExpr,
    LsiMonomial,
    MonomialBasis,
    canonicalize,
    conjugate,
    imag_part,
    multiply,
    real_part,
    reduce_at,
    shuffle,
)
from lsizeta.relations import _expr_row
from test_kernels import qi, ref_canonicalize


def mono(ks, ls, pi=0):
    return LsiMonomial(pi, tuple(ks), tuple(ls))


def real(terms):
    """The expression with these real coefficients; all phases of one parity."""
    bits = {m.phase % 2 for m in terms}
    assert len(bits) <= 1
    return LsiExpr(terms, bits.pop() if bits else 0)


PURE = lambda m: LsiMonomial(m)
F = Fraction


class TestPhaseBit:
    def test_field_ops(self):
        # Ls_3^(0) has odd phase, so at bit 0 it carries i: (1/2 i) Ls_3 + (2/3) pi^2
        a = LsiExpr({mono((3,), (0,)): F("1/2"), PURE(2): F("2/3")})
        assert qi(a) == {mono((3,), (0,)): (0, F("1/2")), PURE(2): (F("2/3"), 0)}
        assert qi(a + a) == {mono((3,), (0,)): (0, 1), PURE(2): (F("4/3"), 0)}
        assert qi(conjugate(a)) == {mono((3,), (0,)): (0, F("-1/2")), PURE(2): (F("2/3"), 0)}
        assert conjugate(conjugate(a)) == a
        assert a.scaled(F("3/2")).scaled(F("2/3")) == a
        assert str(a) == "(1/2*i)*Ls[3]^(0) + (2/3)*pi^2"

    def test_products_of_real_and_imaginary_terms(self):
        i_ls = LsiExpr({mono((2,), (0,)): F(3)})  # 3i Ls_2
        two = LsiExpr({PURE(1): F(2)}, t=1)  # 2 pi at bit 1: real
        assert qi(multiply(two, i_ls)) == {mono((2,), (0,), pi=1): (0, 6)}
        assert qi(multiply(i_ls, i_ls)) == {mono((2, 2), (0, 0)): (-18, 0)}
        assert multiply(i_ls, i_ls).t == 0 and multiply(two, i_ls).t == 1

    def test_sum_of_different_phase_bits_raises(self):
        a = LsiExpr({PURE(2): F(1)})  # 1 pi^2
        b = LsiExpr({PURE(2): F(1)}, t=1)  # i pi^2
        with pytest.raises(ValueError, match="phase bits"):
            a + b
        with pytest.raises(ValueError, match="phase bits"):
            multiply(a, a, (a, b))
        assert a + b.scaled(0) == a and LsiExpr.zero() + b == b


class TestMonomial:
    def test_invariants(self):
        m = mono((3, 2), (1, 0), pi=2)
        assert m.weight == 7 and m.depth == 2
        assert m.parity == (1 + 1) % 2 == 0
        assert m.is_canonical

    def test_rejects_negative_log_count(self):
        with pytest.raises(ValueError):
            mono((2,), (2,))
        with pytest.raises(ValueError):
            mono((2, 2), (0,))

    def test_pure(self):
        assert PURE(3).is_pure and PURE(3).parity == 0 and PURE(3).weight == 3

    def test_ordering_puts_pi_columns_last(self):
        ms = [PURE(5), mono((5,), (1,)), mono((2, 3), (0, 0)), mono((4,), (0,), pi=1)]
        ms.sort(key=lambda m: m.sort_key())
        assert ms == [mono((2, 3), (0, 0)), mono((5,), (1,)),
                      mono((4,), (0,), pi=1), PURE(5)]


class TestShuffle:
    def test_paper_worked_example(self):
        got = shuffle(mono((1, 3), (0, 1)), mono((2,), (1,)))
        expected = real({
            mono((2, 1, 3), (1, 0, 1)): 1,
            mono((1, 2, 3), (0, 1, 1)): 1,
            mono((1, 3, 2), (0, 1, 1)): 1,
        })
        assert got == expected

    def test_empty_word(self):
        got = shuffle(mono((2,), (0,)), PURE(3))
        assert got == real({mono((2,), (0,), pi=3): 1})

    def test_square_collects(self):
        got = shuffle(mono((2,), (0,)), mono((2,), (0,)))
        assert got == real({mono((2, 2), (0, 0)): 2})

    def test_term_count_binomial(self):
        rng = random.Random(7)
        from math import comb
        for _ in range(50):
            n, np_ = rng.randint(0, 3), rng.randint(0, 3)
            a = mono([rng.randint(1, 3) for _ in range(n)], [0] * n)
            b = mono([rng.randint(1, 3) for _ in range(np_)], [0] * np_)
            total = sum(int(c) for _, c in shuffle(a, b).terms())
            assert total == comb(n + np_, n)

    def test_pi_powers_add(self):
        got = shuffle(mono((2,), (0,), pi=1), mono((3,), (1,), pi=2))
        assert all(m.pi_pow == 3 for m, _ in got.terms())


class TestReduceAt:
    def test_depth_one_sigma_power(self):
        got = reduce_at(mono((2,), (1,)), 1)
        assert got == real({PURE(2): F("-1/18")})

    def test_front_merge(self):
        got = reduce_at(mono((1, 3), (0, 1)), 1)
        assert got == real({mono((4,), (2,)): -1})

    def test_tail_case_with_sigma(self):
        # depth-3 reduction at the front, then the paper's displayed result
        first = reduce_at(mono((1, 3, 2), (0, 1, 1)), 1)
        assert first == real({mono((4, 2), (2, 1)): -1})
        got = canonicalize(first)
        assert got == real({mono((6,), (4,)): F("-1/2"),
                            mono((4,), (2,), pi=2): F("1/18")})

    def test_middle_position(self):
        got = reduce_at(mono((2, 1, 3), (1, 0, 1)), 2)
        assert got == real({mono((3, 3), (2, 1)): 1,
                            mono((2, 4), (1, 2)): -1})

    def test_not_applicable(self):
        with pytest.raises(ValueError, match="not applicable"):
            reduce_at(mono((3,), (0,)), 1)
        with pytest.raises(ValueError, match="not applicable"):
            reduce_at(mono((2,), (1,)), 2)

    def test_weight_preserved(self):
        m = mono((2, 1, 3), (1, 0, 1), pi=2)
        for mm, _ in reduce_at(m, 1).terms():
            assert mm.weight == m.weight


class TestCanonicalize:
    def test_paper_triple(self):
        got = canonicalize(LsiExpr.of_monomial(mono((2, 1, 3), (1, 0, 1))))
        assert got == real({mono((6,), (4,)): F("1/6")})
        got = canonicalize(LsiExpr.of_monomial(mono((1, 2, 3), (0, 1, 1))))
        assert got == real({mono((6,), (4,)): F("1/3")})

    def test_fixpoint_on_canonical(self):
        for t in (0, 1):
            e = LsiExpr({mono((3, 2), (0, 0)): F("5/7")}, t)
            assert canonicalize(e) == e

    @pytest.mark.usefixtures("fresh_caches")
    @pytest.mark.parametrize("n", [1, 2, 5, 1200])
    def test_power_of_one_column(self, n):
        # Ls_2^(1) = -pi^2/18, and n copies over the ordered simplex divide
        # its nth power by n!
        got = canonicalize(LsiExpr.of_monomial(mono((2,) * n, (1,) * n)))
        assert got == real({PURE(2 * n): F((-1) ** n, 18**n * math.factorial(n))})

    def test_shuffle_then_canonicalize_example(self):
        prod = shuffle(mono((1, 3), (0, 1)), mono((2,), (1,)))
        got = canonicalize(prod)
        assert got == real({mono((4,), (2,), pi=2): F("1/18")})

    def _random_monomial(self, rng, max_weight=8):
        while True:
            depth = rng.randint(1, 3)
            ks = [rng.randint(1, 4) for _ in range(depth)]
            if sum(ks) > max_weight:
                continue
            ls = [rng.randint(0, k - 1) for k in ks]
            return mono(ks, ls, pi=rng.randint(0, 1))

    def test_confluence_leftmost_vs_rightmost(self):
        rng = random.Random(20240331)
        checked = 0
        while checked < 120:
            m = self._random_monomial(rng)
            if m.is_canonical:
                continue
            for t in (0, 1):  # a real and an imaginary coefficient
                e = LsiExpr({m: F("3/5")}, t)
                assert qi(canonicalize(e)) == ref_canonicalize(e, "rightmost")
            checked += 1

    def test_result_is_canonical_and_weight_homogeneous(self):
        rng = random.Random(99)
        for _ in range(60):
            m = self._random_monomial(rng)
            out = canonicalize(LsiExpr.of_monomial(m))
            for mm, _ in out.terms():
                assert mm.is_canonical or mm.is_pure
                assert mm.weight == m.weight


class TestMultiply:
    def test_unit(self):
        e = canonicalize(shuffle(mono((2, 3), (0, 1)), mono((2,), (0,))))
        assert multiply(e, LsiExpr.unit()) == e
        assert multiply(LsiExpr.unit(), e) == e

    def test_example_pair(self):
        a = LsiExpr.of_monomial(mono((1, 3), (0, 1)))
        b = LsiExpr.of_monomial(mono((2,), (1,)))
        assert multiply(a, b) == real({mono((4,), (2,), pi=2): F("1/18")})

    def _random_expr(self, rng):
        terms = {}
        for _ in range(rng.randint(1, 2)):
            depth = rng.randint(0, 2)
            ks = [rng.randint(1, 3) for _ in range(depth)]
            if sum(ks) > 5:
                continue
            ls = [rng.randint(0, k - 1) for k in ks]
            terms[mono(ks, ls)] = rng.randint(-3, 3)
        return LsiExpr(terms, rng.randint(0, 1))

    def test_commutative_associative(self):
        rng = random.Random(4242)
        for _ in range(25):
            a, b, c = (self._random_expr(rng) for _ in range(3))
            assert multiply(a, b) == multiply(b, a)
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    def test_weight_homogeneity(self):
        a = canonicalize(shuffle(mono((2,), (0,)), mono((3,), (1,))))
        b = LsiExpr({mono((2,), (0,), pi=1): 2, mono((3,), (0,)): 1})
        prod = multiply(a, b)
        assert a.weight() == 5 and b.weight() == 3
        assert prod.is_weight_homogeneous() and prod.weight() == 8

    def test_conjugate_distributes(self):
        rng = random.Random(11)
        for _ in range(20):
            a, b = self._random_expr(rng), self._random_expr(rng)
            assert conjugate(multiply(a, b)) == multiply(conjugate(a), conjugate(b))


class TestRealImag:
    def test_split_and_reassemble(self):
        # Ls_3^(0) and pi^3 have odd phase, so at bit 0 they carry i; Ls_3^(1) is real
        e = LsiExpr({mono((3,), (0,)): F("1/2"), mono((3,), (1,)): F("-1/3"),
                     PURE(3): F("7/216")})
        re, im = real_part(e), imag_part(e)
        assert qi(re) == {mono((3,), (1,)): (F("-1/3"), 0)}
        assert qi(im) == {mono((3,), (0,)): (F("1/2"), 0), PURE(3): (F("7/216"), 0)}
        # the rationals of im back at e's bit are i * im: e = re + i im exactly
        assert re + LsiExpr(dict(im.terms()), 1 - im.t) == e

    def test_conjugate_involution(self):
        for t in (0, 1):
            e = LsiExpr({mono((3,), (1,)): 2, mono((3,), (0,)): 3}, t)
            assert conjugate(conjugate(e)) == e and conjugate(e) != e

    def test_matrix_row_rejects_complex(self):
        # a relation matrix row holds real coefficients only
        e = LsiExpr({PURE(2): 1, PURE(1): 1}, 1)  # i pi^2 + pi
        basis = MonomialBasis(2, "even", (PURE(1), PURE(2)))
        with pytest.raises(ValueError, match="non-real"):
            _expr_row(e, basis, basis.position())
        assert _expr_row(real_part(e), basis, basis.position()) == ([1, 0], 1)


class TestExprContainer:
    def test_float_coefficient_is_rejected(self):
        # Fraction(0.1) would silently keep the float's binary expansion
        with pytest.raises(TypeError):
            LsiExpr.of_monomial(PURE(2), 0.1)
        assert LsiExpr.of_monomial(PURE(2), "1/10") == LsiExpr({PURE(2): F(1, 10)})

    def test_zero_coefficients_dropped(self):
        e = LsiExpr({PURE(2): 0}, 1)
        assert not e and len(e) == 0 and e == LsiExpr.zero()

    def test_add_cancels(self):
        for t in (0, 1):
            a = LsiExpr({PURE(2): 1}, t)
            b = LsiExpr({PURE(2): -1}, t)
            assert (a + b) == LsiExpr.zero()

    def test_terms_sorted_deterministically(self):
        e = LsiExpr({PURE(5): 1, mono((5,), (1,)): 1,
                     mono((2, 3), (0, 0)): 1})
        names = [m for m, _ in e.terms()]
        assert names == [mono((2, 3), (0, 0)), mono((5,), (1,)), PURE(5)]

    def test_weight_helpers(self):
        e = LsiExpr({PURE(4): 1, mono((4,), (0,)): 1})
        assert e.is_weight_homogeneous() and e.weight() == 4
        bad = LsiExpr({PURE(4): 1, PURE(3): 1})
        assert not bad.is_weight_homogeneous()
