import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from lsizeta import oracle
from lsizeta.algebra import (
    LsiExpr,
    LsiMonomial,
    canonicalize,
    multiply,
    reduce_at,
    shuffle,
)
from lsizeta.indices import Index, dual, enumerate_admissible
from lsizeta.oracle import (
    SIGMA,
    bernoulli_number,
    check_ccs_identity,
    eval_A,
    eval_expr,
    eval_ls,
    eval_mzv,
    euler_even_zeta,
    integrate_to_sigma,
)
from lsizeta.polylog import li_expand, zeta_expr
from lsizeta.relations import build_basis, ls_relations_for


def mono(ks, ls, pi=0):
    return LsiMonomial(pi, tuple(ks), tuple(ls))


class TestEvalA:
    def test_vanishes_at_pi_over_3(self):
        assert abs(eval_A(math.pi / 3)) < 1e-14

    def test_log2_at_pi(self):
        assert eval_A(math.pi) == pytest.approx(math.log(2), abs=1e-15)

    def test_small_angle(self):
        assert eval_A(0.1) == pytest.approx(math.log(2 * math.sin(0.05)), abs=1e-15)

    def test_against_cosine_series(self):
        # A(theta) = -sum_{k>=1} cos(k theta)/k, truncated
        theta = 0.7
        k = np.arange(1, 1_000_000)
        series = -np.sum(np.cos(k * theta) / k)
        assert eval_A(theta) == pytest.approx(float(series), abs=1e-5)

    @pytest.mark.parametrize("theta", [0.0, -0.1, 2 * math.pi])
    def test_domain(self, theta):
        with pytest.raises(ValueError):
            eval_A(theta)


class TestEvalLs:
    def test_pure_pi_power(self):
        assert eval_ls(LsiMonomial(3)) == pytest.approx(math.pi**3, rel=1e-14)

    def test_depth_one_closed_forms(self):
        assert eval_ls(mono((2,), (1,))) == pytest.approx(-math.pi**2 / 18, abs=1e-8)
        assert eval_ls(mono((3,), (0,))) == pytest.approx(-7 * math.pi**3 / 108, abs=1e-8)
        assert eval_ls(mono((4,), (1,))) == pytest.approx(-17 * math.pi**4 / 6480, abs=1e-8)

    def test_non_canonical_depth_one(self):
        assert eval_ls(mono((1,), (0,))) == pytest.approx(-math.pi / 3, abs=1e-12)

    @pytest.mark.parametrize("k, l", [(2, 0), (3, 1)])
    def test_deep_simplex_of_one_function(self, k, l):
        # n copies of one integrand over the ordered simplex: the nth power of
        # its integral over n!, through six nested quadrature levels
        one = eval_ls(mono((k,), (l,)))
        for n in range(1, 7):
            want = one**n / math.factorial(n)
            assert eval_ls(mono((k,) * n, (l,) * n)) == pytest.approx(want, rel=1e-14, abs=0), n

    def test_self_consistency_with_expr(self):
        m = mono((3, 2), (0, 0), pi=1)
        direct = eval_ls(m)
        via_expr = eval_expr(LsiExpr.of_monomial(m))
        assert direct == pytest.approx(via_expr.real, abs=1e-12)
        assert via_expr.imag == 0


class TestEvalMzv:
    def test_basel(self):
        assert eval_mzv(Index((2,))) == pytest.approx(math.pi**2 / 6, abs=1e-10)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_euler_closed_form(self, k):
        assert eval_mzv(Index((2 * k,))) == pytest.approx(euler_even_zeta(k), abs=1e-8)

    def test_zeta6_value(self):
        assert euler_even_zeta(3) == pytest.approx(math.pi**6 / 945, rel=1e-14)

    def test_published_weight5_relation(self):
        lhs = eval_mzv(Index((2, 3))) + 3 * eval_mzv(Index((1, 4)))
        assert lhs == pytest.approx(eval_mzv(Index((5,))) / 2, abs=1e-8)

    def test_duality_numeric(self):
        assert eval_mzv(Index((3, 2))) == pytest.approx(eval_mzv(Index((2, 1, 2))), abs=1e-10)

    @pytest.mark.parametrize("s", [40, 41, 42, 50])
    def test_parts_beyond_tail_order(self, s):
        assert abs(eval_mzv(Index((s,))) - (1.0 + 2.0**-s + 3.0**-s)) <= 1e-16
        want = math.fsum(j**-s * sum(i**-2 for i in range(1, j)) for j in range(2, 30))
        assert abs(eval_mzv(Index((2, s))) - want) <= 1e-15 * want

    def test_requires_admissible(self):
        with pytest.raises(ValueError):
            eval_mzv(Index((2, 1)))

    def test_tail_order_matches_order_40(self, monkeypatch):
        # the tail expansion is cut at _TAIL_ORDER powers of 1/j; at the
        # default cutoff the terms past it change no float through weight 9
        ks = [k for w in range(2, 10) for k in enumerate_admissible(w)]
        oracle._tail_table.cache_clear()
        oracle._series.cache_clear()
        got = [eval_mzv(k) for k in ks]
        monkeypatch.setattr(oracle, "_TAIL_ORDER", 40)
        oracle._tail_table.cache_clear()
        oracle._series.cache_clear()
        try:
            assert oracle._tail_table().shape == (42, 41)
            assert [eval_mzv(k) for k in ks] == got
        finally:
            oracle._tail_table.cache_clear()
            oracle._series.cache_clear()


def _ref_tail_beyond(term_quarter, term_half, term_last, n):
    # sum_{i > n} of the model c * i^(-s) * (1 + a/i) fitted through the
    # samples at n/4, n/2 and n; the remainder sums layer by layer via the
    # Euler-Maclaurin form of sum_{i>n} i^(-s).
    if term_last <= 0.0 or term_half <= 0.0 or term_quarter <= 0.0:
        return 0.0
    r1 = math.log(term_half / term_last)
    r2 = math.log(term_quarter / term_half)
    a_over_n = r2 - r1
    s = (2.0 * r1 - r2) / math.log(2.0)
    if s <= 1.0:
        raise ArithmeticError("tail does not decay fast enough to sum")
    a = a_over_n * n
    bracket = (n / (s - 1.0) - 0.5 + s / (12.0 * n)
               + a / s - a / (2.0 * n))
    return term_last * bracket / (1.0 + a_over_n)


def ref_eval_mzv(k, n=100_000):
    """Witness series: 100,000 terms a level, with a power law fitted to the
    last decade of terms as each tail."""
    j = np.arange(n + 1, dtype=np.float64)
    with np.errstate(divide="ignore"):
        inv = 1.0 / j
    r_next = np.ones(n + 1)
    for u, ku in enumerate(reversed(k.parts)):
        term = inv**ku * r_next
        term[0] = 0.0
        if u == 0:  # innermost level: the tail exponent is known exactly
            tail = term[n] * (n / (ku - 1.0) - 0.5 + ku / (12.0 * n))
        else:
            tail = _ref_tail_beyond(term[n // 4], term[n // 2], term[n], n)
        suffix = np.concatenate([np.cumsum(term[::-1])[::-1][1:], [0.0]])
        r_next = suffix + tail
    return float(r_next[0])


@pytest.mark.parametrize("w", range(2, 9))
def test_eval_mzv_matches_long_series(w):
    # the long series is itself off by 1.2e-12 at zeta(1,1,1,1,1,2) and by
    # 4.3e-12 at zeta(1,1,1,1,1,1,2), against zeta(7) and zeta(8) by duality
    tol = 2e-12 if w <= 7 else 5e-12
    for k in enumerate_admissible(w):
        assert abs(eval_mzv(k) - ref_eval_mzv(k)) <= tol, k


@pytest.mark.parametrize("cutoff", [oracle._CUTOFF, 16], ids=["default_cutoff", "cutoff_16"])
class TestMzvIdentities:
    """Classical identities at 1e-14, from the series alone and math.  At 16
    terms a level the tail expansion, not the partial sum, carries them."""

    @pytest.fixture(autouse=True)
    def _cutoff(self, cutoff, monkeypatch):
        # the series memo holds levels summed at the cutoff of their time
        oracle._series.cache_clear()
        monkeypatch.setattr(oracle, "_CUTOFF", cutoff)
        yield
        oracle._series.cache_clear()

    def test_duality(self):
        for w in range(2, 11):
            for k in enumerate_admissible(w):
                assert abs(eval_mzv(k) - eval_mzv(dual(k))) <= 1e-14, k

    @pytest.mark.parametrize("m", range(1, 7))
    def test_repeated_twos(self, m):
        want = math.pi ** (2 * m) / math.factorial(2 * m + 1)
        assert abs(eval_mzv(Index((2,) * m)) - want) <= 1e-14

    @pytest.mark.parametrize("w", range(2, 13))
    def test_sum_theorem(self, w):
        zeta_w = eval_mzv(Index((w,)))
        if w % 2 == 0:
            assert abs(zeta_w - euler_even_zeta(w // 2)) <= 1e-14
        by_depth = {}
        for k in enumerate_admissible(w):
            by_depth[k.depth] = by_depth.get(k.depth, 0.0) + eval_mzv(k)
        assert sorted(by_depth) == list(range(1, w))
        for d, total in by_depth.items():
            assert abs(total - zeta_w) <= 1e-14, d


class TestBernoulli:
    def test_first_values(self):
        expected = [Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0),
                    Fraction(-1, 30), Fraction(0), Fraction(1, 42)]
        assert [bernoulli_number(n) for n in range(7)] == expected

    def test_odd_vanish(self):
        assert all(bernoulli_number(2 * n + 1) == 0 for n in range(1, 8))


class TestEvalExpr:
    def test_unit(self):
        assert eval_expr(LsiExpr.unit()) == pytest.approx(1.0, abs=1e-15)

    def test_zeta3_expression(self):
        val = eval_expr(zeta_expr(Index((3,))))
        assert val.real == pytest.approx(eval_mzv(Index((3,))), abs=1e-6)
        assert abs(val.imag) < 1e-6

    @pytest.mark.parametrize("w", range(2, 6))
    def test_zeta_expr_matches_series_all_weights(self, w):
        for k in enumerate_admissible(w):
            val = eval_expr(zeta_expr(k))
            assert val.real == pytest.approx(eval_mzv(k), abs=1e-6), k
            assert abs(val.imag) < 1e-6, k


def _fraction_sum(e):
    # the float sum from Fraction coefficients in the canonical order
    total = 0j
    for m, c in e.terms():
        total += (complex(0, c) if e.is_imag(m) else complex(c)) * eval_ls(m)
    return total


def test_eval_expr_is_the_fraction_sum_bit_for_bit():
    # n / den is correctly rounded, as float(Fraction) is, and the order is the
    # same: the verify residuals, and their digests, cannot move
    exprs = [zeta_expr(k) for w in range(2, 9) for k in enumerate_admissible(w)]
    rel = ls_relations_for(7)
    exprs += [LsiExpr(dict(zip(rel.col_labels, row))) for row in rel.rows]
    for e in exprs:
        assert eval_expr(e) == _fraction_sum(e), e


def random_monomial(rng, max_weight=6, max_depth=2):
    while True:
        depth = rng.randint(1, max_depth)
        ks = [rng.randint(1, 4) for _ in range(depth)]
        if sum(ks) > max_weight:
            continue
        ls = [rng.randint(0, k - 1) for k in ks]
        return mono(ks, ls)


class TestSymbolicIdentitiesNumerically:
    def test_shuffle_products(self):
        rng = random.Random(314)
        checked = 0
        while checked < 15:
            a = random_monomial(rng, max_weight=4, max_depth=1)
            b = random_monomial(rng, max_weight=4, max_depth=2)
            if a.weight + b.weight > 6 or a.depth + b.depth > 3:
                continue
            lhs = eval_ls(a) * eval_ls(b)
            rhs = eval_expr(shuffle(a, b))
            assert lhs == pytest.approx(rhs.real, abs=1e-6)
            checked += 1

    def test_reductions(self):
        rng = random.Random(2718)
        checked = 0
        while checked < 15:
            m = random_monomial(rng, max_weight=6, max_depth=3)
            sites = [j for j in range(1, m.depth + 1)
                     if m.ks[j - 1] - 1 - m.ls[j - 1] == 0]
            if not sites:
                continue
            j = rng.choice(sites)
            lhs = eval_ls(m)
            rhs = eval_expr(reduce_at(m, j))
            assert lhs == pytest.approx(rhs.real, abs=1e-6)
            checked += 1

    def test_canonicalization(self):
        rng = random.Random(161803)
        checked = 0
        while checked < 10:
            m = random_monomial(rng, max_weight=6, max_depth=3)
            if m.is_canonical:
                continue
            lhs = eval_ls(m)
            rhs = eval_expr(canonicalize(LsiExpr.of_monomial(m)))
            assert lhs == pytest.approx(rhs.real, abs=1e-6)
            checked += 1

    def test_multiply_on_expressions(self):
        a = li_expand(Index((2,)))
        b = li_expand(Index((1, 2)))
        lhs = eval_expr(a) * eval_expr(b)
        rhs = eval_expr(multiply(a, b))
        assert lhs.real == pytest.approx(rhs.real, abs=1e-6)
        assert lhs.imag == pytest.approx(rhs.imag, abs=1e-6)


class TestRelationsNumerically:
    @pytest.mark.parametrize("w", range(2, 7))
    def test_monomial_relations_vanish(self, w):
        from lsizeta.relations import ls_relations_for
        rel = ls_relations_for(w)
        for row in filter(any, rel.rows):
            total = sum(float(c) * eval_ls(m)
                        for m, c in zip(rel.col_labels, row) if c)
            assert abs(total) < 1e-6

    @pytest.mark.parametrize("w", range(2, 8))
    def test_mzv_relations_vanish(self, w):
        from lsizeta.oracle import eval_relation
        from lsizeta.relations import mzv_relations
        for rel in mzv_relations(w):
            assert abs(eval_relation(rel.coefficients)) < 1e-8


class TestClosedFormReLi:
    @pytest.mark.parametrize("k", [1, 2])
    def test_odd_li_real_part(self, k):
        w = 2 * k + 1
        lhs = eval_expr(li_expand(Index((w,)))).real
        rhs = 0.5 * (1 - 2.0 ** (-2 * k)) * (1 - 3.0 ** (-2 * k)) * eval_mzv(Index((w,)))
        assert lhs == pytest.approx(rhs, abs=1e-6)


class TestCcsIdentity:
    @pytest.mark.parametrize("m", [0, 1])
    def test_holds(self, m):
        assert check_ccs_identity(m) < 1e-8

    def test_m2(self):
        residual = check_ccs_identity(2)
        assert residual < 1e-8, residual

    def test_negative_control(self):
        # the identity at m = 0 without its alternating zeta sum: the same
        # quadrature and series leave a residual of order zeta(3)
        lhs = integrate_to_sigma(lambda t: (t - SIGMA) * np.log(2.0 * np.sin(t / 2.0)))
        rhs = -0.5 * (1 - 2.0 ** -2) * (1 - 3.0 ** -2) * eval_mzv(Index((3,)))
        assert abs(lhs - rhs) > 1e-2


def _kernel_from_numpy_polynomial():
    """The panel kernel as numpy.polynomial built it: node values to Chebyshev
    coefficients, chebint, then chebval at 1 less the values at the nodes."""
    cheb = np.polynomial.chebyshev
    n = oracle._N_CHEB
    u = -np.cos(np.pi * np.arange(n) / (n - 1))
    anti = cheb.chebint(np.eye(n), axis=0)
    to_coeff = np.linalg.inv(cheb.chebvander(u, n - 1))
    return (cheb.chebval(1.0, anti) - cheb.chebvander(u, n) @ anti) @ to_coeff


def _suffix_integrals_per_call(h_vals):
    """The formulation the precomputed panel kernel replaced: Chebyshev
    coefficients, chebint and chebval rebuilt on every call."""
    cheb = np.polynomial.chebyshev
    n = h_vals.shape[1]
    u = -np.cos(np.pi * np.arange(n) / (n - 1))
    coeffs = h_vals @ np.linalg.inv(cheb.chebvander(u, n - 1)).T
    anti = cheb.chebint(coeffs, axis=1)
    anti_vals = anti @ cheb.chebvander(u, n).T
    anti_right = cheb.chebval(1.0, anti.T)
    within = (anti_right[:, None] - anti_vals) * oracle._panel_machine()[3]
    panel_totals = within[:, 0]
    after = np.concatenate([np.cumsum(panel_totals[::-1])[::-1][1:], [0.0]])
    return within + after[:, None], float(panel_totals.sum())


def _canonical_shapes(max_weight=7, max_depth=3):
    return sorted({(m.ks, m.ls)
                   for w in range(2, max_weight + 1) for parity in ("odd", "even")
                   for m in build_basis(w, parity).monomials
                   if 1 <= m.depth <= max_depth})


class TestPanelKernel:
    def test_closed_form_matches_numpy_polynomial(self):
        want = _kernel_from_numpy_polynomial()
        assert 0.07 < np.max(np.abs(want)) < 0.08
        assert np.max(np.abs(oracle._panel_machine()[2].T - want)) <= 1e-15

    @pytest.mark.parametrize("integrand", ["smooth", "log_singular"])
    def test_matches_per_call_formulation(self, integrand):
        t, a_vals, *_ = oracle._panel_machine()
        h = np.cos(t) * t if integrand == "smooth" else a_vals * t
        got, got_total = oracle._suffix_integrals(h)
        want, want_total = _suffix_integrals_per_call(h)
        assert np.max(np.abs(got - want)) <= 1e-13
        assert abs(got_total - want_total) <= 1e-13

    @pytest.mark.usefixtures("fresh_caches")
    def test_eval_ls_matches_per_call_formulation(self, monkeypatch):
        shapes = _canonical_shapes()
        got = {s: eval_ls(mono(*s)) for s in shapes}
        monkeypatch.setattr(oracle, "_suffix_integrals", _suffix_integrals_per_call)
        oracle._nested_ls_integral.cache_clear()  # every level again, per call
        for ks, ls in shapes:
            want = (-1.0) ** len(ks) * oracle._nested_ls_integral(ks, ls)[1]
            assert got[ks, ls] == pytest.approx(want, rel=1e-12, abs=1e-13), (ks, ls)


@pytest.fixture
def warm_quadrature_memo():
    eval_ls(mono((3, 2), (0, 0)))
    eval_mzv(Index((2, 3)))
    assert oracle._nested_ls_integral.cache_info().currsize > 0
    assert oracle._series.cache_info().currsize > 0


def test_fresh_caches_clears_quadrature_memo(warm_quadrature_memo, fresh_caches):
    assert oracle._nested_ls_integral.cache_info().currsize == 0
    assert oracle._series.cache_info().currsize == 0


@pytest.mark.usefixtures("fresh_caches")
class TestQuadratureMemo:
    def test_repeated_shape_integrates_once(self, monkeypatch):
        calls = []
        kernel = oracle._suffix_integrals

        def counted(h_vals):
            calls.append(1)
            return kernel(h_vals)

        monkeypatch.setattr(oracle, "_suffix_integrals", counted)
        # pi^2, not pi: the two real terms then share one phase bit
        e = LsiExpr.of_monomial(mono((3, 2), (0, 0))) \
            + LsiExpr.of_monomial(mono((3, 2), (0, 0), pi=2))
        first = eval_expr(e)
        assert len(calls) == 2  # one nested integral of depth 2
        assert eval_expr(e) == first
        assert len(calls) == 2

    def test_each_prefix_integrates_once(self, monkeypatch):
        calls = []
        kernel = oracle._suffix_integrals

        def counted(h_vals):
            calls.append(1)
            return kernel(h_vals)

        monkeypatch.setattr(oracle, "_suffix_integrals", counted)
        shapes = _canonical_shapes(max_weight=7, max_depth=7)
        for ks, ls in shapes:
            eval_ls(mono(ks, ls))
        prefixes = {(ks[:i], ls[:i]) for ks, ls in shapes for i in range(1, len(ks) + 1)}
        assert len(calls) == len(prefixes) < sum(len(ks) for ks, _ in shapes)


@pytest.mark.usefixtures("fresh_caches")
def test_each_series_suffix_is_summed_once(monkeypatch):
    summed = []
    level = oracle._series.__wrapped__

    def counted(parts):
        summed.append(parts)
        return level(parts)

    # the recursion reads the module's _series, so it goes through the count
    monkeypatch.setattr(oracle, "_series", lru_cache(maxsize=None)(counted))
    ks = [k for w in range(2, 8) for k in enumerate_admissible(w)]
    got = [eval_mzv(k) for k in ks]
    suffixes = {k.parts[i:] for k in ks for i in range(k.depth + 1)}
    assert sorted(summed) == sorted(suffixes) and len(suffixes) < sum(k.depth + 1 for k in ks)
    oracle._series.cache_clear()
    assert [eval_mzv(k) for k in ks] == got
