import json
from fractions import Fraction
from itertools import product
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lsizeta import algebra, polylog, relations
from lsizeta.algebra import LsiExpr, LsiMonomial, conjugate, imag_part, multiply, real_part
from lsizeta.indices import (
    LITERAL,
    Index,
    dedupe_by_duality,
    dual,
    enumerate_admissible,
    truncate,
    truncations,
)
from lsizeta.polylog import (
    clear_caches,
    li_expand,
    mgl_value,
    save_li_cache,
    zeta_expr,
)
from lsizeta.relations import im_matrix
from lsizeta.serialize import expr_to_json
from test_kernels import i_pow, qi


def mono(ks, ls, pi=0):
    return LsiMonomial(pi, tuple(ks), tuple(ls))


F = Fraction


class TestLiExpand:
    def test_empty_index_is_unit(self):
        assert li_expand(Index()) == LsiExpr.unit()

    def test_depth_one_weight_one(self):
        # Li_1(e^{i pi/3}) = -log(1 - e^{i pi/3}) = i pi/3
        assert qi(li_expand(Index((1,)))) == {LsiMonomial(1): (0, F("1/3"))}

    def test_depth_one_weight_two(self):
        got = li_expand(Index((2,)))
        assert qi(got) == {mono((2,), (0,)): (0, 1), LsiMonomial(2): (F("1/36"), 0)}

    def test_all_ones_collapse_to_pure_power(self):
        # Li at ({1}^j) is (i pi/3)^j / j!
        for j in range(1, 6):
            got = li_expand(Index((1,) * j))
            assert qi(got) == {LsiMonomial(j): i_pow(j, Fraction(1, 3**j * factorial(j)))}

    def test_output_is_canonical(self):
        for parts in [(3,), (1, 2), (2, 3), (1, 1, 2), (2, 1, 2), (1, 3, 1)]:
            for m in li_expand(Index(parts)).monomials():
                assert m.is_canonical or m.is_pure

    def test_weight_homogeneous(self):
        for parts in [(4,), (1, 3), (2, 1, 2), (1, 1, 1, 2)]:
            e = li_expand(Index(parts))
            assert e.weight() == sum(parts)


class TestZetaExpr:
    def test_weight_two(self):
        assert qi(zeta_expr(Index((2,)))) == {LsiMonomial(2): (F("1/6"), 0)}

    def test_weight_three_exact(self):
        expected = {
            mono((2,), (0,), pi=1): (F("1/2"), 0),
            mono((3,), (1,)): (F("-3/2"), 0),
            mono((3,), (0,)): (0, F("-1/2")),
            LsiMonomial(3): (0, F("-7/216")),
        }
        assert qi(zeta_expr(Index((3,)))) == expected

    def test_weight_four_real_parts(self):
        cases = {
            (4,): {mono((4,), (1,)): Fraction(1, 4),
                   mono((3,), (0,), pi=1): Fraction(-1, 4),
                   LsiMonomial(4): Fraction(-23, 5184)},
            (1, 3): {mono((4,), (1,)): Fraction(1),
                     LsiMonomial(4): Fraction(7, 1296)},
            (2, 2): {mono((4,), (1,)): Fraction(-2),
                     LsiMonomial(4): Fraction(1, 324)},
        }
        for parts, coeffs in cases.items():
            got = real_part(zeta_expr(Index(parts)))
            assert got == LsiExpr(coeffs) and not imag_part(got), parts

    def test_weight_five_depth_two_expression(self):
        expected = {
            mono((5,), (1,)): (F("-1/6"), 0),
            mono((5,), (3,)): (F("3/8"), 0),
            mono((4,), (1,), pi=1): (0, F("-1/4")),
            mono((4,), (2,), pi=1): (F("-1/2"), 0),
            mono((3,), (1,), pi=2): (F("1/8"), 0),
            LsiMonomial(5): (0, F("-17/25920")),
        }
        assert qi(zeta_expr(Index((1, 4)))) == expected

    def test_weight_three_real_and_imag_split(self):
        e = zeta_expr(Index((3,)))
        assert qi(real_part(e)) == {mono((2,), (0,), pi=1): (F("1/2"), 0),
                                    mono((3,), (1,)): (F("-3/2"), 0)}
        assert qi(imag_part(e)) == {mono((3,), (0,)): (F("-1/2"), 0),
                                    LsiMonomial(3): (F("-7/216"), 0)}

    def test_requires_admissible(self):
        with pytest.raises(ValueError):
            zeta_expr(Index((2, 1)))

    @pytest.mark.parametrize("w", range(2, 7))
    def test_parity_reality_law(self, w):
        # coefficients are real exactly on monomials whose log-factor count
        # matches the weight parity, imaginary on the others
        for k in enumerate_admissible(w):
            e = zeta_expr(k)
            for m in e.monomials():
                assert e.is_imag(m) == (m.parity != w % 2), (k, m)

    @pytest.mark.parametrize("w", range(2, 9))
    def test_duality(self, w):
        for k in enumerate_admissible(w):
            e, ed = zeta_expr(k), zeta_expr(dual(k))
            assert e == conjugate(ed) and e.t == ed.t, k
            assert real_part(e) == real_part(ed)

    def test_self_dual_imag_vanishes(self):
        for parts in [(2,), (2, 2), (1, 3), (1, 2, 3), (2, 2, 2)]:
            assert imag_part(zeta_expr(Index(parts))) == LsiExpr.zero()


@pytest.mark.usefixtures("fresh_caches")
def test_halves_are_the_parts_of_the_full_product():
    # each half is real_part/imag_part of the product with conjugated dual
    # truncations built in full (== compares the phase bits too)
    for k in (k for w in range(2, 10) for k in enumerate_admissible(w)):
        lis = [li_expand(t) for t in truncations(k)]
        duals = [conjugate(li_expand(t)) for t in truncations(dual(k))]
        first, *rest = zip(lis, reversed(duals))
        full = multiply(*first, *rest)
        assert (zeta_expr(k, 0), zeta_expr(k, 1)) == (real_part(full), imag_part(full)), k
        assert zeta_expr(k) == full and zeta_expr(k).t == 0, k


@pytest.mark.usefixtures("fresh_caches")
def test_im8_builds_only_its_half_of_the_products(monkeypatch):
    # 2,722 of the 5,428 term pairs of im(8)'s expansions are imaginary; the
    # real ones never reach a product table
    calls = []
    table = algebra._product_table
    monkeypatch.setattr(algebra, "_product_table", lambda a, b: calls.append(1) or table(a, b))
    im_matrix(8)
    assert len(calls) == 2722


@pytest.mark.usefixtures("fresh_caches")
def test_im8_expansions_build_no_fraction(monkeypatch):
    # the kernels carry integer numerators over one denominator from li_expand
    # through the products; Fractions appear only at the public edges
    made = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return super().__new__(cls, *args, **kwargs)

    for module in (algebra, polylog):
        monkeypatch.setattr(module, "Fraction", Counted)
    indices = dedupe_by_duality(enumerate_admissible(8), drop_self_dual=True)
    exprs = relations._zeta_rows(indices, 1)  # what im_matrix(8) expands
    assert not made
    exprs[0].terms()
    assert made  # the patch is seen: terms() is an edge


@pytest.mark.usefixtures("fresh_caches")
def test_a_full_expansion_looks_up_each_truncation_once(monkeypatch):
    # both halves come from one pass over the truncations of k and of its dual
    looked = []
    monkeypatch.setattr(polylog, "li_expand", lambda t: looked.append(t) or li_expand(t))
    for k in (k for w in range(2, 9) for k in enumerate_admissible(w)):
        want = [*truncations(k), *truncations(dual(k))]
        looked.clear()
        e = zeta_expr(k)
        assert looked == want and len(looked) == 2 * (k.weight + 1), k
        # no memo by index: a repeated call looks them up again, to an equal value
        looked.clear()
        again = zeta_expr(k)
        assert looked == want, k
        assert again == e and hash(again) == hash(e), k


def test_clear_caches_empties_every_expansion_memo():
    zeta_expr(Index((1, 2, 3)))
    clear_caches()
    for memo in (polylog._LI_CACHE, polylog._PREFIX,
                 algebra._CANON_CACHE, algebra._PRODUCT_CACHE, algebra._MONOMIALS):
        assert not memo


@pytest.mark.usefixtures("fresh_caches")
def test_li_expand_builds_canonical_monomials_without_tables():
    # columns with no log-factor are reduced inside the convolution, so no
    # canonicalization or product table is built
    seen = {t for w in range(2, 9) for k in enumerate_admissible(w) for t in truncations(k)}
    for t in sorted(seen, key=lambda t: (t.weight, t.parts)):
        for m in li_expand(t).monomials():
            assert m.is_canonical and m.weight == t.weight, (t, m)
    assert not algebra._CANON_CACHE and not algebra._PRODUCT_CACHE


@pytest.mark.usefixtures("fresh_caches")
def test_kernel_monomials_pass_the_validating_constructor():
    # _collect and li_expand build their monomials unchecked; each must be
    # one the checked constructor accepts, and canonical unless it is a pure
    # pi-power
    for k in (k for w in range(2, 9) for k in enumerate_admissible(w)):
        for e in [zeta_expr(k)] + [li_expand(truncate(k, m)) for m in range(k.weight + 1)]:
            for m in e.monomials():
                assert m == LsiMonomial(m.pi_pow, m.ks, m.ls), (k, m)
                assert m.is_canonical or m.is_pure, (k, m)


class TestMgl:
    def test_closed_form_small(self):
        assert mgl_value(0, 0) == Fraction(-1, 36)
        assert mgl_value(1, 0) == Fraction(1, 324)
        assert mgl_value(0, 1) == Fraction(1, 324)

    @pytest.mark.parametrize("a,b", [(a, b) for a in range(5) for b in range(5 - a)])
    def test_closed_form_grid(self, a, b):
        w = a + b + 2
        expected = Fraction((-1) ** (a + b + 1), 2 * factorial(w) * 3**w)
        assert mgl_value(a, b) == expected


def weight1_index(a: int, b: int) -> Index:
    # ({1}^(a-1), b+1), the index of the weight-one proposition
    return Index((1,) * (a - 1) + (b + 1,))


class TestWeightOneProposition:
    def test_small_cases(self):
        assert weight1_index(1, 1) == Index((2,))
        assert weight1_index(1, 2) == Index((3,))

    def test_dual_pair_agrees(self):
        # zeta(1,2) and zeta(3) have the same real expression; the imaginary
        # parts are mirror relations (conjugate expressions)
        e12 = zeta_expr(weight1_index(2, 1))
        e3 = zeta_expr(Index((3,)))
        assert real_part(e12) == real_part(e3)
        assert e12 == conjugate(e3)

    @pytest.mark.parametrize("a,b", [(1, 1), (1, 3), (2, 2), (3, 1), (2, 3)])
    def test_depth_at_most_one(self, a, b):
        e = zeta_expr(weight1_index(a, b))
        assert e.max_depth() <= 1


class TestPolylogExpansion:
    def test_bundle(self):
        # an index and its expansion agree in weight, monomial by monomial
        for parts in [(1,), (1, 2), (2, 1, 3), (1, 1, 1, 2)]:
            k = Index(parts)
            e = li_expand(k)
            assert e.terms()
            assert all(m.weight == k.weight for m in e.monomials()), k


@pytest.mark.usefixtures("fresh_caches")
def test_save_li_cache_writes_the_memo_one_line_an_entry(tmp_path):
    zeta_expr(Index((2, 3)))
    path = tmp_path / "li_cache.json"
    assert save_li_cache(str(path)) == len(polylog._LI_CACHE) > 1
    lines = path.read_text().splitlines()
    assert len(lines) == len(polylog._LI_CACHE)
    for line in lines:
        key, data = json.loads(line)
        assert data == expr_to_json(polylog._LI_CACHE[Index.parse(key)]), key


def parses(s: str) -> bool:
    try:
        Index.parse(s)
    except ValueError:
        return False
    return True


def parses_to_itself(s: str) -> bool:
    return parses(s) and str(Index.parse(s)) == s


@given(st.text(st.characters(max_codepoint=127)) | st.text("0123456789,phi +-_\t"))
def test_key_check_accepts_exactly_the_printed_indices(s):
    assert bool(LITERAL.fullmatch(s)) == parses_to_itself(s)
    # a command-line literal parses exactly when, blanks stripped, it is one
    # LITERAL accepts, or empty: no "1_0", "+3" or "3, 2"
    assert parses(s) == (not s.strip() or bool(LITERAL.fullmatch(s.strip())))


def test_key_check_accepts_every_index_up_to_weight_8():
    keys = ["phi"] + [",".join(map(str, parts)) for w in range(1, 9)
                      for parts in compositions(w)]
    assert len(keys) == 2 ** 8
    for key in keys:
        assert parses_to_itself(key) and LITERAL.fullmatch(key), key
        for near in (f"0{key}", f"{key},", f" {key}", f"{key}\n"):
            assert not LITERAL.fullmatch(near) and not parses_to_itself(near), near


def compositions(w: int):
    """Every index of weight w >= 1, from its set of cut points."""
    for cuts in product((0, 1), repeat=w - 1):
        parts, run = [], 1
        for cut in cuts:
            if cut:
                parts.append(run)
                run = 0
            run += 1
        yield (*parts, run)
