import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lsizeta import algebra, polylog
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
    load_li_cache,
    mgl_value,
    save_li_cache,
    use_li_cache,
    zeta_expr,
)
from lsizeta.serialize import expr_to_json
from test_kernels import i_pow, qi


HEADER = '{"format":3}\n'


def expr_text(e: LsiExpr) -> str:
    return json.dumps(expr_to_json(e), separators=(",", ":"))


def entry_line(key: str, text: str) -> str:
    """A format-3 entry line: the index, SHA-256 over the index, a newline and
    the expression text, then that text."""
    digest = hashlib.sha256(f"{key}\n{text}".encode()).hexdigest()
    return f'["{key}","{digest}",{text}]\n'


def cache_lines(path) -> list[str]:
    """The lines after the header of a format-3 cache file, each with its newline."""
    header, *lines = path.read_text().splitlines(keepends=True)
    assert header == HEADER
    return lines


def record_expansions(monkeypatch) -> list[Index]:
    """The indices li_expand expands from here on, rather than reading from disk."""
    computed, uncached = [], polylog._li_expand_uncached

    def record(k):
        computed.append(k)
        return uncached(k)

    monkeypatch.setattr(polylog, "_li_expand_uncached", record)
    return computed


# Expands one index with the cache file argv[1], then saves when a line arrives
# on stdin, printing how many entries it added.
EXPAND_THEN_SAVE = """
import sys
from lsizeta import polylog
from lsizeta.indices import Index
polylog.use_li_cache(sys.argv[1])
polylog.li_expand(Index.parse(sys.argv[2]))
print("expanded", flush=True)
sys.stdin.readline()
print(polylog.save_li_cache(sys.argv[1]))
"""


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

    @pytest.mark.parametrize("w", range(2, 7))
    def test_duality(self, w):
        for k in enumerate_admissible(w):
            e, ed = zeta_expr(k), zeta_expr(dual(k))
            assert e == conjugate(ed)
            assert real_part(e) == real_part(ed)

    def test_self_dual_imag_vanishes(self):
        for parts in [(2,), (2, 2), (1, 3), (1, 2, 3), (2, 2, 2)]:
            assert imag_part(zeta_expr(Index(parts))) == LsiExpr.zero()


def _dual_pairs(max_weight):
    return [k for w in range(2, max_weight + 1)
            for k in dedupe_by_duality(enumerate_admissible(w), drop_self_dual=True)]


@pytest.mark.usefixtures("fresh_caches")
class TestDualShortcut:
    """zeta_expr of an index whose dual is memoized is that expansion conjugated."""

    def test_shortcut_matches_the_full_product(self, monkeypatch):
        products = []
        monkeypatch.setattr(polylog, "multiply",
                            lambda *a: products.append(1) or multiply(*a))
        for k in _dual_pairs(8):
            full, short = {}, {}
            for first, second in ((dual(k), k), (k, dual(k))):
                polylog._ZETA_CACHE.clear()
                n = len(products)
                full[first] = zeta_expr(first)
                short[second] = zeta_expr(second)
                assert len(products) == n + 1, (first, second)
            for kk in (k, dual(k)):
                assert short[kk] == full[kk] and short[kk].t == full[kk].t, kk

    def test_shortcut_takes_no_product(self, monkeypatch):
        k = Index((2, 2, 3))
        e = zeta_expr(k)
        assert dual(k) != k and conjugate(e) != e

        def no_product(*pairs):
            raise AssertionError("zeta_expr multiplied")

        monkeypatch.setattr(polylog, "multiply", no_product)
        assert zeta_expr(dual(k)) == conjugate(e)
        with pytest.raises(AssertionError, match="multiplied"):
            zeta_expr(Index((1, 2, 3)))


def test_clear_caches_empties_every_expansion_memo():
    zeta_expr(Index((1, 2, 3)))
    clear_caches()
    for memo in (polylog._LI_CACHE, polylog._ZETA_CACHE, polylog._PREFIX,
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

    def test_rejects_weight_mismatch(self):
        # an expansion is accepted for an index only at the index's weight
        text = expr_text(li_expand(Index((3,))))
        good = entry_line("3", text).encode()
        assert polylog._decode_entry("3", good, 3) == li_expand(Index((3,)))
        with pytest.raises(ValueError, match="not of weight 2"):
            polylog._decode_entry("2", entry_line("2", text).encode(), 2)


@pytest.mark.usefixtures("fresh_caches")
class TestCachePersistence:
    def test_roundtrip(self, tmp_path):
        li_expand(Index((1, 2)))
        path = tmp_path / "cache.json"
        n = save_li_cache(str(path))
        assert n >= 1
        before = li_expand(Index((1, 2)))
        m = load_li_cache(str(path))
        assert m == n
        assert li_expand(Index((1, 2))) == before

    def test_reads_only_the_entries_asked_for(self, tmp_path, monkeypatch):
        path = str(tmp_path / "cache.json")
        for k in enumerate_admissible(5):
            zeta_expr(k)
        expected = li_expand(Index((2, 3)))
        n = save_li_cache(path)
        clear_caches()
        monkeypatch.setattr(polylog, "_li_expand_uncached", None)  # any miss must read the file
        use_li_cache(path)
        assert li_expand(Index((2, 3))) == expected
        assert list(polylog._LI_CACHE) == [Index((2, 3))]
        assert len(polylog._DISK) == n

    def test_disk_entry_inside_a_family(self, tmp_path, monkeypatch):
        # (2,2) comes from disk between (2,3) and (2,1), which expand around it
        path = str(tmp_path / "cache.json")
        li_expand(Index((2, 2)))
        save_li_cache(path)
        clear_caches()
        expected = zeta_expr(Index((2, 3)))
        truncations = set(polylog._LI_CACHE)
        clear_caches()
        computed = record_expansions(monkeypatch)
        use_li_cache(path)
        assert zeta_expr(Index((2, 3))) == expected
        assert Index((2, 2)) not in computed
        assert sorted(computed, key=str) == sorted(truncations - {Index((2, 2))}, key=str)

    def test_save_only_adds(self, tmp_path):
        path = tmp_path / "cache.json"
        li_expand(Index((2,)))
        assert save_li_cache(str(path)) == 1
        before = path.read_bytes()
        assert save_li_cache(str(path)) == 0
        assert path.read_bytes() == before
        li_expand(Index((3,)))
        assert save_li_cache(str(path)) == 1
        assert cache_lines(path) == [entry_line(k, expr_text(li_expand(Index((int(k),)))))
                                     for k in ("2", "3")]
        assert path.read_bytes().startswith(before)

    def test_save_creates_the_directory(self, tmp_path):
        path = tmp_path / "new" / "cache.json"
        li_expand(Index((2,)))
        assert save_li_cache(str(path)) >= 1 and path.exists()
        assert [p.name for p in path.parent.iterdir()] == ["cache.json"]

    @pytest.mark.parametrize("text", ['{"2": {"terms": 5}}', "[" * 100000, "{", "\xff"])
    def test_unusable_file_counts_as_empty(self, tmp_path, capsys, text):
        path = tmp_path / "cache.json"
        path.write_bytes(text.encode("latin-1"))
        assert load_li_cache(str(path)) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"ignoring expansion cache {path}: ")

    @pytest.mark.parametrize("damage", ["not a pair", "wrong weight", "bad key", "off phase",
                                        "times i"])
    def test_entry_failing_a_check_is_recomputed(self, tmp_path, capsys, damage):
        path = tmp_path / "cache.json"
        expected = li_expand(Index((2,)))
        save_li_cache(str(path))
        good = expr_text(expected)
        assert cache_lines(path) == [entry_line("2", good)]
        if damage == "not a pair":
            line = '["2",{"terms":5}]\n'
        elif damage == "wrong weight":
            # a consistent digest over the expansion of another index
            line = entry_line("2", expr_text(li_expand(Index((3,)))))
        elif damage == "off phase":
            # i Ls_2 + (1/36) pi^2 with the real pi^2 term made imaginary
            text = good.replace('"re":"1/36","im":"0"', '"re":"0","im":"1/36"')
            assert text != good
            line = entry_line("2", text)
        elif damage == "times i":
            # -Ls_2 + (i/36) pi^2: every term agrees on phase bit 1, not the 0 of an expansion
            text = (good.replace('"re":"0","im":"1"', '"re":"-1","im":"0"')
                    .replace('"re":"1/36","im":"0"', '"re":"0","im":"1/36"'))
            line = entry_line("2", text)
        else:
            line = entry_line("02", good)
        path.write_text(HEADER + line)
        clear_caches()
        load_li_cache(str(path))
        assert li_expand(Index((2,))) == expected
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ignoring entry")
        assert save_li_cache(str(path)) == 1
        # the index's last line is the recomputed entry, and the file loads cleanly
        lines = cache_lines(path)
        assert {json.loads(x)[0] for x in lines} == {"2"} and lines[-1] == entry_line("2", good)
        clear_caches()
        assert load_li_cache(str(path)) == 1 and li_expand(Index((2,))) == expected
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("cut", ["mid-entry", "in the key"])
    def test_torn_last_line_is_recomputed_alone(self, tmp_path, capsys, monkeypatch, cut):
        # a crash during an append leaves the last line cut short
        path = tmp_path / "cache.json"
        zeta_expr(Index((2, 3)))
        expected = dict(polylog._LI_CACHE)
        save_li_cache(str(path))
        last = cache_lines(path)[-1]
        torn = Index.parse(json.loads(last)[0])
        keep = len(last) // 2 if cut == "mid-entry" else 4
        path.write_bytes(path.read_bytes()[:-len(last) + keep])
        clear_caches()
        computed = record_expansions(monkeypatch)
        use_li_cache(str(path))
        assert {k: li_expand(k) for k in expected} == expected
        assert computed == [torn]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ignoring ")
        assert save_li_cache(str(path)) == 1
        clear_caches()
        computed.clear()
        use_li_cache(str(path))
        assert {k: li_expand(k) for k in expected} == expected
        assert computed == [] and capsys.readouterr().err == ""

    def test_rewrite_keeps_entries_and_drops_a_torn_last_line(self, tmp_path, capsys,
                                                               monkeypatch):
        # a line that is no entry makes the next save write the file anew; the
        # torn last line of an index never asked for must not swallow a new line
        path = tmp_path / "cache.json"
        two, three = (expr_text(li_expand(Index((k,)))) for k in (2, 3))
        torn = entry_line("4", expr_text(li_expand(Index((4,)))))[:100]
        path.write_text(HEADER + entry_line("2", two) + '["2,x","0",{}]\n' + torn)
        clear_caches()
        assert load_li_cache(str(path)) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"ignoring entry '2,x' of expansion cache {path}: key not an index"]
        li_expand(Index((3,)))
        assert save_li_cache(str(path)) == 1
        assert cache_lines(path) == [entry_line("2", two), entry_line("3", three)]
        clear_caches()
        computed = record_expansions(monkeypatch)
        assert load_li_cache(str(path)) == 2
        assert expr_text(li_expand(Index((3,)))) == three and computed == []
        assert capsys.readouterr().err == ""

    def test_repeated_key_with_a_corrupt_last_line_is_recomputed(self, tmp_path, capsys,
                                                                 monkeypatch):
        # the earlier line holds another expansion of weight 2 under a valid
        # digest: only the last line of a key counts, and it fails its digest
        path = tmp_path / "cache.json"
        expected = li_expand(Index((2,)))
        wrong = li_expand(Index((1, 1)))
        assert wrong != expected
        corrupt = entry_line("2", expr_text(expected)).replace('"1/36"', '"1/37"')
        path.write_text(HEADER + entry_line("2", expr_text(wrong)) + corrupt)
        clear_caches()
        computed = record_expansions(monkeypatch)
        assert load_li_cache(str(path)) == 1
        assert li_expand(Index((2,))) == expected and computed == [Index((2,))]
        assert capsys.readouterr().err.splitlines() == [
            f"ignoring entry '2' of expansion cache {path}: checksum mismatch"]

    def test_save_appends_after_every_byte_of_a_valid_file(self, tmp_path):
        path = tmp_path / "cache.json"
        for k in enumerate_admissible(5):
            zeta_expr(k)
        n = save_li_cache(str(path))
        before = path.read_bytes()
        clear_caches()
        use_li_cache(str(path))
        zeta_expr(Index((2, 4)))  # reads some truncations, expands others
        added = save_li_cache(str(path))
        after = path.read_bytes()
        assert added > 0 and after.startswith(before)
        assert len(cache_lines(path)) == n + added

    def test_two_processes_each_add_an_entry(self, tmp_path):
        # both read the file before either saves; the first saves last
        path = tmp_path / "cache.json"
        li_expand(Index((2,)))
        save_li_cache(str(path))
        env = {**os.environ, "PYTHONPATH": str(Path(polylog.__file__).resolve().parents[1])}
        argv = [sys.executable, "-c", EXPAND_THEN_SAVE, str(path)]
        first = subprocess.Popen([*argv, "3"], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                 text=True, env=env)
        try:
            assert first.stdout.readline() == "expanded\n"
            second = subprocess.run([*argv, "4"], input="\n", capture_output=True, text=True,
                                    env=env, timeout=120)
            assert second.stdout.split() == ["expanded", "1"], second.stderr
            out, _ = first.communicate("\n", timeout=120)
        finally:
            first.kill()
        assert first.returncode == 0 and out.split() == ["1"]
        assert [json.loads(line)[0] for line in cache_lines(path)] == ["2", "4", "3"]
        clear_caches()
        assert load_li_cache(str(path)) == 3
        for k in ("2", "3", "4"):
            assert li_expand(Index.parse(k)) == polylog._li_expand_uncached(Index.parse(k))

    def test_format_2_file_is_rewritten_as_format_3(self, tmp_path, capsys):
        path = tmp_path / "cache.json"
        expected = li_expand(Index((2,)))
        text = expr_text(expected)
        digest = hashlib.sha256(f"2\n{text}".encode()).hexdigest()
        path.write_text(json.dumps({"format": 2, "entries": {"2": {"sha256": digest,
                                                                   "expr": text}}}))
        clear_caches()
        assert load_li_cache(str(path)) == 0
        assert li_expand(Index((2,))) == expected
        assert capsys.readouterr().err.splitlines() == [
            f"ignoring expansion cache {path}: not a format-3 cache"]
        assert save_li_cache(str(path)) == 1
        assert cache_lines(path) == [entry_line("2", text)]


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
    # the key check accepts, or empty: no "1_0", "+3" or "3, 2"
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
