import hashlib
import json
from fractions import Fraction

from lsizeta import serialize
from lsizeta.algebra import LsiExpr, LsiMonomial, canonicalize
from lsizeta.indices import Index, dual, enumerate_admissible, truncate
from lsizeta.polylog import li_expand, zeta_expr
from lsizeta.relations import build_basis, mzv_relations

# SHA-256 of f"{k}\n{compact JSON}\n" over every admissible index of weight
# 2..9 in enumeration order (zeta), and over the 384 distinct truncations of
# those indices and their duals sorted by str (li), as first released
ZETA_JSON_SHA256 = "59e68446dcfecde6da18c4bd72d6e836828c90815a2e49f6ac98b362141939ce"
LI_JSON_SHA256 = "9c25254cccb18b2a736122ebc9aa7d0aa38156919fbfb97c2d38149bcf2399c4"




class TestJson:
    def test_expr_format_shape(self):
        e = LsiExpr({LsiMonomial(3): Fraction(-7, 216)})  # odd phase at bit 0: imaginary
        data = serialize.expr_to_json(e)
        assert data == {"terms": [{"pi": 3, "k": [], "l": [], "re": "0", "im": "-7/216"}]}

    def test_odd_phase_bit_writes_real_parts(self):
        # a plain monomial of odd phase has bit 1, which its canonical form keeps
        e = canonicalize(LsiExpr.of_monomial(LsiMonomial(0, (2, 1), (1, 0)), 3))
        assert e.t == 1 and e
        assert serialize.expr_to_json(e) == {"terms": [
            {"pi": m.pi_pow, "k": list(m.ks), "l": list(m.ls), "re": str(c), "im": "0"}
            for m, c in e.terms()]}

    def test_terms_in_canonical_order(self):
        e = zeta_expr(Index((5,)))
        ks = [tuple(t["k"]) for t in serialize.expr_to_json(e)["terms"]]
        pis = [t["pi"] for t in serialize.expr_to_json(e)["terms"]]
        assert pis == sorted(pis)
        assert ks[0] == (5,)

    def test_relation_json(self):
        rels = mzv_relations(4)
        data = serialize.relation_to_json(rels[0])
        assert all(set(t) == {"index", "coeff"} for t in data["relation"])

    def test_basis_json(self):
        data = serialize.basis_to_json(build_basis(2, "odd"))
        assert data == {"weight": 2, "parity": "odd",
                        "monomials": [{"pi": 0, "k": [2], "l": [0]}]}


def test_expansion_json_is_byte_stable(fresh_caches):
    def compact(e):
        return json.dumps(serialize.expr_to_json(e), separators=(",", ":"))

    zeta, li, truncations = hashlib.sha256(), hashlib.sha256(), set()
    for w in range(2, 10):
        for k in enumerate_admissible(w):
            zeta.update(f"{k}\n{compact(zeta_expr(k))}\n".encode())
            for kk in (k, dual(k)):
                truncations.update(truncate(kk, m) for m in range(kk.weight + 1))
    for k in sorted(truncations, key=str):
        li.update(f"{k}\n{compact(li_expand(k))}\n".encode())
    assert len(truncations) == 384
    assert (zeta.hexdigest(), li.hexdigest()) == (ZETA_JSON_SHA256, LI_JSON_SHA256)


class TestLatex:
    def test_zeta3_rendering(self):
        text = serialize.expr_latex(zeta_expr(Index((3,))))
        assert "\\mathrm{Ls}_{3}^{(0)}" in text
        assert "\\frac{7}{216}" in text
        assert "\\pi^{3}" in text

    def test_monomial_with_unit_pi(self):
        m = LsiMonomial(1, (2,), (0,))
        assert serialize.monomial_latex(m).startswith("\\pi ")

    def test_pure_unit(self):
        assert serialize.monomial_latex(LsiMonomial()) == "1"

    def test_relation_rendering(self):
        rel = mzv_relations(4)[0]
        text = serialize.relation_latex(rel)
        assert text.endswith("= 0") and "\\zeta" in text

    def test_rational_latex(self):
        assert serialize.rational_latex(Fraction(-7, 216)) == "-\\frac{7}{216}"
        assert serialize.rational_latex(Fraction(3)) == "3"
