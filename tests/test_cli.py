import json
import logging
import re

import pytest

from lsizeta import polylog
from lsizeta.cli import main
from lsizeta.indices import Index
from lsizeta.relations import re_matrix
from lsizeta.serialize import expr_from_json, expr_to_json
from test_polylog import HEADER, cache_lines, entry_line


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.rstrip("\n"), out.err


class TestBasicCommands:
    def test_dual(self, capsys):
        code, out, _ = run(capsys, "dual", "3,2")
        assert code == 0 and out == "2,1,2"

    def test_trunc(self, capsys):
        code, out, _ = run(capsys, "trunc", "2,3", "2")
        assert code == 0 and out == "2,1"

    def test_shuffle_text(self, capsys):
        code, out, _ = run(capsys, "shuffle", "1,3:0,1", "2:1")
        assert code == 0
        assert "Ls[2,1,3]^(1,0,1)" in out and "Ls[1,3,2]^(0,1,1)" in out

    def test_reduce_canonicalizes(self, capsys):
        code, out, _ = run(capsys, "reduce", "2,1,3:1,0,1")
        assert code == 0 and out == "(1/6)*Ls[6]^(4)"

    def test_reduce_single_step(self, capsys):
        code, out, _ = run(capsys, "reduce", "1,3:0,1", "--at", "1")
        assert code == 0 and out == "(-1)*Ls[4]^(2)"

    def test_zeta_latex(self, capsys):
        code, out, _ = run(capsys, "zeta", "3", "--format", "latex")
        assert code == 0
        assert "\\mathrm{Ls}_{2}^{(0)}" in out and "\\frac{7}{216}" in out

    def test_li_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "li", "1,3", "--format", "json")
        assert code == 0
        from lsizeta.indices import Index
        from lsizeta.polylog import li_expand
        assert expr_from_json(json.loads(out)) == li_expand(Index((1, 3)))

    def test_basis(self, capsys):
        code, out, _ = run(capsys, "basis", "2", "odd")
        assert code == 0 and out == "Ls[2]^(0)"

    def test_basis_is_not_capped_by_max_weight(self, capsys):
        code, out, _ = run(capsys, "basis", "9", "odd")
        assert code == 0 and len(out.splitlines()) == 128

    def test_lk_table(self, capsys):
        code, out, _ = run(capsys, "lk", "6")
        assert code == 0
        assert out.splitlines() == ["2 1", "3 1", "4 1", "5 2", "6 2"]

    def test_relations_byte_stable(self, capsys):
        code1, out1, _ = run(capsys, "relations", "5")
        code2, out2, _ = run(capsys, "relations", "5")
        assert code1 == code2 == 0 and out1 == out2
        assert "zeta(5)" in out1

    def test_relations_json(self, capsys):
        code, out, _ = run(capsys, "relations", "4", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert len(data) == 2

    def test_verify_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "3", "--precision", "1e-6")
        assert code == 0
        assert all(line.startswith("PASS") for line in out.splitlines())

    @pytest.mark.parametrize("w", [7, 8])
    def test_verify_passes_at_finest_precision(self, capsys, w):
        # the depth-6 and depth-7 zeta series need tails accurate past 1e-12
        code, out, _ = run(capsys, "verify", str(w), "--precision", "1e-12")
        assert code == 0
        assert all(line.startswith("PASS") for line in out.splitlines())


class TestErrors:
    def test_malformed_index(self, capsys):
        code, _, err = run(capsys, "dual", "2,x")
        assert code == 1
        assert "error" in json.loads(err.splitlines()[-1])

    @pytest.mark.parametrize("literal", ["1_0,2", "+3,2", "3, 2", "3 ,2", "3,,2", "0,2",
                                         "03,2", "\uff13,2", "3,2,", "Phi"])
    def test_index_literal_not_as_printed(self, capsys, literal):
        # int() would take each part of the first four; no index prints so
        code, out, err = run(capsys, "dual", literal)
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": f"malformed index string: {literal!r}"}

    def test_index_literal_between_blanks(self, capsys):
        assert run(capsys, "dual", " 3,2\t") == (0, "2,1,2", "")

    def test_non_admissible_dual(self, capsys):
        code, _, err = run(capsys, "dual", "2,1")
        assert code == 1 and "non-admissible" in err

    def test_weight_beyond_cap(self, capsys):
        code, _, err = run(capsys, "lk", "9", "--max-weight", "8")
        assert code == 1 and "exceeds" in err

    @pytest.mark.parametrize("argv", [("lk", "1"), ("lk", "--", "-3")])
    def test_weight_below_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "below 2" in json.loads(err.splitlines()[-1])["error"]

    def test_bad_config(self, capsys):
        code, _, err = run(capsys, "lk", "4", "--max-weight", "99")
        assert code == 2 and "max weight" in err

    def test_bad_precision(self, capsys):
        code, _, err = run(capsys, "verify", "2", "--precision", "1")
        assert code == 2

    def test_bad_monomial(self, capsys):
        code, _, err = run(capsys, "reduce", "2:5")
        assert code == 1

    @pytest.mark.parametrize("argv", [("lk", "abc"), ("lk", "5", "--bogus"),
                                      ("lk", "5", "--use-cr")])
    def test_usage_error_is_json(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "error" in json.loads(err.splitlines()[-1])

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lk", "--help"])
        assert exc.value.code == 0
        assert "upto" in capsys.readouterr().out


def _cache(tmp_path, monkeypatch):
    monkeypatch.setenv("LSI_CACHE_DIR", str(tmp_path))
    return tmp_path / "li_cache.json"


@pytest.mark.usefixtures("fresh_caches")
class TestCacheEnv:
    def test_cache_persists(self, capsys, tmp_path, monkeypatch):
        path = _cache(tmp_path, monkeypatch)
        code, out1, _ = run(capsys, "li", "2,3", "--format", "json")
        assert code == 0
        assert path.exists()
        polylog.clear_caches()

        def recompute(k):
            raise AssertionError(f"expanded {k} instead of reading it from disk")

        monkeypatch.setattr(polylog, "_li_expand_uncached", recompute)
        code, out2, err = run(capsys, "li", "2,3", "--format", "json")
        assert code == 0 and out1 == out2 and err == ""

    def test_malformed_cache_is_rejected(self, capsys, tmp_path, monkeypatch):
        path = _cache(tmp_path, monkeypatch)
        path.write_text('{"2,3": {"terms": 5}}')
        code, out, err = run(capsys, "dual", "3,2")
        assert (code, out, err) == (0, "2,1,2", "")  # needs no expansion: file unread
        code, out, err = run(capsys, "li", "2,3", "--format", "json")
        assert code == 0
        assert expr_from_json(json.loads(out)) == polylog._li_expand_uncached(Index((2, 3)))
        assert err.splitlines() == [
            f"ignoring expansion cache {path}: not a format-3 cache"]

    def test_poisoned_entry_is_rejected(self, capsys, tmp_path, monkeypatch):
        path = _cache(tmp_path, monkeypatch)
        code, out, _ = run(capsys, "zeta", "2")
        assert code == 0 and out == "(1/6)*pi^2"
        lines = cache_lines(path)
        i, (_, digest, expr) = next((i, json.loads(line)) for i, line in enumerate(lines)
                                    if json.loads(line)[0] == "2")
        for term in expr["terms"]:
            if term["pi"] == 2:
                term["re"] = "1/7"
        lines[i] = f'["2","{digest}",{json.dumps(expr, separators=(",", ":"))}]\n'
        path.write_text(HEADER + "".join(lines))
        polylog.clear_caches()
        code, out, err = run(capsys, "zeta", "2")
        assert code == 0 and out == "(1/6)*pi^2"
        assert err.splitlines() == [
            f"ignoring entry '2' of expansion cache {path}: checksum mismatch"]

    def test_entry_off_phase_is_rejected(self, capsys, tmp_path, monkeypatch):
        # a hand edit that makes the real pi^2 term of Li_2 imaginary, with the
        # digest recomputed so that only the phase rule can catch it
        path = _cache(tmp_path, monkeypatch)
        code, out, _ = run(capsys, "zeta", "2")
        assert code == 0 and out == "(1/6)*pi^2"
        lines = cache_lines(path)
        i, (_, _, expr) = next((i, json.loads(line)) for i, line in enumerate(lines)
                               if json.loads(line)[0] == "2")
        for term in expr["terms"]:
            if term["pi"] == 2:
                term["re"], term["im"] = term["im"], term["re"]
        lines[i] = entry_line("2", json.dumps(expr, separators=(",", ":")))
        path.write_text(HEADER + "".join(lines))
        polylog.clear_caches()
        code, out, err = run(capsys, "zeta", "2")
        assert code == 0 and out == "(1/6)*pi^2"
        assert err.splitlines() == [
            f"ignoring entry '2' of expansion cache {path}: a coefficient is not "
            "i^(depth + pi power + sum l) times a rational"]

    def test_unversioned_cache_is_rewritten(self, capsys, tmp_path, monkeypatch):
        path = _cache(tmp_path, monkeypatch)
        two = polylog._li_expand_uncached(Index((2,)))
        path.write_text(json.dumps({"2": expr_to_json(two)}))
        code, out, err = run(capsys, "zeta", "2")
        assert code == 0 and out == "(1/6)*pi^2"
        assert err.splitlines() == [
            f"ignoring expansion cache {path}: not a format-3 cache"]
        keys = [json.loads(line)[0] for line in cache_lines(path)]
        assert "2" in keys
        polylog.clear_caches()
        assert polylog.load_li_cache(str(path)) == len(keys)
        assert polylog.li_expand(Index((2,))) == two

    def test_only_expanding_commands_attach_the_file(self, capsys, tmp_path, monkeypatch):
        path = _cache(tmp_path, monkeypatch)
        for argv in (["dual", "3,2"], ["trunc", "2,3", "1"], ["shuffle", "2", "2"],
                     ["reduce", "1,3:0,1"], ["basis", "4", "odd"]):
            assert run(capsys, *argv)[0] == 0
        assert not path.exists() and polylog._CACHE_PATH is None
        assert run(capsys, "zeta", "2") == (0, "(1/6)*pi^2", "")
        assert path.exists() and polylog._CACHE_PATH == str(path)

    @pytest.mark.parametrize("then", [["zeta", "2"], ["dual", "3,2"]])
    def test_a_call_without_the_variable_detaches_the_file(self, capsys, tmp_path,
                                                           monkeypatch, then):
        path = _cache(tmp_path, monkeypatch)
        assert run(capsys, "zeta", "2") == (0, "(1/6)*pi^2", "")
        path.write_bytes(b"not a cache\n")  # read, it costs a stderr line; saved, it is replaced
        monkeypatch.delenv("LSI_CACHE_DIR")
        code, _, err = run(capsys, *then)
        assert code == 0 and err == ""
        polylog.li_expand(Index((3,)))  # a memo miss, as the next expanding command would have
        assert path.read_bytes() == b"not a cache\n" and capsys.readouterr().err == ""
        assert polylog._CACHE_PATH is None

    def test_cache_dir_that_is_a_file(self, capsys, tmp_path, monkeypatch):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        monkeypatch.setenv("LSI_CACHE_DIR", str(not_a_dir))
        code, out, err = run(capsys, "dual", "3,2")
        assert code == 2 and out == ""
        assert "not a directory" in json.loads(err.splitlines()[-1])["error"]


class TestProgress:
    def test_lk8_reports_each_row_and_lk7_stays_quiet(self, capsys):
        code, out, err = run(capsys, "lk", "8")
        assert code == 0 and out.splitlines()[-1] == "8 4"
        lines = err.splitlines()
        assert lines
        assert all(re.fullmatch(r"expanded \d+/\d+ \(weight \d+\)", line) for line in lines)
        assert "expanded 36/36 (weight 8)" in lines
        # main leaves the logger as it found it
        logger = logging.getLogger("lsizeta")
        assert not logger.handlers and logger.level == logging.NOTSET
        code, _, err = run(capsys, "lk", "7")
        assert code == 0 and err == ""

    def test_library_reports_only_when_the_logger_is_enabled(self, capsys, caplog):
        re_matrix(5)
        assert capsys.readouterr().err == "" and not caplog.records
        with caplog.at_level(logging.INFO, logger="lsizeta"):
            re_matrix(5)
        assert [r.getMessage() for r in caplog.records] == [
            f"expanded {i}/4 (weight 5)" for i in range(1, 5)]
        assert capsys.readouterr().err == ""
