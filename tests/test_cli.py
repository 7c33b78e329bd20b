import json
import logging
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lsizeta
from lsizeta import polylog
from lsizeta.cli import main
from lsizeta.indices import Index
from lsizeta.relations import re_matrix
from lsizeta.serialize import expr_to_json


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

    @pytest.mark.usefixtures("fresh_caches")
    def test_reduce_deep_monomial(self, capsys):
        # Ls_1^(0) = -pi/3, so n of them over the ordered simplex give
        # (-pi/3)^n / n!, through one reduction per position
        n = 1200
        code, out, err = run(capsys, "reduce", ",".join(["1"] * n) + ":" + ",".join(["0"] * n))
        assert (code, err) == (0, "")
        assert out == f"({Fraction((-1) ** n, 3**n * math.factorial(n))})*pi^{n}"

    def test_zeta_latex(self, capsys):
        code, out, _ = run(capsys, "zeta", "3", "--format", "latex")
        assert code == 0
        assert "\\mathrm{Ls}_{2}^{(0)}" in out and "\\frac{7}{216}" in out

    def test_li_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "li", "1,3", "--format", "json")
        assert code == 0
        from lsizeta.indices import Index
        from lsizeta.polylog import li_expand
        assert json.loads(out) == expr_to_json(li_expand(Index((1, 3))))

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

    @pytest.mark.parametrize("argv", [("reduce", "1_3:0_1"), ("shuffle", " +2", "2:1"),
                                      ("basis", "0_4", "odd"), ("trunc", "2,3", "+1"),
                                      ("reduce", "2,1,3:1,0,1", "--at", "01"),
                                      ("shuffle", "2", "2", "--pi2", " 1"),
                                      ("lk", "4", "--max-weight", "8\t"), ("verify", "\u0663"),
                                      ("verify", "2", "--precision", "1_0e-7"),
                                      ("verify", "2", "--precision", " 1e-6")])
    def test_integer_literal_not_as_printed(self, capsys, argv):
        # int() or float() would take each of these; no number prints so
        code, out, err = run(capsys, *argv)
        kind = "float" if "--precision" in argv else "integer"
        assert code in ((2,) if kind == "float" else (1, 2)) and out == ""
        assert f"malformed {kind} literal" in json.loads(err)["error"]

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lk", "--help"])
        assert exc.value.code == 0
        assert "upto" in capsys.readouterr().out


# a quick valid call of each command, and the shared options it reads
COMMANDS = {"dual": (["3,2"], {"--format"}), "trunc": (["2,3", "2"], {"--format"}),
            "shuffle": (["1,3:0,1", "2:1"], {"--format"}),
            "reduce": (["2,1,3:1,0,1"], {"--format"}), "li": (["1,3"], {"--format"}),
            "zeta": (["3"], {"--format"}), "basis": (["2", "odd"], {"--format"}),
            "relations": (["4"], {"--format", "--max-weight"}),
            "lk": (["4"], {"--format", "--max-weight"}),
            "verify": (["3"], {"--max-weight", "--precision"})}
# a value the option accepts at every command above
SHARED = {"--format": "json", "--max-weight": "4", "--precision": "1e-6"}
OWN = {"shuffle": {"--pi", "--pi2"}, "reduce": {"--pi", "--at"}}


@pytest.mark.parametrize("option", sorted(SHARED))
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_option_scope(capsys, command, option):
    # a command takes a shared option only if it reads it, in the parser and
    # in its help, and refuses it otherwise as a usage error naming it
    args, reads = COMMANDS[command]
    code, out, err = run(capsys, command, *args, option, SHARED[option])
    if option in reads:
        assert code == 0 and out and err == ""
        if option == "--format":
            json.loads(out)
    else:
        assert (code, out) == (2, "")
        assert option in json.loads(err)["error"]
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", capsys.readouterr().out))
    assert listed == {"--help"} | reads | OWN.get(command, set())


SRC = str(Path(lsizeta.__file__).resolve().parents[1])


def lsi(*argv, env=None, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """``lsi argv`` in a new interpreter that imports from this tree."""
    full = {k: v for k, v in os.environ.items() if k != "LSI_CACHE_DIR"}
    full.update({"PYTHONPATH": SRC, **(env or {})})
    return subprocess.run([sys.executable, "-m", "lsizeta.cli", *argv], env=full,
                          stdout=stdout, stderr=subprocess.PIPE, timeout=120)


def snapshot(path: Path):
    """What is at ``path``: nothing, a file's bytes or a directory's files."""
    if path.is_dir():
        return {p.name: snapshot(p) for p in path.iterdir()}
    return path.read_bytes() if path.exists() else None


# an entry of an earlier version's cache file that would make Li_2 vanish
STALE = b'{"format":3}\n["2","0",{"terms":[]}]\n'


@pytest.mark.parametrize("setting", ["empty dir", "stale cache", "file", "missing"])
def test_cache_dir_changes_nothing(tmp_path, setting):
    path = tmp_path / "cache"
    if setting in ("empty dir", "stale cache"):
        path.mkdir()
        if setting == "stale cache":
            (path / "li_cache.json").write_bytes(STALE)
    elif setting == "file":
        path.write_bytes(b"")
    before = snapshot(path)
    for argv in (["li", "1,3"], ["zeta", "2"], ["zeta", "2,3"], ["lk", "4"]):
        plain = lsi(*argv)
        cached = lsi(*argv, env={"LSI_CACHE_DIR": str(path)})
        assert plain.returncode == 0 and plain.stdout and plain.stderr == b""
        assert (cached.returncode, cached.stdout, cached.stderr) == (
            plain.returncode, plain.stdout, plain.stderr), argv
    assert snapshot(path) == before


def _bad_cache(tmp_path, monkeypatch, data: bytes) -> Path:
    """Point ``LSI_CACHE_DIR`` at ``tmp_path`` and put ``data`` in its
    ``li_cache.json``."""
    monkeypatch.setenv("LSI_CACHE_DIR", str(tmp_path))
    path = tmp_path / "li_cache.json"
    path.write_bytes(data)
    return path


def _li2_json_with(change) -> dict:
    """Li_2(e^{iπ/3}) as JSON, with ``change`` applied to its π² term."""
    expr = expr_to_json(polylog._li_expand_uncached(Index((2,))))
    for term in expr["terms"]:
        if term["pi"] == 2:
            change(term)
    return expr


def _json_line(*items) -> bytes:
    return (json.dumps(list(items), separators=(",", ":")) + "\n").encode()


@pytest.mark.usefixtures("fresh_caches")
class TestCacheEnv:
    """A cache file under ``LSI_CACHE_DIR``, however wrong, is neither read nor
    written: each command prints what it prints without one, on a quiet stderr."""

    def test_malformed_cache_is_rejected(self, capsys, tmp_path, monkeypatch):
        path = _bad_cache(tmp_path, monkeypatch, b'{"2,3": {"terms": 5}}')
        assert run(capsys, "dual", "3,2") == (0, "2,1,2", "")
        code, out, err = run(capsys, "li", "2,3", "--format", "json")
        assert code == 0 and err == ""
        assert json.loads(out) == expr_to_json(polylog._li_expand_uncached(Index((2, 3))))
        assert path.read_bytes() == b'{"2,3": {"terms": 5}}'

    def test_poisoned_entry_is_rejected(self, capsys, tmp_path, monkeypatch):
        # a wrong π² coefficient, in the lines that save_li_cache writes
        def poison(term):
            term["re"] = "1/7"

        data = _json_line("2", _li2_json_with(poison))
        path = _bad_cache(tmp_path, monkeypatch, data)
        assert run(capsys, "zeta", "2") == (0, "(1/6)*pi^2", "")
        assert path.read_bytes() == data

    def test_entry_off_phase_is_rejected(self, capsys, tmp_path, monkeypatch):
        # the real π² term of Li_2 made imaginary, in an earlier version's
        # format-3 file
        def turn(term):
            term["re"], term["im"] = term["im"], term["re"]

        data = b'{"format":3}\n' + _json_line("2", "0" * 64, _li2_json_with(turn))
        path = _bad_cache(tmp_path, monkeypatch, data)
        assert run(capsys, "zeta", "2") == (0, "(1/6)*pi^2", "")
        assert path.read_bytes() == data

    def test_unversioned_cache_is_rewritten(self, capsys, tmp_path, monkeypatch):
        # an earlier version rewrote this file in its own format; now nothing
        # is read, so nothing is rewritten either
        def poison(term):
            term["re"] = "1/7"

        data = json.dumps({"2": _li2_json_with(poison)}).encode()
        path = _bad_cache(tmp_path, monkeypatch, data)
        assert run(capsys, "zeta", "2") == (0, "(1/6)*pi^2", "")
        assert run(capsys, "li", "2", "--format", "json")[0] == 0
        assert path.read_bytes() == data and sorted(tmp_path.iterdir()) == [path]


def test_closed_stdout_is_a_json_error():
    # the reader of the pipe has gone before the result is written, as in
    # ``lsi basis 9 odd | head -2`` once head exits
    r, w = os.pipe()
    os.close(r)
    try:
        done = lsi("basis", "9", "odd", stdout=w)
    finally:
        os.close(w)
    err = done.stderr.decode()
    assert done.returncode == 1 and "Traceback" not in err
    assert len(err.splitlines()) == 1 and "error" in json.loads(err)


# zeta(1,2) one off in the series, so that its first check alone fails
FAIL_ZETA12 = """
import sys
from lsizeta import cli, oracle
series = oracle.eval_mzv
oracle.eval_mzv = lambda k: series(k) + (k.parts == (1, 2))
sys.exit(cli.main(["verify", "3"]))
"""


class TestFailingVerify:
    def test_report_on_stdout_and_one_json_error(self, capsys, monkeypatch):
        code, passing, err = run(capsys, "verify", "3")
        assert (code, err) == (0, "")
        from lsizeta import oracle
        series = oracle.eval_mzv
        monkeypatch.setattr(oracle, "eval_mzv", lambda k: series(k) + (k.parts == (1, 2)))
        code, out, err = run(capsys, "verify", "3")
        assert code == 1 and json.loads(err) == {"error": "1 verification failure(s)"}
        assert err.count("\n") == 1
        want = [line.replace("PASS", "FAIL") if line.startswith("PASS zeta(1,2) symbolic")
                else line for line in passing.splitlines()]
        assert [re.sub(r"residual .*", "", line) for line in out.splitlines()] == \
            [re.sub(r"residual .*", "", line) for line in want]

    def test_closed_stdout_still_ends_in_the_json_error(self):
        r, w = os.pipe()
        os.close(r)
        full = {k: v for k, v in os.environ.items() if k != "LSI_CACHE_DIR"}
        try:
            done = subprocess.run([sys.executable, "-c", FAIL_ZETA12], stdout=w,
                                  stderr=subprocess.PIPE, env={**full, "PYTHONPATH": SRC},
                                  timeout=120)
        finally:
            os.close(w)
        err = done.stderr.decode()
        assert done.returncode == 1 and "Traceback" not in err
        assert len(err.splitlines()) == 1 and "stdout closed" in json.loads(err)["error"]


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
