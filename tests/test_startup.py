"""Start-up cost: each command loads only the modules it runs.

``lsizeta`` exports its names on first use and ``cli`` imports inside each
command what that command runs, so ``dual`` and ``trunc`` load
``lsizeta.indices`` alone, ``shuffle``, ``reduce`` and ``basis`` add
``lsizeta.algebra``, and ``li`` and ``zeta`` ``lsizeta.polylog``; only the
commands that row-reduce or evaluate load numpy, only those that can report
progress load logging, and no light command loads ``dataclasses`` (the value
classes are written out).  No command loads ``hashlib``, and the text output
of ``li`` and ``zeta`` needs no ``lsizeta.serialize``, whether or not
``LSI_CACHE_DIR`` names a directory, empty or holding an expansion file.
Each check runs in a fresh interpreter, since this one has loaded everything
already.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lsizeta

SRC = str(Path(lsizeta.__file__).resolve().parents[1])

LIGHT_COMMANDS = [["dual", "3,2"], ["trunc", "2,3,5", "2"], ["shuffle", "1,3:0,1", "2:1"],
                  ["reduce", "2,1,3:1,0,1"], ["basis", "5", "odd"], ["li", "1,3"],
                  ["zeta", "2,3"], ["zeta", "1,2,2"]]

RUN_COMMANDS = """
import contextlib, io, json, sys
from lsizeta import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    if {"numpy", "logging"} & sys.modules.keys():
        print(json.dumps(argv))
        break
"""


def fresh(code: str, *args: str, env: dict | None = None) -> str:
    """Stdout of ``code`` run by a new interpreter that imports from this tree."""
    full = {k: v for k, v in os.environ.items() if k != "LSI_CACHE_DIR"}
    full.update({"PYTHONPATH": SRC, **(env or {})})
    done = subprocess.run([sys.executable, "-c", code, *args], env=full,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


# writes the expansions of the light commands' zetas to the file argv[1], as
# the benchmark primes an expansion cache
PRIME = """
import sys
from lsizeta import polylog
from lsizeta.indices import Index
for k in ("2,3", "1,2,2"):
    polylog.zeta_expr(Index.parse(k))
assert polylog.save_li_cache(sys.argv[1]) > 0
"""


def cache_env(cache: str, tmp_path) -> dict:
    """``LSI_CACHE_DIR`` unset, or an empty or a primed directory."""
    if cache == "primed":
        fresh(PRIME, str(tmp_path / "li_cache.json"))
    return {} if cache == "none" else {"LSI_CACHE_DIR": str(tmp_path)}


def files(path) -> dict:
    return {p.name: p.read_bytes() for p in path.iterdir()}


@pytest.mark.parametrize("cache", ["none", "cold", "primed"])
def test_light_commands_do_not_load_numpy(cache, tmp_path):
    env = cache_env(cache, tmp_path)
    before = files(tmp_path)
    # prints the first command after which numpy or logging is loaded, if any
    assert fresh(RUN_COMMANDS, json.dumps(LIGHT_COMMANDS), env=env) == ""
    assert files(tmp_path) == before


# the package modules each light command loads, besides lsizeta and lsizeta.cli
MODULES = {"dual": {"indices"}, "trunc": {"indices"},
           **dict.fromkeys(["shuffle", "reduce", "basis"], {"indices", "algebra"}),
           **dict.fromkeys(["li", "zeta"], {"indices", "algebra", "polylog"})}

LOADED_BY = """
import contextlib, io, json, sys
before = set(sys.modules)
from lsizeta import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(sys.argv[1:]) == 0
print(json.dumps(sorted(set(sys.modules) - before)))
"""


@pytest.mark.parametrize("cache", ["none", "cold", "primed"])
@pytest.mark.parametrize("argv", LIGHT_COMMANDS, ids=" ".join)
def test_each_light_command_loads_only_what_it_runs(cache, argv, tmp_path):
    env = cache_env(cache, tmp_path)
    before = files(tmp_path)
    loaded = set(json.loads(fresh(LOADED_BY, *argv, env=env)))
    assert {m for m in loaded if m.startswith("lsizeta")} == (
        {"lsizeta", "lsizeta.cli"} | {f"lsizeta.{m}" for m in MODULES[argv[0]]})
    assert not {"dataclasses", "numpy", "logging", "hashlib"} & loaded
    if argv[0] in ("dual", "trunc"):
        assert "fractions" not in loaded
    assert files(tmp_path) == before  # LSI_CACHE_DIR is ignored


def test_verify_does_not_load_numpy_polynomial():
    # the oracle's panel kernel comes from closed forms
    loaded = set(json.loads(fresh(LOADED_BY, "verify", "4")))
    assert "lsizeta.oracle" in loaded and "numpy" in loaded
    assert not {m for m in loaded if m.startswith("numpy.polynomial")}


def test_import_does_not_load_numpy_and_submodules_still_import():
    out = fresh("import sys, lsizeta\n"
                "print('numpy' in sys.modules, [m for m in sys.modules if 'lsizeta.' in m])\n"
                "from lsizeta import relations, oracle\n"
                "print(lsizeta.compute_lk is relations.compute_lk,\n"
                "      lsizeta.eval_mzv is oracle.eval_mzv, 'numpy' in sys.modules)")
    assert out.split() == ["False", "[]", "True", "True", "True"]


def test_exported_names_are_their_defining_modules_objects():
    for name in lsizeta.__all__:
        obj = getattr(lsizeta, name)
        home = importlib.import_module(obj.__module__)
        assert obj.__module__.startswith("lsizeta.") and getattr(home, name) is obj, name
    assert lsizeta.RationalMatrix is importlib.import_module("lsizeta.relations").RationalMatrix
    with pytest.raises(AttributeError):
        lsizeta.no_such_name


def test_cli_resolves_the_names_it_once_imported():
    from lsizeta import algebra, cli, polylog

    assert cli.zeta_expr is polylog.zeta_expr and cli.shuffle is algebra.shuffle
    with pytest.raises(AttributeError):
        cli.no_such_name
