"""Start-up cost: only the commands that row-reduce or evaluate load numpy,
and only those that can report progress load logging.

``lsizeta.relations`` imports numpy at module level and ``lsizeta.oracle``
inside its numeric functions; ``cli`` imports ``relations`` inside the
commands that need it and the package exports its names on first use.
``cli`` imports logging only around ``relations``, ``lk`` and ``verify``.
Each check runs in a fresh interpreter, since this one has numpy loaded
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


@pytest.mark.parametrize("cache", ["none", "cold", "primed"])
def test_light_commands_do_not_load_numpy(cache, tmp_path):
    env = {} if cache == "none" else {"LSI_CACHE_DIR": str(tmp_path)}
    if cache == "primed":
        fresh(RUN_COMMANDS, json.dumps(LIGHT_COMMANDS), env=env)
        assert (tmp_path / "li_cache.json").exists()
    # prints the first command after which numpy or logging is loaded, if any
    assert fresh(RUN_COMMANDS, json.dumps(LIGHT_COMMANDS), env=env) == ""


def test_import_does_not_load_numpy_and_submodules_still_import():
    out = fresh("import sys, lsizeta\n"
                "print('numpy' in sys.modules)\n"
                "from lsizeta import relations, oracle\n"
                "print(lsizeta.compute_lk is relations.compute_lk,\n"
                "      lsizeta.eval_mzv is oracle.eval_mzv, 'numpy' in sys.modules)")
    assert out.split() == ["False", "True", "True", "True"]


def test_exported_names_are_their_defining_modules_objects():
    for name in lsizeta.__all__:
        obj = getattr(lsizeta, name)
        home = importlib.import_module(obj.__module__)
        assert obj.__module__.startswith("lsizeta.") and getattr(home, name) is obj, name
    assert lsizeta.RationalMatrix is importlib.import_module("lsizeta.relations").RationalMatrix
    with pytest.raises(AttributeError):
        lsizeta.no_such_name
