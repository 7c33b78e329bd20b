"""Tests of the benchmark itself: output schema, metric names, the span
arithmetic and the refusal to run outside a checkout.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ["verify7", "cli_session", "verify8", "lk9", "expand10"]
GRADED = WORKLOADS[:2]  # the workloads BENCHMARK.json lists


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_code():
    s = spec()
    assert set(s) == {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}
    assert [w["name"] for w in s["workloads"]] == GRADED
    assert [(m["name"], m["unit"], m["better"]) for m in s["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in s["per_layer"]] == run.PER_LAYER
    assert any(m["name"] == "setup_s" for m in s["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in s["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    names = [m["name"] for m in spec()["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "machine " in proc.stdout and "error_rate 0 " in proc.stdout


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "lk9",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_session_commands_depend_only_on_the_seed():
    a = run.session_commands(3, smoke=False)
    assert a == run.session_commands(3, smoke=False)
    assert len(a) == 9
    w11 = [c[1] for c in a if c[0] == "zeta" and sum(map(int, c[1].split(","))) == 11]
    assert len(w11) == 2 and all(len(k.split(",")) == 3 for k in w11)
    assert a != run.session_commands(4, smoke=False)


def test_self_time_excludes_children_and_tracer_overhead():
    # root [0, 10] holds child [1, 4] and 0.5 s of observer time
    spans = [["relations.compute_lk", 0.0, 10.0, -1, 0.5],
             ["relations.rref", 1.0, 4.0, 0, 0.0],
             ["relations.rref", 5.0, 6.0, 0, 0.0]]
    record = {"spans": spans, "root_overhead": 0.25, "counters": {}, "maxima": {}}
    m = tracing.layer_metrics([record], traced_wall=11.0, untraced_wall=10.0, extra={})
    assert m["relations.rref.calls"] == 2
    assert m["relations.rref.s"] == pytest.approx(4.0)
    assert m["relations.rref.max_s"] == pytest.approx(3.0)
    assert m["trace.unattributed_frac"] == pytest.approx(0.75 / 11.0)
    assert m["trace.overhead_frac"] == pytest.approx(0.1)
    calls, total, self_time, _, _ = tracing._span_totals([record])
    assert self_time["relations.compute_lk"] == pytest.approx(10.0 - 4.0 - 0.5)


def test_install_wraps_every_binding():
    code = (
        "import tracing\n"
        "from lsizeta import polylog, relations, cli\n"
        "t = tracing.install('x')\n"
        "assert relations.zeta_expr is polylog.zeta_expr\n"
        "assert cli.zeta_expr is polylog.zeta_expr\n"
        "assert polylog.zeta_expr.__wrapped__ is not None\n"
        "from lsizeta.indices import Index\n"
        "t.active = True\n"
        "relations.compute_lk(4)\n"
        "t.active = False\n"
        "names = {s[0] for s in t.spans}\n"
        "assert {'relations.compute_lk', 'relations.rref', 'relations.rank',\n"
        "        'polylog.zeta_expr', 'polylog.li_expand', 'algebra.multiply'} <= names, names\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), BENCH]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
