"""Benchmark of the exact MZV pipeline, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--smoke] [--record PATH]

Run from the root of a checkout; the library is imported from ``src`` and
nothing is installed.  Workloads (see bench/README.md for why each exists):

  verify7      the ``lsi verify 7`` check set, in-process
  cli_session  a fixed list of ``lsi`` commands as child processes, each
               without and then with ``LSI_CACHE_DIR`` (a primed cache)
  verify8      the ``lsi verify 8`` check set, in-process
  lk9          compute_lk(w), w = 2..9, in a fresh interpreter per pass
  expand10     zeta_expr and Re/Im of the 136 weight-10 representatives

BENCHMARK.json lists only the first two; the others run by hand.  Each run
times the program in ``src`` and a frozen copy of the library in
``bench/reference`` in interleaved pairs on the same work and reports their
ratio.
Every pass is a closed loop: one process at a time, no threads.  Passes
repeat until the next one would end after ``--seconds``; timings are medians
over passes (for cli_session, sums of per-command medians).  Every answer is
checked; a wrong answer, an exception, a nonzero exit or a verify FAIL counts
as a failed operation.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` the run makes one untraced and one traced pass and the last
line reports the per-layer metrics (see tracing.py).  ``--smoke`` runs each
workload at toy size, one pass a side.  ``--record PATH`` also writes the full record:
machine facts, sample counts, error rate and every pass.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata

BENCH = os.path.dirname(os.path.abspath(__file__))
RUN_LIMIT_S = 170.0  # a run must end within 180 s, children included

sys.path.insert(0, BENCH)
import tracing  # noqa: E402

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_ratio", "ratio", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

PER_LAYER = [
    ("indices.enumerate_admissible.s", "s", "lower"),
    ("indices.index_count", "count", "lower"),
    ("gaussian.coeff_count", "count", "lower"),
    ("gaussian.coeff_max_bits", "bits", "lower"),
    ("algebra.multiply.calls", "count", "lower"),
    ("algebra.multiply.self_s", "s", "lower"),
    ("algebra.canonicalize.calls", "count", "lower"),
    ("algebra.canonicalize.self_s", "s", "lower"),
    ("algebra.conjugate.self_s", "s", "lower"),
    ("algebra.real_imag.self_s", "s", "lower"),
    ("polylog.li_expand.calls", "count", "lower"),
    ("polylog.li_expand.misses", "count", "lower"),
    ("polylog.li_expand.hit_ratio", "ratio", "higher"),
    ("polylog.li_expand.self_s", "s", "lower"),
    ("polylog.zeta_expr.calls", "count", "lower"),
    ("polylog.zeta_expr.self_s", "s", "lower"),
    ("polylog.load_li_cache.s", "s", "lower"),
    ("polylog.save_li_cache.s", "s", "lower"),
    ("polylog.cache_bytes", "bytes", "lower"),
    ("polylog.cache_entries", "count", "lower"),
    ("relations.re_matrix.s", "s", "lower"),
    ("relations.re_matrix.self_s", "s", "lower"),
    ("relations.im_matrix.s", "s", "lower"),
    ("relations.im_matrix.self_s", "s", "lower"),
    ("relations.rref.calls", "count", "lower"),
    ("relations.rref.s", "s", "lower"),
    ("relations.rref.max_s", "s", "lower"),
    ("relations.rref.max_rows", "count", "lower"),
    ("relations.rref.max_cols", "count", "lower"),
    ("relations.rref.max_entry_bits", "bits", "lower"),
    ("relations.rref.density", "ratio", "lower"),
    ("relations.eliminate.s", "s", "lower"),
    ("relations.rank.s", "s", "lower"),
    ("relations.relation_rows", "count", "higher"),
    ("oracle.eval_expr.calls", "count", "lower"),
    ("oracle.eval_expr.self_s", "s", "lower"),
    ("oracle.eval_mzv.calls", "count", "lower"),
    ("oracle.eval_mzv.self_s", "s", "lower"),
    ("oracle.checks", "count", "higher"),
    ("oracle.max_residual", "abs", "lower"),
    ("serialize.expr_to_json.s", "s", "lower"),
    ("serialize.expr_from_json.s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.process_overhead_s", "s", "lower"),
    ("cli.cold_start_s", "s", "lower"),
    ("cli.cached_start_s", "s", "lower"),
    ("cli.cached_zeta_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
]

# workload -> (worker task, weight, smoke weight)
IN_PROCESS = {
    "lk9": ("lk", 9, 5),
    "expand10": ("expand", 10, 6),
    "verify7": ("verify", 7, 4),
    "verify8": ("verify", 8, 4),
}
CLI_PRIME_WEIGHT = (10, 6)
LIGHT_COMMANDS = [["dual", "1,2,1,3,3"], ["trunc", "2,3,5", "4"], ["basis", "9", "odd"],
                  ["shuffle", "1,3:0,1", "2:1"], ["reduce", "2,1,3:1,0,1"]]
ZETA10_COMMANDS = [["zeta", "3,7"], ["zeta", "1,2,3,4"]]
SMOKE_COMMANDS = [["dual", "3,2"], ["zeta", "2,4"]]
SETUP_SAMPLES = 5
# The program under test, and a frozen copy of the library at the commit that
# defined this benchmark.  Each run times both sides in interleaved pairs on
# the same work and reports the program's time over the copy's, which cancels
# the host's speed drift (up to 1.7x over minutes on a shared 2-core VM).
SIDES = ("program", "reference")


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# child processes

@dataclass
class Child:
    code: int
    spawned: float
    reaped: float
    rss_mb: float
    stdout: bytes
    stderr: bytes

    @property
    def latency(self) -> float:
        return self.reaped - self.spawned


class Runner:
    """Starts children one at a time from the checkout root and reaps each
    with ``wait4`` for its own peak RSS; enforces the run's time limit."""

    def __init__(self, root: str, work: str, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("LSI_CACHE_DIR", None)
        self.env["PYTHONHASHSEED"] = "0"
        self.paths = {"program": os.path.join(root, "src"),
                      "reference": os.path.join(BENCH, "reference")}
        self.count = 0

    def run(self, argv: list[str], env_extra: dict | None = None,
            side: str = "program") -> Child:
        """Runs one child with ``side``'s copy of lsizeta on its path."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 1:
            raise BenchError("run time limit reached")
        self.count += 1
        out_path = os.path.join(self.work, f"child{self.count}.out")
        err_path = os.path.join(self.work, f"child{self.count}.err")
        env = dict(self.env, PYTHONPATH=os.pathsep.join([self.paths[side], BENCH]),
                   **(env_extra or {}))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(argv, cwd=self.root, env=env, stdout=out, stderr=err)
        signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(max(1, int(remaining)))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException as exc:
            # the time limit, or a signal that ends the run: the child goes too
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            if isinstance(exc, TimeoutError):
                raise BenchError(f"child exceeded the run time limit: {argv}") from None
            raise
        finally:
            signal.alarm(0)
        reaped = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        return Child(proc.returncode, spawned, reaped, usage.ru_maxrss / 1024.0, stdout, stderr)

    def worker(self, task: str, weight: int, seed: int, trace: bool,
               cache: str | None = None,
               side: str = "program") -> tuple[Child, dict | None, dict | None]:
        out = os.path.join(self.work, "worker.json")
        spans = os.path.join(self.work, "worker-spans.json")
        for path in (out, spans):
            if os.path.exists(path):
                os.remove(path)
        argv = [sys.executable, os.path.join(BENCH, "worker.py"), "--task", task,
                "--weight", str(weight), "--seed", str(seed), "--out", out]
        if trace:
            argv += ["--trace-out", spans]
        if cache:
            argv += ["--cache", cache]
        child = self.run(argv, side=side)
        if child.code != 0:
            sys.stderr.write(child.stderr.decode(errors="replace"))
            return child, None, None
        return child, _load(out), _load(spans) if trace else None


def _alarm(signum, frame):
    raise TimeoutError


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# expected answers

def published_lk(root: str) -> dict[int, int]:
    """l_w from tests/published_data.py (LK_TABLE and LK_STRETCH), read
    without importing it."""
    with open(os.path.join(root, "tests", "published_data.py")) as fh:
        tree = ast.parse(fh.read())
    table: dict[int, int] = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) in ("LK_TABLE", "LK_STRETCH")):
            table.update(ast.literal_eval(node.value))
    return table


def expected_answers() -> dict:
    return _load(os.path.join(BENCH, "expected.json"))


@dataclass
class Outcome:
    attempted: int
    failed: int


def check_pass(task: str, weight: int, result: dict | None, root: str) -> Outcome:
    expected = expected_answers()
    if task == "lk":
        table = published_lk(root)
        want = [table[w] for w in range(2, weight + 1)]
        got = result["answers"] if result else []
        bad = sum(1 for i, v in enumerate(want) if i >= len(got) or got[i] != v)
        return Outcome(len(want), bad)
    if task == "expand":
        want = expected[f"expand{weight}"]
        got = result["answers"] if result else {}
        return Outcome(len(want), sum(1 for k, d in want.items() if got.get(k) != d))
    want = expected[f"verify{weight}"]["checks"]
    if result is None:
        return Outcome(want, want)
    lines = result["answers"]["lines"]
    passed = sum(1 for ln in lines if ln.startswith("PASS"))
    attempted = max(want, len(lines))
    failed = attempted - passed
    if result["answers"]["exit"] != 0:
        failed = max(failed, 1)
    return Outcome(attempted, failed)


def residuals(result: dict | None) -> list[float]:
    if not result:
        return []
    return [float(m.group(1)) for ln in result["answers"]["lines"]
            if (m := re.search(r"residual (\S+)$", ln))]


# ---------------------------------------------------------------------------
# in-process workloads

def in_process(runner: Runner, name: str, seed: int, seconds: float, trace: bool,
               smoke: bool) -> dict:
    task, weight, smoke_weight = IN_PROCESS[name]
    if smoke:
        weight = smoke_weight
    passes = []
    attempted = failed = 0
    t_begin = time.monotonic()

    def one(traced: bool, side: str = "program"):
        nonlocal attempted, failed
        child, result, spans = runner.worker(task, weight, seed, traced, side=side)
        outcome = check_pass(task, weight, result, runner.root)
        if side == "reference":
            if outcome.failed:
                raise BenchError("the reference copy gave a wrong answer")
        else:
            attempted += outcome.attempted
            failed += outcome.failed
        entry = {"side": side, "total_s": child.latency, "rss_mb": child.rss_mb,
                 "exit": child.code, "failed": outcome.failed, "traced": traced}
        if result is not None:
            entry["setup_s"] = result["ready"] - child.spawned
            entry["wall_s"] = result["pass_s"]
        passes.append(entry)
        return entry, result, spans

    if trace:
        plain, _, _ = one(False)
        traced, result, spans = one(True)
        if "wall_s" not in plain or "wall_s" not in traced:
            raise BenchError("a pass failed; no per-layer numbers")
        res = residuals(result) if task == "verify" else []
        extra = {"oracle.checks": len(res), "oracle.max_residual": max(res, default=0.0)}
        layers = tracing.layer_metrics([spans], traced["wall_s"], plain["wall_s"], extra)
        return {"passes": passes, "attempted": attempted, "failed": failed,
                "metrics": {n: (layers[n], 1) for n, _, _ in PER_LAYER}}

    # Pairs of passes in a seeded random order, so that neither a drift nor a
    # periodic disturbance on the host falls on one side more than the other.
    order = random.Random(seed)
    queue = []
    while True:
        if not queue:
            queue = order.sample(SIDES, 2)
        one(False, queue.pop())
        elapsed = time.monotonic() - t_begin
        typical = statistics.median(p["total_s"] for p in passes)
        if len(passes) >= 2 and (smoke or elapsed + typical > seconds):
            break
    program = [p for p in passes if p["side"] == "program"]
    setups = [p["setup_s"] for p in program if "setup_s" in p]
    while len(setups) < (1 if smoke else SETUP_SAMPLES):
        child, result, _ = runner.worker("setup", weight, seed, False)
        if result is None:
            raise BenchError("set-up failed")
        setups.append(result["ready"] - child.spawned)
    walls = {s: [p["wall_s"] for p in passes if p["side"] == s and "wall_s" in p]
             for s in SIDES}
    if not walls["program"]:
        raise BenchError("every pass failed")
    wall, reference = (statistics.median(walls[s]) for s in SIDES)
    return {"passes": passes, "attempted": attempted, "failed": failed,
            "setups": setups,
            "metrics": {"setup_s": _median(setups),
                        "wall_ratio": (wall / reference, len(walls["program"])),
                        "peak_rss_mb": _median([p["rss_mb"] for p in program])},
            "also": {"wall_s": _median(walls["program"]),
                     "reference_wall_s": _median(walls["reference"])}}


def _median(values: list[float]) -> tuple[float, int]:
    return statistics.median(values), len(values)


# ---------------------------------------------------------------------------
# cli_session

def session_commands(seed: int, smoke: bool) -> list[list[str]]:
    """The fixed light and weight-10 commands plus two weight-11 zeta commands
    picked by the seed, in a seeded order.  The weight-11 indices all have
    depth 3 (and duals of depth 8), so their cost varies little by seed."""
    if smoke:
        return [list(c) for c in SMOKE_COMMANDS]
    rng = random.Random(seed)
    depth3 = [(a, b, 11 - a - b) for a in range(1, 10) for b in range(1, 10)
              if 11 - a - b >= 2]
    picks = rng.sample(depth3, 2)
    commands = ([list(c) for c in LIGHT_COMMANDS] + [list(c) for c in ZETA10_COMMANDS]
                + [["zeta", ",".join(map(str, k))] for k in picks])
    rng.shuffle(commands)
    return commands


def cli_session(runner: Runner, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Rounds of the command list.  In a round each command runs once per side
    without the cache, then once with the round's fresh copy of that side's
    primed cache; which side goes first is drawn at random for each command.
    Rounds repeat until the next command would end after ``seconds``; the
    first round always completes.  A side's pass time is the sum over the
    commands of each one's median latency in both modes: one pass of the
    list, as the whole run measured it."""
    commands = session_commands(seed, smoke)
    light = [i for i, c in enumerate(commands) if c[0] != "zeta"]
    zeta = [i for i, c in enumerate(commands) if c[0] == "zeta"]
    sides = ("program",) if trace else SIDES
    modes = ("plain", "cached")
    keys = [f"{s}/{m}" for s in sides for m in modes]
    os.makedirs(os.path.join(runner.work, "primed"))
    primed = {}
    for side in sides:
        primed[side] = os.path.join(runner.work, "primed", f"{side}.json")
        t0 = time.monotonic()
        _, result, _ = runner.worker("prime", CLI_PRIME_WEIGHT[smoke], seed, False,
                                     primed[side], side)
        if result is None:
            raise BenchError(f"priming the {side}'s expansion cache failed")
        if side == "program":
            setup_s = time.monotonic() - t0

    rounds = []
    attempted = failed = 0
    order = random.Random(seed)  # the order of the sides, for each command

    def command_s(i: int) -> float:
        return statistics.median(sum(r["latencies"][k][i] for k in keys)
                                 for r in rounds if i in r["latencies"][keys[0]])

    def one(traced: bool, stop_at: float | None = None) -> bool:
        """One round; returns whether it ran every command."""
        nonlocal attempted, failed
        n = len(rounds)
        caches = {side: os.path.join(runner.work, f"cache{n}-{side}") for side in sides}
        for side, cache_dir in caches.items():
            os.makedirs(cache_dir)
            shutil.copyfile(primed[side], os.path.join(cache_dir, "li_cache.json"))
        entry = {"traced": traced, "failed": 0, "latencies": {k: {} for k in keys},
                 "rss_mb": {k: {} for k in keys}}
        records = []
        t0 = time.monotonic()
        for i, cmd in enumerate(commands):
            if stop_at is not None and time.monotonic() + command_s(i) > stop_at:
                break
            for side in order.sample(sides, len(sides)):
                pair = {}
                for mode in modes:
                    env = {"LSI_CACHE_DIR": caches[side]} if mode == "cached" else {}
                    if traced:
                        span_path = os.path.join(runner.work, f"spans{n}-{mode}-{i}.json")
                        argv = [sys.executable, os.path.join(BENCH, "lsi_launcher.py"), *cmd]
                        env["BENCH_TRACE_OUT"] = span_path
                    else:
                        argv = [sys.executable, "-m", "lsizeta.cli", *cmd]
                    pair[mode] = c = runner.run(argv, env, side)
                    entry["latencies"][f"{side}/{mode}"][i] = c.latency
                    entry["rss_mb"][f"{side}/{mode}"][i] = c.rss_mb
                    if traced and os.path.exists(span_path):
                        records.append((_load(span_path), c))
                plain, cached = pair["plain"], pair["cached"]
                bad = sum(c.code != 0 or not c.stdout for c in (plain, cached))
                bad += plain.code == cached.code == 0 and plain.stdout != cached.stdout
                if side == "reference":
                    if bad:
                        raise BenchError(f"the reference copy failed on {cmd}")
                    continue
                attempted += 2
                failed += bad
                entry["failed"] += bad
        entry["wall_s"] = time.monotonic() - t0
        complete = len(entry["latencies"][keys[0]]) == len(commands)
        if complete:
            entry["cache_bytes"] = os.path.getsize(
                os.path.join(caches["program"], "li_cache.json"))
        if traced:
            entry["records"] = [r for r, _ in records]
            entry["process_overhead_s"] = sum(
                (r["started"] - c.spawned) + (c.reaped - r["finished"]) for r, c in records)
        if entry["latencies"][keys[0]]:
            rounds.append(entry)
        return complete

    def per_command(field: str, side: str) -> list[list[float]]:
        return [[r[field][f"{side}/{m}"][i] for r in rounds if i in r[field][f"{side}/{m}"]]
                for m in modes for i in range(len(commands))]

    def latencies(entries: list[dict]) -> dict[str, tuple[float, int]]:
        """The program's per-command latency medians over the given rounds."""
        pick = {"cold_start_s": ("plain", light), "cached_start_s": ("cached", light),
                "cached_zeta_s": ("cached", zeta)}
        return {name: _median([e["latencies"][f"program/{mode}"][i] for e in entries
                               for i in which if i in e["latencies"][f"program/{mode}"]])
                for name, (mode, which) in pick.items()}

    if trace:
        one(False)
        one(True)
        plain, traced = rounds
        records = traced.pop("records")
        extra = {"polylog.cache_bytes": traced["cache_bytes"],
                 "cli.import_s": sum(r["import_s"] for r in records),
                 "cli.process_overhead_s": traced["process_overhead_s"],
                 **{f"cli.{k}": v for k, (v, _) in latencies([plain]).items()}}
        layers = tracing.layer_metrics(records, traced["wall_s"], plain["wall_s"], extra)
        return {"passes": rounds, "attempted": attempted, "failed": failed,
                "setups": [setup_s],
                "metrics": {n: (layers[n], 1) for n, _, _ in PER_LAYER}}

    stop_at = time.monotonic() + seconds
    complete = one(False)
    while complete and not smoke:
        complete = one(False, stop_at)
    lat = {side: per_command("latencies", side) for side in sides}
    wall, reference = (sum(statistics.median(v) for v in lat[side]) for side in sides)
    samples = min(map(len, lat["program"]))
    return {"passes": rounds, "attempted": attempted, "failed": failed,
            "setups": [setup_s],
            "metrics": {"setup_s": (setup_s, 1),
                        "wall_ratio": (wall / reference, samples),
                        "peak_rss_mb": (max(statistics.median(v) for v in
                                            per_command("rss_mb", "program")), len(rounds))},
            "also": {"wall_s": (wall, samples), "reference_wall_s": (reference, samples),
                     **latencies(rounds)}}


# ---------------------------------------------------------------------------
# reporting

def machine_facts() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy_version,
            "loadavg_before": list(os.getloadavg())}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*IN_PROCESS, "cli_session"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="toy sizes, one pass")
    p.add_argument("--record", help="also write the full record as JSON here")
    args = p.parse_args(argv)

    root = os.getcwd()
    missing = [rel for rel in ("src/lsizeta/__init__.py", "tests/published_data.py")
               if not os.path.isfile(os.path.join(root, rel))]
    if missing:
        print(f"run.py: not a checkout of the repository (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, _terminate)
    facts = machine_facts()
    work_root = os.path.join(root, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(dir=work_root)
    runner = Runner(root, work, time.monotonic() + RUN_LIMIT_S)
    try:
        if args.workload == "cli_session":
            out = cli_session(runner, args.seed, args.seconds, bool(args.trace), args.smoke)
        else:
            out = in_process(runner, args.workload, args.seed, args.seconds,
                             bool(args.trace), args.smoke)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass
    facts["loadavg_after"] = list(os.getloadavg())

    specs = PER_LAYER if args.trace else END_TO_END
    error_rate = out["failed"] / out["attempted"] if out["attempted"] else 1.0
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"passes {len(out['passes'])}")
    print("machine " + json.dumps(facts))
    for name, unit, _ in specs:
        value, samples = out["metrics"][name]
        basis = f"median of {samples}" if not args.trace else "one traced pass"
        print(f"{name} {value:.6g} {unit} ({basis})")
    for name, (value, samples) in out.get("also", {}).items():
        print(f"{name} {value:.6g} s (median of {samples})")
    print(f"error_rate {error_rate:.6g} ({out['failed']}/{out['attempted']})")

    result = {"correct": out["failed"] == 0, "attempted": out["attempted"],
              "failed": out["failed"],
              "metrics": {name: {"value": out["metrics"][name][0], "unit": unit}
                          for name, unit, _ in specs}}
    if args.record:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "smoke": args.smoke, "seconds": args.seconds, "machine": facts,
                  "error_rate": error_rate,
                  "metrics": {name: {"value": out["metrics"][name][0], "unit": unit,
                                     "samples": out["metrics"][name][1]}
                              for name, unit, _ in specs},
                  "also": {k: {"value": v, "unit": "s", "samples": n}
                           for k, (v, n) in out.get("also", {}).items()},
                  "setups": out.get("setups", []), "passes": out["passes"],
                  "correct": result["correct"], "attempted": result["attempted"],
                  "failed": result["failed"]}
        with open(args.record, "w") as fh:
            json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
