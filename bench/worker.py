"""One pass of an in-process workload, in a fresh interpreter.

Run by ``run.py`` with ``src`` and this directory on ``PYTHONPATH``:

    python3 bench/worker.py --task lk --weight 9 --seed 1 --out result.json
        [--trace-out spans.json]

Tasks:
  lk      compute_lk(w) for w = 2..weight, answers are the l_w values
  expand  zeta_expr and its Re/Im for each dual-pair representative of the
          weight, in a seeded order; answers are per-index SHA-256 digests
          of the expression JSON
  verify  ``lsi verify <weight>`` in-process; answers are exit code and lines
  prime   expand the representatives of the weight, then save the polylog
          cache to ``--cache``; not timed as a pass but as set-up
  setup   imports and inputs only, to sample set-up time

The result file holds the monotonic time at which set-up finished (imports
and inputs), the pass duration and the answers.  With ``--trace-out`` the
pass runs under the tracer and its spans are written there after the pass.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import time


def _representatives(weight: int):
    from lsizeta.indices import dedupe_by_duality, enumerate_admissible
    return dedupe_by_duality(enumerate_admissible(weight))


def expr_digest(expr) -> str:
    from lsizeta.serialize import expr_to_json
    text = json.dumps(expr_to_json(expr), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--task", choices=("lk", "expand", "verify", "prime", "setup"), required=True)
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--trace-out")
    p.add_argument("--cache")
    args = p.parse_args()

    from lsizeta import algebra, cli, polylog, relations

    tracer = None
    if args.trace_out:
        import tracing
        tracer = tracing.install(f"{args.task}{args.weight}-{args.seed}")

    w = args.weight
    if args.task in ("expand", "prime"):
        order = _representatives(w)
        random.Random(args.seed).shuffle(order)
    ready = time.monotonic()
    if args.task == "setup":
        with open(args.out, "w") as fh:
            json.dump({"ready": ready}, fh)
        return 0

    if tracer is not None:
        tracer.active = True
    t0 = time.monotonic()
    if args.task == "lk":
        answers = [relations.compute_lk(v) for v in range(2, w + 1)]
    elif args.task in ("expand", "prime"):
        exprs = {}
        for k in order:
            e = polylog.zeta_expr(k)
            algebra.real_part(e)
            algebra.imag_part(e)
            exprs[k] = e
    else:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", str(w)])
        # on failure the check lines come back inside the JSON error on stderr
        text = out.getvalue() if code == 0 else json.loads(err.getvalue())["error"]
        answers = {"exit": code,
                   "lines": [ln for ln in text.splitlines() if ln.startswith(("PASS", "FAIL"))]}
    t1 = time.monotonic()
    if tracer is not None:
        tracer.active = False

    if args.task == "expand":
        answers = {str(k): expr_digest(e)
                   for k, e in sorted(exprs.items(), key=lambda ke: ke[0].parts)}
    elif args.task == "prime":
        answers = {"entries": polylog.save_li_cache(args.cache)}
    with open(args.out, "w") as fh:
        json.dump({"ready": ready, "pass_s": t1 - t0, "answers": answers}, fh)
    if tracer is not None:
        tracer.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
