"""Spans around calls into lsizeta's public functions, recorded from outside.

``install`` wraps each function in ``TRACED`` once and rebinds the wrapper at
every lsizeta module that binds the original object, so ``relations.zeta_expr``
and ``polylog.zeta_expr`` (one function imported by name) both record.  A span
is ``[name, start, end, parent, overhead]``: ``parent`` is the index of the
enclosing span or -1, and ``overhead`` is the time the tracer's own observers
spent inside it, which self time excludes.  Spans stay in memory while the
tracer is active and are written once, by ``Tracer.dump``, at exit.

``layer_metrics`` turns span files into the per-layer numbers the benchmark
reports.  Every ``.s`` metric is an inclusive total over the traced pass and
every ``.self_s`` metric a total of self times (duration minus child spans).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# Public functions wrapped per module; a name missing from a module (because
# a later version removed it) is skipped, and its metrics read 0.
TRACED = {
    "indices": ["enumerate_admissible", "dedupe_by_duality", "dual", "truncate"],
    "algebra": ["shuffle", "reduce_at", "canonicalize", "multiply", "conjugate",
                "real_part", "imag_part", "rational_coeffs"],
    "polylog": ["li_expand", "zeta_expr", "mgl_value", "load_li_cache",
                "save_li_cache"],
    "relations": ["build_basis", "re_matrix", "im_matrix", "inject_cr_relation",
                  "ls_relations_for", "reduce_mzv_matrix", "compute_lk",
                  "reduce_real_expr", "mzv_relations",
                  "RationalMatrix.rref", "RationalMatrix.rank"],
    "oracle": ["eval_expr", "eval_mzv", "check_ccs_identity", "euler_even_zeta"],
    "serialize": ["expr_to_json", "expr_from_json"],
    "cli": ["main"],
}


def _fraction_parts(coeff):
    # a Gaussian rational has .re/.im; a plain rational is its own part
    return (coeff.re, coeff.im) if hasattr(coeff, "re") else (coeff,)


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


class Tracer:
    """In-memory span recorder; inactive until ``active`` is set."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.active = False
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.root_overhead = 0.0
        self.counters: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.zeta_results: dict = {}
        self.largest_rref = 0

    def wrap(self, name: str, fn, observe=None):
        tracer = self
        clock = time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, 0.0]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            before = observe.before(args) if observe is not None else None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe.after(tracer, args, result, before)
                spent = clock() - span[2]
                if parent >= 0:
                    tracer.spans[parent][4] += spent
                else:
                    tracer.root_overhead += spent
            return result

        return traced

    def bump(self, key: str, n=1):
        self.counters[key] += n

    def peak(self, key: str, value: float):
        if value > self.maxima.get(key, float("-inf")):
            self.maxima[key] = value

    def coefficient_stats(self):
        """Count and largest bit size of the rational parts of every
        distinct zeta expression produced while tracing."""
        count = 0
        max_bits = 0
        for expr in self.zeta_results.values():
            for _, coeff in expr.terms():
                for q in _fraction_parts(coeff):
                    if q:
                        count += 1
                        max_bits = max(max_bits, _bits(q))
        return count, max_bits

    def dump(self, path: str, extra: dict | None = None):
        count, max_bits = self.coefficient_stats()
        self.bump("gaussian.coeff_count", count)
        self.peak("gaussian.coeff_max_bits", max_bits)
        record = {"run": self.run_id, "spans": self.spans,
                  "root_overhead": self.root_overhead,
                  "counters": dict(self.counters), "maxima": self.maxima}
        record.update(extra or {})
        with open(path, "w") as fh:
            json.dump(record, fh)


# ---------------------------------------------------------------------------
# observers: counts read at the boundary, outside the timed span

class _Observer:
    def before(self, args):
        return None

    def after(self, tracer, args, result, before):
        pass


class _IndexCount(_Observer):
    def after(self, tracer, args, result, before):
        tracer.bump("indices.index_count", len(result))


class _LiExpand(_Observer):
    """A call that grows the polylog memo computed its expansion: a miss."""

    def __init__(self, polylog):
        self.memo = getattr(polylog, "_LI_CACHE", None)

    def before(self, args):
        return len(self.memo) if self.memo is not None else None

    def after(self, tracer, args, result, before):
        if before is not None and len(self.memo) > before:
            tracer.bump("polylog.li_expand.misses")


class _ZetaExpr(_Observer):
    def after(self, tracer, args, result, before):
        tracer.zeta_results[args[0]] = result


class _CacheEntries(_Observer):
    def after(self, tracer, args, result, before):
        tracer.peak("polylog.cache_entries", result)


class _RelationRows(_Observer):
    def after(self, tracer, args, result, before):
        tracer.bump("relations.relation_rows", result.nrows)


class _RrefInput(_Observer):
    def after(self, tracer, args, result, before):
        rows = args[0].rows
        ncols = len(rows[0]) if rows else 0
        tracer.peak("relations.rref.max_rows", len(rows))
        tracer.peak("relations.rref.max_cols", ncols)
        nonzero = [q for row in rows for q in row if q]
        if nonzero:
            tracer.peak("relations.rref.max_entry_bits", max(map(_bits, nonzero)))
        cells = len(rows) * ncols
        if cells > tracer.largest_rref:
            # density is reported for the largest matrix reduced
            tracer.largest_rref = cells
            tracer.maxima["relations.rref.density"] = len(nonzero) / cells


def _observers(modules: dict) -> dict:
    return {
        "indices.enumerate_admissible": _IndexCount(),
        "polylog.li_expand": _LiExpand(modules.get("polylog")),
        "polylog.zeta_expr": _ZetaExpr(),
        "polylog.load_li_cache": _CacheEntries(),
        "polylog.save_li_cache": _CacheEntries(),
        "relations.ls_relations_for": _RelationRows(),
        "relations.rref": _RrefInput(),
    }


def install(run_id: str) -> Tracer:
    """Import lsizeta, wrap every function in ``TRACED`` at each binding and
    return the (inactive) tracer that records them."""
    tracer = Tracer(run_id)
    modules = {}
    for layer in TRACED:
        try:
            modules[layer] = importlib.import_module(f"lsizeta.{layer}")
        except ImportError:
            continue
    observers = _observers(modules)
    bindings = [m for name, m in sys.modules.items()
                if m is not None and (name == "lsizeta" or name.startswith("lsizeta."))]
    for layer, names in TRACED.items():
        module = modules.get(layer)
        if module is None:
            continue
        for qualname in names:
            owner_name, _, attr = qualname.rpartition(".")
            metric = f"{layer}.{attr}"
            if owner_name:
                owner = getattr(module, owner_name, None)
                member = owner.__dict__.get(attr) if owner is not None else None
                if isinstance(member, property):
                    setattr(owner, attr, property(
                        tracer.wrap(metric, member.fget, observers.get(metric))))
                elif callable(member):
                    setattr(owner, attr, tracer.wrap(metric, member, observers.get(metric)))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = tracer.wrap(metric, original, observers.get(metric))
            for bound in bindings:
                for key, value in list(vars(bound).items()):
                    if value is original:
                        setattr(bound, key, wrapper)
    return tracer


# ---------------------------------------------------------------------------
# aggregation

def _span_totals(records: list[dict]):
    calls: Counter = Counter()
    total: Counter = Counter()
    self_time: Counter = Counter()
    longest: dict[str, float] = defaultdict(float)
    covered = 0.0
    for record in records:
        spans = record["spans"]
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, overhead) in enumerate(spans):
            duration = end - start
            calls[name] += 1
            self_time[name] += duration - child[i] - overhead
            longest[name] = max(longest[name], duration)
            outer = parent
            while outer >= 0 and spans[outer][0] != name:
                outer = spans[outer][3]
            if outer < 0:  # outermost span of this name: no double counting
                total[name] += duration
            if parent < 0:
                covered += duration
        covered += record.get("root_overhead", 0.0)
    return calls, total, self_time, longest, covered


def layer_metrics(records: list[dict], traced_wall: float, untraced_wall: float,
                  extra: dict) -> dict:
    """Per-layer metrics from span files of one traced pass.

    ``extra`` holds numbers measured outside the spans (cache file size,
    oracle residuals, CLI process timings).  Returns {name: value}.
    """
    calls, total, self_time, longest, covered = _span_totals(records)
    counters: Counter = Counter()
    maxima: dict[str, float] = {}
    for record in records:
        counters.update(record.get("counters", {}))
        for key, value in record.get("maxima", {}).items():
            maxima[key] = max(maxima.get(key, value), value)
    li_calls = calls["polylog.li_expand"]
    li_misses = counters["polylog.li_expand.misses"]
    out = {
        "indices.enumerate_admissible.s": total["indices.enumerate_admissible"],
        "indices.index_count": counters["indices.index_count"],
        "gaussian.coeff_count": counters["gaussian.coeff_count"],
        "gaussian.coeff_max_bits": maxima.get("gaussian.coeff_max_bits", 0),
        "algebra.multiply.calls": calls["algebra.multiply"],
        "algebra.multiply.self_s": self_time["algebra.multiply"],
        "algebra.canonicalize.calls": calls["algebra.canonicalize"],
        "algebra.canonicalize.self_s": self_time["algebra.canonicalize"],
        "algebra.conjugate.self_s": self_time["algebra.conjugate"],
        "algebra.real_imag.self_s": self_time["algebra.real_part"]
        + self_time["algebra.imag_part"],
        "polylog.li_expand.calls": li_calls,
        "polylog.li_expand.misses": li_misses,
        "polylog.li_expand.hit_ratio": (li_calls - li_misses) / li_calls if li_calls else 0.0,
        "polylog.li_expand.self_s": self_time["polylog.li_expand"],
        "polylog.zeta_expr.calls": calls["polylog.zeta_expr"],
        "polylog.zeta_expr.self_s": self_time["polylog.zeta_expr"],
        "polylog.load_li_cache.s": total["polylog.load_li_cache"],
        "polylog.save_li_cache.s": total["polylog.save_li_cache"],
        "polylog.cache_bytes": extra.get("polylog.cache_bytes", 0),
        "polylog.cache_entries": maxima.get("polylog.cache_entries", 0),
        "relations.re_matrix.s": total["relations.re_matrix"],
        "relations.re_matrix.self_s": self_time["relations.re_matrix"],
        "relations.im_matrix.s": total["relations.im_matrix"],
        "relations.im_matrix.self_s": self_time["relations.im_matrix"],
        "relations.rref.calls": calls["relations.rref"],
        "relations.rref.s": total["relations.rref"],
        "relations.rref.max_s": longest["relations.rref"],
        "relations.rref.max_rows": maxima.get("relations.rref.max_rows", 0),
        "relations.rref.max_cols": maxima.get("relations.rref.max_cols", 0),
        "relations.rref.max_entry_bits": maxima.get("relations.rref.max_entry_bits", 0),
        "relations.rref.density": maxima.get("relations.rref.density", 0.0),
        "relations.eliminate.s": self_time["relations.reduce_mzv_matrix"],
        "relations.rank.s": total["relations.rank"],
        "relations.relation_rows": counters["relations.relation_rows"],
        "oracle.eval_expr.calls": calls["oracle.eval_expr"],
        "oracle.eval_expr.self_s": self_time["oracle.eval_expr"],
        "oracle.eval_mzv.calls": calls["oracle.eval_mzv"],
        "oracle.eval_mzv.self_s": self_time["oracle.eval_mzv"],
        "oracle.checks": extra.get("oracle.checks", 0),
        "oracle.max_residual": extra.get("oracle.max_residual", 0.0),
        "serialize.expr_to_json.s": total["serialize.expr_to_json"],
        "serialize.expr_from_json.s": total["serialize.expr_from_json"],
        "cli.import_s": extra.get("cli.import_s", 0.0),
        "cli.main.self_s": self_time["cli.main"],
        "cli.process_overhead_s": extra.get("cli.process_overhead_s", 0.0),
        "cli.cold_start_s": extra.get("cli.cold_start_s", 0.0),
        "cli.cached_start_s": extra.get("cli.cached_start_s", 0.0),
        "cli.cached_zeta_s": extra.get("cli.cached_zeta_s", 0.0),
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        "trace.unattributed_frac": max(0.0, traced_wall - covered) / traced_wall,
    }
    return out
