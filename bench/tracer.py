"""Span tracing of circiso from outside the package.

The tracer replaces selected public functions at every module binding that
holds them (``from .circulant import realize`` copies the name, so each
importing module is patched, not only the defining one). Each wrapped call
records a span ``(name, start_ns, end_ns, parent, phase, op, count)`` in
memory; ``count`` carries a per-call quantity such as edges checked or bytes
written. Spans are written out once, when the run ends.

Only coarse functions are wrapped (no per-offset helpers such as
``theta_offsets``), so the overhead stays small; the benchmark reports it as
``trace.overhead_ratio``.
"""

import gc
import sys
import time
from collections import defaultdict

# (module, function) pairs wrapped when tracing: the functions whose spans
# layer_metrics reads, plus cli.main, the parent of every cli span. Names
# missing from the package are skipped, so a later change that deletes a
# function only drops its spans.
TRACED = {
    "circulant": ("realize", "detect_circulant", "detect_permuted"),
    "iso_oracle": ("verify_witness", "search_isomorphism"),
    "type1": ("type1_set", "is_adams_isomorphic"),
    "type2": ("classify_theta", "type2_set", "type2_group_check"),
    "products": ("product_coprime", "cartesian_edges", "product_prism", "product_c4",
                 "has_type2_partner"),
    "reporting": ("to_json", "graph_from_desc"),
    "cli": ("main", "cmd_product", "cmd_verify"),
    "catalog": ("load",),
}

# caches whose hit ratio is reported; a cache that no longer exists yields
# no metric rather than a zero
CACHES = {"circulant.realize_hit_ratio": ("circulant", "realize"),
          "type1.orbit_hit_ratio": ("type1", "type1_set")}


def _counter(module, fname, orig):
    """Per-call quantity attached to a span, or None for plain spans."""
    if (module, fname) == ("iso_oracle", "verify_witness"):
        return lambda args, result: len(args[0].source.edges)
    if (module, fname) == ("reporting", "to_json"):
        return lambda args, result: len(result.encode())
    if (module, fname) == ("type2", "type2_set"):
        return lambda args, result: args[0].n // args[1]
    if (module, fname) == ("circulant", "realize") and hasattr(orig, "cache_info"):
        seen = [orig.cache_info().misses]

        def materialized(args, result):
            misses = orig.cache_info().misses
            fresh = misses != seen[0]
            seen[0] = misses
            return len(result.edges) if fresh else 0

        return materialized
    return None


class Tracer:
    """In-memory span recorder plus GC and cache accounting.

    ``phase`` is "setup", "op" or "check" and ``op`` the index of the
    current operation; the worker sets both around each call it makes.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.phase = "setup"
        self.op = -1
        self.gc_ns = 0
        self.gc_collections = 0
        self._gc_start = None
        self._cache_start = {}
        self.originals = {}

    # ---- installation ----------------------------------------------
    def install(self):
        """Wrap the TRACED functions at every circiso module binding."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "circiso" or name.startswith("circiso."))]
        wrappers = {}
        for module, fnames in TRACED.items():
            mod = sys.modules.get(f"circiso.{module}")
            if mod is None:
                continue
            for fname in fnames:
                orig = getattr(mod, fname, None)
                if orig is None:
                    continue
                self.originals[f"{module}.{fname}"] = orig
                wrappers[id(orig)] = self._wrap(f"{module}.{fname}", orig,
                                                _counter(module, fname, orig))
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None:
                    setattr(mod, attr, w)
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.phase, self.op, 0)
            if counter is not None:
                spans[idx] = spans[idx][:6] + (counter(args, result),)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        elif self._gc_start is not None:
            if self.phase == "op":
                self.gc_ns += time.perf_counter_ns() - self._gc_start
                self.gc_collections += 1
            self._gc_start = None

    # ---- cache accounting ------------------------------------------
    def _cache_info(self, key):
        fn = self.originals.get(key)
        info = getattr(fn, "cache_info", None)
        return info() if info is not None else None

    def mark_caches(self):
        """Snapshot cache statistics at the start of the measured loop."""
        for metric, (module, fname) in CACHES.items():
            self._cache_start[metric] = self._cache_info(f"{module}.{fname}")

    def cache_metrics(self, ops):
        """Hit ratio and lookups per op since mark_caches, per surviving cache."""
        out = {}
        for metric, (module, fname) in CACHES.items():
            before, after = self._cache_start.get(metric), self._cache_info(f"{module}.{fname}")
            if before is None or after is None:
                continue
            hits = after.hits - before.hits
            lookups = hits + after.misses - before.misses
            out[metric] = hits / lookups if lookups else 0.0
            out[metric.replace("_hit_ratio", "_lookups")] = lookups / max(ops, 1)
        return out

    # ---- output ----------------------------------------------------
    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tphase\top\tcount\n")
            for s in self.spans:
                fh.write("\t".join(map(str, s)) + "\n")


def layer_totals(spans):
    """Per-name totals over spans: calls, duration, self time and count.

    Self time is a span's duration minus the time its child spans cover;
    calls are single-threaded, so children never overlap and their
    coverage is the sum of their durations. Keys are (phase, name).
    """
    child_ns = defaultdict(int)
    for name, start, end, parent, phase, op, count in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0, "count": 0})
    for i, (name, start, end, parent, phase, op, count) in enumerate(spans):
        t = totals[(phase, name)]
        t["calls"] += 1
        t["ns"] += end - start
        t["self_ns"] += end - start - child_ns[i]
        t["count"] += count
    return totals


def child_calls(spans, child, parents, phase="op"):
    """Calls to `child` whose direct parent span is one of `parents`."""
    return sum(1 for name, _, _, parent, ph, _, _ in spans
               if name == child and ph == phase and parent >= 0 and spans[parent][0] in parents)


def outermost_ns(spans, name, phase="op"):
    """Total duration of `name` spans not nested in another `name` span."""
    return sum(end - start for n, start, end, parent, ph, _, _ in spans
               if n == name and ph == phase and (parent < 0 or spans[parent][0] != name))


def layer_metrics(tracer, ops):
    """Per-layer metrics of one traced run, normalised per operation."""
    spans = tracer.spans
    tot = layer_totals(spans)
    n_ops = max(ops, 1)
    cli_spans = [name for (_, name) in tot if name.startswith("cli.")]

    def per_op(names, key="calls", phase="op"):
        return sum(tot[(phase, name)][key] for name in names) / n_ops

    def secs(names, key="ns", phase="op"):
        return per_op(names, key, phase) / 1e9

    detect = ["circulant.detect_circulant", "circulant.detect_permuted"]
    verify = ["iso_oracle.verify_witness"]
    realize = ["circulant.realize"]
    classify = ["type2.classify_theta"]
    t2set = ["type2.type2_set"]
    scanned = tot[("op", t2set[0])]["count"]
    passed = child_calls(spans, classify[0], set(t2set))
    m = {
        "circulant.detect_calls": per_op(detect),
        "circulant.detect_s": secs(detect),
        "iso_oracle.verify_calls": per_op(verify),
        "iso_oracle.verify_s": secs(verify),
        "iso_oracle.edges_checked": per_op(verify, "count"),
        "circulant.realize_calls": per_op(realize),
        "circulant.realize_s": secs(realize),
        "circulant.edges_materialized": per_op(realize, "count"),
        "runtime.gc_s": tracer.gc_ns / 1e9 / n_ops,
        "runtime.gc_collections": tracer.gc_collections / n_ops,
        "type2.classify_calls": per_op(classify),
        "type2.classify_self_s": secs(classify, "self_ns"),
        "type2.set_calls": per_op(t2set),
        "type2.set_self_s": secs(t2set, "self_ns"),
        "type2.t_scanned": scanned / n_ops,
        "type2.prefilter_pass_ratio": passed / scanned if scanned else 0.0,
        # the only caller in any workload is the t2-scan output check
        "type2.group_check_s": secs(["type2.type2_group_check"], phase="check"),
        "type1.orbit_s": secs(["type1.type1_set"]),
        "type1.adams_check_s": secs(["type1.is_adams_isomorphic"]),
        "products.coprime_calls": per_op(["products.product_coprime"]),
        "products.coprime_self_s": secs(["products.product_coprime"], "self_ns"),
        "products.cartesian_s": secs(["products.cartesian_edges"]),
        "products.layered_self_s": secs(["products.product_prism", "products.product_c4"], "self_ns"),
        "products.partner_self_s": secs(["products.has_type2_partner"], "self_ns"),
        "iso_oracle.search_calls": per_op(["iso_oracle.search_isomorphism"]),
        "iso_oracle.search_s": secs(["iso_oracle.search_isomorphism"]),
        "reporting.to_json_s": secs(["reporting.to_json"]),
        "reporting.report_bytes": per_op(["reporting.to_json"], "count"),
        "reporting.rebuild_s": outermost_ns(spans, "reporting.graph_from_desc") / 1e9 / n_ops,
        "cli.command_self_s": secs(cli_spans, "self_ns"),
        "cli.witnesses_reverified": child_calls(spans, verify[0], {"cli.cmd_verify"}) / n_ops,
        "catalog.load_s": tot[("setup", "catalog.load")]["ns"] / 1e9,
    }
    m.update(tracer.cache_metrics(ops))
    return m
