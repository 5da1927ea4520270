"""circiso benchmark: three workloads timed end to end and traced per layer.

    python3 bench/run.py --workload theta-6750 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload t2-scan --seed 1 --seconds 30 --trace 1
    python3 bench/run.py                 # every workload, end-to-end metrics
    python3 bench/run.py --selfcheck     # generator determinism, held-out seed

A run does a fixed number of ops, sized from --seconds by the workload's
rate at the baseline (workloads.op_count), so a faster or slower program
runs the same ops. Untraced (--trace 0), a run reports the end-to-end
metrics: set-up time (the median of several fresh-process set-ups),
throughput, median and tail op latency and peak RSS. The times are rescaled
to a reference host speed, which a fixed kernel timed next to each op and
set-up tracks (hostspeed.py); the wall-clock figures are printed beside
them. Traced (--trace 1), it runs a third of the ops untraced, then the
same ops traced, then untraced again, each in a fresh process, and reports
the per-layer metrics of the traced run, normalised per op, with the
tracing overhead.
The last line of standard output is one JSON object; the exit code is
nonzero when any op's output check failed or the run could not complete.
See bench/README.md for the workloads and the metric-to-layer map.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("theta-6750", "t2-scan", "certify-cli")
SETUP_SAMPLES = 15  # set-ups per run; setup_s is their median
TIME_LIMIT_S = 170  # a run must finish within 180 s
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
HELDOUT_SEED = 60317  # not used while the benchmark was developed
SELFCHECK_SECONDS = 10  # run length whose op lists the held-out digests cover
HELDOUT_OP_DIGESTS = {
    "theta-6750": "4b4aeb4289eda19b",
    "t2-scan": "aa420be07c74a372",
    "certify-cli": "8be5a0a0905a3bc4",
}

PER_LAYER_UNITS = {
    "circulant.detect_calls": "count/op",
    "circulant.detect_s": "s/op",
    "iso_oracle.verify_calls": "count/op",
    "iso_oracle.verify_s": "s/op",
    "iso_oracle.edges_checked": "count/op",
    "circulant.realize_calls": "count/op",
    "circulant.realize_s": "s/op",
    "circulant.edges_materialized": "count/op",
    "runtime.gc_s": "s/op",
    "runtime.gc_collections": "count/op",
    "circulant.realize_hit_ratio": "ratio",
    "circulant.realize_lookups": "count/op",
    "type1.orbit_hit_ratio": "ratio",
    "type1.orbit_lookups": "count/op",
    "type2.classify_calls": "count/op",
    "type2.classify_self_s": "s/op",
    "type2.set_calls": "count/op",
    "type2.set_self_s": "s/op",
    "type2.t_scanned": "count/op",
    "type2.prefilter_pass_ratio": "ratio",
    "type2.group_check_s": "s/op",
    "type1.orbit_s": "s/op",
    "type1.adams_check_s": "s/op",
    "products.coprime_calls": "count/op",
    "products.coprime_self_s": "s/op",
    "products.cartesian_s": "s/op",
    "products.layered_self_s": "s/op",
    "products.partner_self_s": "s/op",
    "iso_oracle.search_calls": "count/op",
    "iso_oracle.search_s": "s/op",
    "reporting.to_json_s": "s/op",
    "reporting.report_bytes": "bytes/op",
    "reporting.rebuild_s": "s/op",
    "cli.command_self_s": "s/op",
    "cli.witnesses_reverified": "count/op",
    "catalog.load_s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    pass


def worker(args, deadline):
    """Run one worker process to completion and return its JSON result."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    # bytecode is cached under bench/out whatever the environment says, so
    # every set-up after a checkout's first imports from bytecode, as an
    # installed CLI does, and none reads a stale cache beside the sources
    env.update(PYTHONHASHSEED="0", SOURCE_DATE_EPOCH="0",
               PYTHONPYCACHEPREFIX=str(BENCH / "out" / "pycache"))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the next measurement")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} exceeded the time limit")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}: "
                         + proc.stderr.strip()[-2000:])
    return json.loads(lines[-1])


def tail_percentile(values):
    """Highest ladder percentile with at least ten samples beyond it
    (nearest-rank); returns (percentile, value, samples beyond)."""
    xs = sorted(values)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100 * n))
        if n - rank >= 10:
            return p, xs[rank - 1], n - rank
    return 100.0, xs[-1], 0


def end_to_end(workload, seed, seconds, deadline):
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    # half of the set-ups run before the measuring process and half after,
    # so they sample the host over the whole run rather than its start
    setup_only = lambda: worker(base + ["--setup-only"], deadline)  # noqa: E731
    runs = [setup_only() for _ in range(SETUP_SAMPLES // 2)]
    res = worker(base, deadline)
    runs.append(res)
    runs += [setup_only() for _ in range(SETUP_SAMPLES // 2)]
    setups = [hostspeed.rescale(r["setup_s"], *r["setup_kernel_ns"]) for r in runs]
    raw_ms = [ns / 1e6 for ns in res["latencies_ns"]]
    k, exponent = res["kernel_ns"], res["host_exponent"]
    lat_ms = [hostspeed.rescale(ms, k[i], k[i + 1], exponent) for i, ms in enumerate(raw_ms)]
    p, tail, beyond = tail_percentile(lat_ms)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(lat_ms) / (sum(lat_ms) / 1e3), "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_tail_ms": (tail, "ms"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
    }
    raw = {"setup_s": statistics.median(r["setup_s"] for r in runs),
           "ops_per_s": len(raw_ms) / (sum(raw_ms) / 1e3),
           "op_p50_ms": statistics.median(raw_ms),
           "op_tail_ms": sorted(raw_ms)[math.ceil(p / 100 * len(raw_ms)) - 1]}
    n, failed = res["attempted"], res["failed"]
    lines = [f"[{workload} seed {seed}] {n} ops attempted, {failed} failed,"
             f" fail_ratio {failed / n:.4f}"]
    lines += [(f"  {name:<12} {value:>12.4f} {unit:<4}"
               + (f" (wall clock {raw[name]:.4f})" if name in raw else "")).rstrip()
              for name, (value, unit) in metrics.items()]
    lines.append(f"  op_tail_ms is p{p:g}: {beyond} of {n} samples beyond it;"
                 f" setup_s is the median of {len(setups)} set-ups")
    lines.append(f"  times at the reference host speed; host-speed kernel median"
                 f" {statistics.median(k) / 1e6:.3f} ms, reference"
                 f" {hostspeed.REFERENCE_NS / 1e6:g} ms, op exponent {exponent:g}")
    lines.append(f"  op-list digest {res['op_list_digest']}, output digest {res['output_digest']}")
    lines += [f"  FAILED {f}" for f in res["failures"]]
    return res, metrics, lines


def per_layer(workload, seed, seconds, deadline):
    """Untraced, traced, untraced again: three fresh processes on the same
    third of the run's ops. The overhead ratio compares the traced run with
    the mean of the two untraced runs around it, which cancels most slow
    drift of the host."""
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--part", "3"]
    spans = BENCH / "out" / f"spans-{workload}.tsv"
    before = worker(base, deadline)
    res = worker(base + ["--trace", "--spans", str(spans)], deadline)
    after = worker(base, deadline)
    k = res["attempted"]
    untraced_ns = (sum(before["latencies_ns"]) + sum(after["latencies_ns"])) / 2
    overhead = sum(res["latencies_ns"]) / untraced_ns
    layers = dict(res["layers"], **{"trace.overhead_ratio": overhead})
    metrics = {name: (value, PER_LAYER_UNITS[name]) for name, value in layers.items()}
    runs = (before, res, after)
    failed = sum(r["failed"] for r in runs)
    lines = [f"[{workload} seed {seed} traced] {k} ops traced between two untraced runs,"
             f" {failed} failed, overhead {overhead:.3f}x; spans in {spans.relative_to(ROOT)}"]
    lines += [f"  {name:<30} {value:>14.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines += [f"  FAILED {f}" for r in runs for f in r["failures"]]
    # every process checked its outputs, so all of them count as attempted
    counts = {"attempted": sum(r["attempted"] for r in runs), "failed": failed}
    return counts, metrics, lines


def selfcheck():
    """Two fresh generations of the held-out seed must agree with each other
    and with the digests recorded when the benchmark was written."""
    ok = True
    deadline = time.monotonic() + TIME_LIMIT_S
    for w in WORKLOADS:
        args = ["--workload", w, "--seed", str(HELDOUT_SEED), "--seconds", str(SELFCHECK_SECONDS),
                "--setup-only"]
        a, b = (worker(args, deadline)["op_list_digest"] for _ in range(2))
        good = a == b == HELDOUT_OP_DIGESTS[w]
        ok &= good
        print(f"{w}: seed {HELDOUT_SEED} op-list digest {a} / {b},"
              f" recorded {HELDOUT_OP_DIGESTS[w]}: {'ok' if good else 'MISMATCH'}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "circiso" / "__init__.py").is_file():
        print(f"error: no circiso sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck()
    measure = per_layer if args.trace else end_to_end
    names = [args.workload] if args.workload else list(WORKLOADS)
    attempted = failed = 0
    metrics = {}
    for w in names:
        deadline = time.monotonic() + TIME_LIMIT_S
        try:
            res, m, lines = measure(w, args.seed, args.seconds, deadline)
        except BenchError as e:
            print(f"error: {w}: {e}", file=sys.stderr)
            return 2
        print("\n".join(lines), flush=True)
        attempted += res["attempted"]
        failed += res["failed"]
        prefix = "" if args.workload else f"{w}."
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
