"""One measurement process of the circiso benchmark.

run.py starts a fresh process for every measurement, so the program's
caches start cold, as in a CLI invocation. The process sets up (imports
circiso, loads the catalog, generates from the seed the ops that --seconds
stands for, see workloads.op_count), runs them as a closed loop (one
client, each op issued when the previous one and its output check are done)
and prints one JSON object as its last line. The host-speed kernel
(hostspeed.py) is timed before and after the set-up and between ops, never
inside a measured span.

    python3 bench/worker.py --workload theta-6750 --seed 1 --seconds 10
    python3 bench/worker.py --workload t2-scan --seed 1 --seconds 10 --setup-only
    python3 bench/worker.py --workload t2-scan --seed 1 --seconds 10 --trace \\
        --spans bench/out/spans-t2-scan.tsv
"""

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"


def op_list_digest(wl, ops):
    h = hashlib.sha256()
    for op in ops:
        h.update(wl.key(op).encode() + b"\n")
    return h.hexdigest()[:16]


def set_up(args, workdir):
    """Import, catalog load and op generation; returns what the loop needs.
    The host-speed kernel runs before and after, outside the set-up time."""
    kernels = [hostspeed.kernel()]
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import circiso.cli  # noqa: F401  (loads every module of the package)
    except ImportError as e:
        sys.exit(f"error: cannot import circiso from {SRC}: {e}")
    if Path(circiso.__file__).resolve().parent != (SRC / "circiso").resolve():
        sys.exit(f"error: circiso imported from {circiso.__file__}, not from {SRC}")
    tr = None
    if args.trace:
        import tracer

        tr = tracer.Tracer()
        tr.install()
    import workloads
    from circiso import catalog

    wl = workloads.WORKLOADS[args.workload](workdir)
    cat = catalog.load()
    n = workloads.op_count(wl, args.seconds, args.part)
    ops = wl.generate(cat, random.Random(args.seed), n)
    setup_s = time.perf_counter() - start
    kernels.append(hostspeed.kernel())
    digest = op_list_digest(wl, ops)
    # determinism self-check: a second generation from the same seed must
    # give the same op list
    if op_list_digest(wl, wl.generate(cat, random.Random(args.seed), n)) != digest:
        sys.exit(f"error: {args.workload} generator is not deterministic for seed {args.seed}")
    return wl, ops, tr, setup_s, kernels, digest


def run_loop(wl, ops, tr):
    """Closed loop over every op; returns per-op results. The host-speed
    kernel runs before each op and after the last, outside the op's time."""
    latencies, kernels, failures = [], [], []
    failed = 0
    chain = hashlib.sha256()
    clock = time.perf_counter_ns
    if tr:
        tr.mark_caches()
    for i, op in enumerate(ops):
        kernels.append(hostspeed.kernel())
        if tr:
            tr.phase, tr.op = "op", i
        start = clock()
        try:
            out, busy = wl.execute(op)
            if tr:
                tr.phase = "check"
            ok, record = wl.check(op, out)
        except Exception:  # an op that raises is a failed op, not a crash
            busy = clock() - start
            ok, record = False, traceback.format_exc(limit=4)
        out = None  # release the op's edge sets before the next op
        latencies.append(busy)
        if not ok:
            failed += 1
            if len(failures) < 3:
                failures.append(f"op {i} ({wl.key(op)}): {record}")
        chain.update(record.encode() + b"\n")
    kernels.append(hostspeed.kernel())
    if tr:
        tr.phase = "done"
    return latencies, kernels, failed, failures, chain.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="run length at the baseline rate; sets the op count")
    ap.add_argument("--part", type=int, default=1,
                    help="run only the first 1/PART of those ops, in whole rounds")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="write the traced spans to this file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        wl, ops, tr, setup_s, setup_kernel_ns, digest = set_up(args, str(workdir))
        result = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s,
                  "setup_kernel_ns": setup_kernel_ns, "op_list_digest": digest,
                  "host_exponent": wl.HOST_EXPONENT}
        if not args.setup_only:
            latencies, kernels, failed, failures, output_digest = run_loop(wl, ops, tr)
            result.update(latencies_ns=latencies, kernel_ns=kernels, attempted=len(latencies),
                          failed=failed, failures=failures, output_digest=output_digest,
                          peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            if tr:
                import tracer

                tr.uninstall()
                result["layers"] = tracer.layer_metrics(tr, len(latencies))
                if args.spans:
                    tr.write(args.spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
